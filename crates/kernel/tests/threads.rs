//! §3.6: "multiple traced threads in a single address space, as
//! independent trace pages are allocated for each thread.
//! Context-switching code in the kernel maps the correct per-thread
//! pages when a new thread is activated."
//!
//! A program spawns a worker thread; both loop over disjoint buffers
//! in the *same* address space under preemptive scheduling. The trace
//! must carry both activity streams under distinct context tokens and
//! parse without errors.

use wrl_isa::asm::Asm;
use wrl_isa::reg::*;
use wrl_kernel::{build_system, KernelConfig};
use wrl_trace::{EventVec, RefEvent, Space};

fn threaded_workload() -> wrl_workloads::Workload {
    let mut a = Asm::new("threads");

    // worker(arg = iteration count): store a pattern into buf_b, then
    // set the done flag and exit.
    a.global_label("worker");
    a.move_(S0, A0);
    a.la(T0, "buf_b");
    a.label("wk_loop");
    a.sw(S0, 0, T0);
    a.lw(T1, 0, T0);
    a.addiu(S0, S0, -1);
    a.bne(S0, ZERO, "wk_loop");
    a.nop();
    a.la(T0, "done_flag");
    a.li(T1, 1);
    a.sw(T1, 0, T0);
    a.li(A0, 0);
    a.li(V0, wrl_trace::layout::sys::EXIT as i32);
    a.syscall(0);

    // main: spawn the worker, do its own loop over buf_a, wait for
    // the worker, return the combined evidence.
    a.global_label("main");
    a.addiu(SP, SP, -8);
    a.sw(RA, 4, SP);
    a.la_off(A0, "worker", 0);
    a.la_off(A1, "tstack_end", 0);
    a.li(A2, 4000);
    a.jal("__spawn");
    a.nop();
    a.move_(S1, V0); // worker token
    a.li(S0, 6000);
    a.la(T0, "buf_a");
    a.label("mn_loop");
    a.sw(S0, 0, T0);
    a.lw(T1, 0, T0);
    a.addiu(S0, S0, -1);
    a.bne(S0, ZERO, "mn_loop");
    a.nop();
    // Wait for the worker.
    a.label("mn_wait");
    a.jal("__yield");
    a.nop();
    a.la(T0, "done_flag");
    a.lw(T1, 0, T0);
    a.beq(T1, ZERO, "mn_wait");
    a.nop();
    a.move_(V0, S1); // exit code = worker's token
    a.lw(RA, 4, SP);
    a.jr(RA);
    a.addiu(SP, SP, 8);

    a.data();
    a.align4();
    a.global_label("buf_a");
    a.space(16);
    a.global_label("buf_b");
    a.space(16);
    a.global_label("done_flag");
    a.word(0);
    a.space(8 * 1024);
    a.label("tstack_end");
    a.word(0);

    wrl_workloads::Workload {
        name: "threads",
        description: "two traced threads in one address space",
        max_insts: 80_000_000,
        objects: vec![
            a.finish(),
            wrl_workloads::support::crt0(),
            wrl_workloads::support::libw3k(),
        ],
        files: vec![],
    }
}

#[test]
fn threads_share_an_address_space_untraced() {
    let w = threaded_workload();
    let mut sys = build_system(&KernelConfig::ultrix(), &[&w]);
    let run = sys.run(400_000_000);
    // Exit code is the worker's token (slot 1 => token 2).
    assert_eq!(run.exit_code, 2);
}

#[test]
fn per_thread_trace_pages_keep_streams_separate() {
    let w = threaded_workload();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(4_000_000_000);
    assert_eq!(run.exit_code, 2);

    let mut parser = sys.parser();
    let mut sink = EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );

    // Both tokens contribute user instruction streams.
    let count = |tok: u8| sink.fetches().filter(|r| r.1 == Space::User(tok)).count();
    assert!(count(1) > 20_000, "main thread: {}", count(1));
    assert!(count(2) > 10_000, "worker thread: {}", count(2));

    // Store addresses attribute correctly: the worker's token stores
    // to buf_b, the main token to buf_a — same address space, fully
    // disentangled by the per-thread trace pages.
    let buf_a = sys.procs[0].orig.exe.sym("buf_a").unwrap();
    let buf_b = sys.procs[0].orig.exe.sym("buf_b").unwrap();
    let stores = |tok: u8, va: u32| {
        let at = |e: &&RefEvent| {
            matches!(**e, RefEvent::Dref { vaddr, store: true, space, .. }
                if vaddr == va && space == Space::User(tok))
        };
        sink.0.iter().filter(at).count()
    };
    assert!(
        stores(1, buf_a) >= 6000,
        "main stores: {}",
        stores(1, buf_a)
    );
    assert!(
        stores(2, buf_b) >= 4000,
        "worker stores: {}",
        stores(2, buf_b)
    );
    assert_eq!(stores(1, buf_b), 0, "main never stores to buf_b");
    assert_eq!(stores(2, buf_a), 0, "worker never stores to buf_a");
}

/// The §3.4 archive of a threaded run carries the spawned thread's
/// table under its token, so it parses exactly as the live run does.
#[test]
fn an_archive_of_a_threaded_run_parses_as_the_live_run_does() {
    let w = threaded_workload();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(4_000_000_000);
    assert_eq!(run.exit_code, 2);

    let parse = |mut parser: wrl_trace::TraceParser| {
        let mut sink = EventVec::default();
        parser.parse_all(&run.trace_words, &mut sink);
        (parser.stats.errors, sink)
    };
    let (live_errors, live) = parse(sys.parser());
    let (archived_errors, archived) = parse(sys.archive(&run).parser());
    assert_eq!(live_errors, 0);
    assert_eq!(archived_errors, 0, "the archive lacks a thread's table");
    let first_diff = archived.0.iter().zip(&live.0).position(|(a, l)| a != l);
    assert!(
        archived == live,
        "archived and live events differ (first at {first_diff:?}, lengths {} and {})",
        archived.0.len(),
        live.0.len()
    );
}

#[test]
fn mach_per_thread_trace_pages_work_too() {
    // §3.6 describes threads as the Mach system's feature; the same
    // spawn + dispatch-remap machinery must hold with the user-level
    // server timesharing against both threads.
    let w = threaded_workload();
    let mut sys = build_system(&KernelConfig::mach().traced(), &[&w]);
    let run = sys.run(6_000_000_000);
    // Slot 0 = main, slot 1 = the UNIX server, so the worker thread
    // lands in slot 2 and spawn returns token 3.
    assert_eq!(run.exit_code, 3);

    let mut parser = sys.parser();
    let mut sink = EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );
    // Main thread (token 1), server (2), worker thread (3) all
    // contribute user streams under distinct tokens.
    let count = |tok: u8| sink.fetches().filter(|r| r.1 == Space::User(tok)).count();
    assert!(count(1) > 10_000, "main: {}", count(1));
    // The workload does no file I/O, so the server only runs its
    // startup path before blocking in recv — but that still traces.
    assert!(count(2) > 0, "server: {}", count(2));
    assert!(count(3) > 5_000, "worker: {}", count(3));
}
