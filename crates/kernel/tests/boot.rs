//! Full-system boot tests: the kernels running real workloads.

use wrl_kernel::{build_system, KernelConfig};
use wrl_workloads::by_name;

#[test]
fn ultrix_boots_and_runs_sed() {
    let w = by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix(), &[&w]);
    let run = sys.run(100_000_000);
    // sed exits with its line count, printed to the console too.
    let input = wrl_workloads::sed::files().remove(0).1;
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u32;
    assert_eq!(run.exit_code, lines);
    let text = String::from_utf8_lossy(&run.console);
    assert!(
        text.contains(&lines.to_string()),
        "console: {text:?} (expected {lines})"
    );
    // The kernel actually did I/O and took interrupts.
    let c = &sys.machine.counters;
    assert!(sys.machine.dev.disk_ops > 0, "no disk traffic");
    assert!(c.interrupts > 0, "no interrupts");
    assert!(c.utlb_misses > 0, "no user TLB misses");
    assert!(c.kernel_insts > 0 && c.user_insts > 0);
}

#[test]
fn ultrix_traced_sed_trace_parses_cleanly() {
    let w = by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(2_000_000_000);
    let input = wrl_workloads::sed::files().remove(0).1;
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u32;
    assert_eq!(run.exit_code, lines, "traced run must behave identically");
    assert!(!run.trace_words.is_empty(), "no trace collected");

    let mut parser = sys.parser();
    parser.parse_all(&run.trace_words, &mut ());
    assert_eq!(
        parser.stats.errors,
        0,
        "parse errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );
    // Both kernel and user references present, interleaved.
    assert!(parser.stats.kernel_irefs > 0, "no kernel irefs");
    assert!(parser.stats.user_irefs > 0, "no user irefs");
    assert!(parser.stats.kernel_entries > 0);
    assert!(parser.stats.ctx_switches > 0);
}

#[test]
fn mach_boots_and_runs_sed_through_the_server() {
    let w = by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::mach(), &[&w]);
    let run = sys.run(200_000_000);
    let input = wrl_workloads::sed::files().remove(0).1;
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u32;
    assert_eq!(run.exit_code, lines);
    // The server ran: two processes alive, context switches happened.
    assert!(sys.machine.counters.utlb_misses > 0);
    assert!(sys.machine.dev.disk_ops > 0);
}

#[test]
fn mach_traced_sed_trace_parses_cleanly() {
    let w = by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::mach().traced(), &[&w]);
    let run = sys.run(3_000_000_000);
    let input = wrl_workloads::sed::files().remove(0).1;
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u32;
    assert_eq!(run.exit_code, lines);
    let mut parser = sys.parser();
    let mut sink = wrl_trace::EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "parse errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );
    // Both user address spaces (workload + server) appear.
    let asids: std::collections::HashSet<u8> = sink
        .fetches()
        .filter_map(|r| match r.1 {
            wrl_trace::Space::User(a) => Some(a),
            _ => None,
        })
        .collect();
    assert!(asids.len() >= 2, "only one user space traced: {asids:?}");
}

#[test]
fn two_processes_timeshare_under_ultrix() {
    // The paper concentrates on single-process and client-server
    // workloads, but the machinery (ASIDs, per-process trace buffers,
    // round-robin preemption on clock ticks) supports timesharing;
    // exercise it.
    let a = by_name("yacc").unwrap();
    let b = by_name("espresso").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix(), &[&a, &b]);
    let run = sys.run(400_000_000);
    // Exit code is the last exiting process's; both must have run:
    // the scheduler preempted between them on clock ticks.
    assert!(sys.machine.counters.interrupts > 10);
    let _ = run;
}

#[test]
fn two_traced_processes_interleave_in_one_trace() {
    let a = by_name("yacc").unwrap();
    let b = by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&a, &b]);
    let run = sys.run(6_000_000_000);
    let mut parser = sys.parser();
    let mut sink = wrl_trace::EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );
    // Both user address spaces contribute substantial activity, and
    // the base context actually alternates (preemptive interleaving,
    // not just back-to-back runs).
    let seq: Vec<u8> = sink
        .fetches()
        .filter_map(|r| match r.1 {
            wrl_trace::Space::User(a) => Some(a),
            _ => None,
        })
        .collect();
    let a1 = seq.iter().filter(|&&x| x == 1).count();
    let a2 = seq.iter().filter(|&&x| x == 2).count();
    assert!(a1 > 100_000, "asid 1 only {a1} irefs");
    assert!(a2 > 100_000, "asid 2 only {a2} irefs");
    let alternations = seq.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        alternations > 4,
        "no preemptive interleaving: {alternations}"
    );
}

#[test]
fn trace_ctl_syscall_starts_and_stops_tracing() {
    // A workload that brackets a phase with trace_ctl: the kernel call
    // the paper added (§3.1).
    use wrl_isa::asm::Asm;
    use wrl_isa::reg::*;
    use wrl_trace::layout::trace_ctl;
    let mut a = Asm::new("ctl");
    a.global_label("main");
    a.addiu(SP, SP, -8);
    a.sw(RA, 4, SP);
    // Tracing starts ON (traced build); stop it, do some work,
    // restart it, do different work, exit.
    a.li(A0, trace_ctl::STOP as i32);
    a.jal("__trace_ctl");
    a.nop();
    a.la(T0, "quiet");
    a.li(T1, 500);
    a.label("off_loop");
    a.sw(T1, 0, T0);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "off_loop");
    a.nop();
    a.li(A0, trace_ctl::START as i32);
    a.jal("__trace_ctl");
    a.nop();
    a.la(T0, "loud");
    a.li(T1, 200);
    a.label("on_loop");
    a.sw(T1, 0, T0);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "on_loop");
    a.nop();
    a.li(V0, 0);
    a.lw(RA, 4, SP);
    a.jr(RA);
    a.addiu(SP, SP, 8);
    a.data();
    a.align4();
    a.global_label("quiet");
    a.space(16);
    a.global_label("loud");
    a.space(16);
    let w = wrl_workloads::Workload {
        name: "ctl",
        description: "trace_ctl exerciser",
        max_insts: 10_000_000,
        objects: vec![
            a.finish(),
            wrl_workloads::support::crt0(),
            wrl_workloads::support::libw3k(),
        ],
        files: vec![],
    };
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(400_000_000);
    assert_eq!(run.exit_code, 0);
    let mut parser = sys.parser();
    let mut sink = wrl_trace::EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "{:?}",
        &parser.errors[..parser.errors.len().min(3)]
    );
    // The "quiet" loop's stores must be absent, the "loud" loop's
    // present.
    let quiet = sys.procs[0].orig.exe.sym("quiet").unwrap();
    let loud = sys.procs[0].orig.exe.sym("loud").unwrap();
    let stores_at = |va: u32| {
        let at = |e: &&wrl_trace::RefEvent| matches!(**e, wrl_trace::RefEvent::Dref { vaddr, store: true, .. } if vaddr == va);
        sink.0.iter().filter(at).count()
    };
    assert_eq!(stores_at(quiet), 0, "traced while off");
    assert!(stores_at(loud) >= 200, "on-phase stores missing");
}

#[test]
fn mach_serves_two_clients_concurrently() {
    // Two independent workloads timeshare against one UNIX server:
    // the IPC request queue interleaves their file operations.
    let a = by_name("sed").unwrap();
    let b = by_name("egrep").unwrap();
    let mut sys = build_system(&KernelConfig::mach().traced(), &[&a, &b]);
    let run = sys.run(6_000_000_000);
    let mut parser = sys.parser();
    let mut sink = wrl_trace::EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(
        parser.stats.errors,
        0,
        "errors: {:?}",
        &parser.errors[..parser.errors.len().min(5)]
    );
    // Three user address spaces: sed, egrep, server.
    let mut tokens: Vec<u8> = sink
        .fetches()
        .filter_map(|r| match r.1 {
            wrl_trace::Space::User(t) => Some(t),
            _ => None,
        })
        .collect();
    tokens.sort_unstable();
    tokens.dedup();
    assert_eq!(tokens, vec![1, 2, 3]);
}
