//! Quickstart: instrument a program with epoxie, run it, and parse
//! the address trace back into a reference stream.
//!
//! This is the user-level half of the paper's pipeline in ~60 lines:
//! write a program against the W3K assembler, let epoxie rewrite its
//! object file at link time, execute the instrumented binary on the
//! machine simulator, and reconstruct the original binary's
//! interleaved instruction/data reference stream from the one-word
//! trace entries.

use systrace::epoxie::{
    build_traced, check_trace, parse_trace, reference_run, run_traced, FullPolicy, Mode,
};
use systrace::isa::asm::Asm;
use systrace::isa::link::Layout;
use systrace::isa::reg::*;
use systrace::trace::RefEvent;

fn main() {
    // 1. A small program: sum a table, store the running sums back.
    let mut a = Asm::new("demo");
    a.global_label("main");
    a.la(T0, "table");
    a.li(T1, 16); // elements
    a.li(T2, 0); // sum
    a.label("loop");
    a.lw(T3, 0, T0);
    a.addu(T2, T2, T3);
    a.sw(T2, 64, T0); // running sums, one cache line away
    a.addiu(T0, T0, 4);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "loop");
    a.nop();
    a.break_(0); // done
    a.data();
    a.label("table");
    for i in 1..=16 {
        a.word(i);
    }
    a.space(64);

    // 2. Link-time instrumentation: both binaries plus the static
    //    basic-block table that maps trace entries back to the
    //    uninstrumented binary.
    let prog = build_traced(
        &[a.finish()],
        Layout::user(),
        "main",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .expect("instrumentation");
    println!(
        "text: {} -> {} bytes ({:.2}x); {} basic blocks in the table",
        prog.expansion.orig_bytes,
        prog.expansion.new_bytes,
        prog.expansion.factor(),
        prog.table.len()
    );

    // 3. Run the instrumented binary; the harness plays the kernel's
    //    role (buffer setup, flush traps).
    let run = run_traced(&prog, 10_000_000, |_, _| false);
    println!(
        "traced run: {} instructions, {} trace words, {} flush traps",
        run.machine.counters.insts(),
        run.words.len(),
        run.flushes
    );

    // 4. Parse the trace back: runs of fetches and data references,
    //    interleaved in the order the original binary made them.
    let events = parse_trace(&prog, &run.words).expect("a clean parse");
    println!("first eight events of the reconstructed, interleaved stream:");
    for e in events.0.iter().take(8) {
        match *e {
            RefEvent::Iref { vaddr, n, .. } => println!("  I {vaddr:#010x} x{n}"),
            RefEvent::Dref { vaddr, store, .. } => {
                println!("  {} {vaddr:#010x}", if store { 'S' } else { 'L' })
            }
            other => println!("  {other:?}"),
        }
    }
    let drefs = events
        .0
        .iter()
        .filter(|e| matches!(e, RefEvent::Dref { .. }));
    println!(
        "total: {} instruction refs, {} data refs — all mapped to the \
         uninstrumented binary's addresses",
        events.fetches().count(),
        drefs.count()
    );

    // 5. §4.3's check: the same stream from the uninstrumented binary
    //    under the CPU simulator's reference tracer.
    let (reference, _) = reference_run(&prog.orig.exe, 10_000_000, |_, _| false);
    check_trace(&prog, &run.words, &reference).expect("trace matches the CPU simulator");
    println!("matches the CPU simulator's trace, reference for reference");
}
