//! §4.3's reference-counting validation: "Reference counting tools
//! were used to make a dynamic count of the number of times each
//! instruction in the kernel was executed. In this way it was
//! possible to identify anomalous system activity caused by errors in
//! the tracing system."
//!
//! We run the *uninstrumented* binary counting the machine's fetch
//! events per address, derive the same per-instruction histogram from
//! the *parsed trace* of the instrumented run — the two halves of
//! `wrl_epoxie::check_trace` — and require them to agree exactly:
//! per-instruction-granularity validation on top of the
//! stream-equality check.

use std::collections::HashMap;

use systrace::epoxie::{
    build_traced, parse_trace, reference_run, run_traced, FullPolicy, Mode, Ref,
};
use systrace::isa::link::Layout;
use systrace::machine::{RefCounter, StopEvent};
use systrace::trace::layout::trapcode;

#[test]
fn per_instruction_counts_match_reference_counter() {
    let w = systrace::workloads::by_name("yacc").unwrap();
    let prog = build_traced(
        &w.objects,
        Layout::user(),
        "__start",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .unwrap();
    let host = || {
        let mut env = systrace::workloads::HostEnv::new(w.files.iter().cloned());
        env.brk = prog.orig.exe.brk();
        move |m: &mut _, code| {
            assert_eq!(code, trapcode::SYSCALL_ABI, "syscall code");
            env.handle(m)
        }
    };

    // Reference counts from the uninstrumented run.
    let (reference_refs, stop) = reference_run(&prog.orig.exe, 2_000_000_000, host());
    assert_eq!(stop, StopEvent::Syscall(trapcode::SYSCALL_ABI));
    let mut reference = RefCounter::new();
    for r in reference_refs {
        if let Ref::I(vaddr) = r {
            reference.bump(vaddr);
        }
    }

    // Trace-derived counts from the instrumented run.
    let run = run_traced(&prog, 2_000_000_000, host());
    let events = parse_trace(&prog, &run.words).expect("a clean parse");
    let mut hist = HashMap::new();
    for (vaddr, _, _) in events.fetches() {
        *hist.entry(vaddr).or_insert(0u64) += 1;
    }

    // Exact per-instruction agreement across the whole text segment.
    let mut compared = 0u64;
    for va in (prog.orig.exe.text_base..prog.orig.exe.text_end()).step_by(4) {
        let want = reference.count(va);
        let got = hist.get(&va).copied().unwrap_or(0);
        assert_eq!(got, want, "count mismatch at {va:#010x}");
        compared += u64::from(want > 0);
    }
    assert!(compared > 150, "only {compared} live instructions compared");
    // Hot-spot identification works: the hottest instruction is in
    // the parser's inner loop and executed thousands of times.
    let (&hot, &n) = hist.iter().max_by_key(|(_, &n)| n).unwrap();
    assert!(n > 5_000, "hottest instruction only ran {n} times");
    assert!(hot >= prog.orig.exe.text_base && hot < prog.orig.exe.text_end());
}
