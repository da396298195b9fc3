//! §4.3: "The correctness of trace generated by epoxie instrumentation
//! was validated by comparing epoxie trace for deterministic user
//! programs to trace from a CPU simulator."
//!
//! Runs every workload both ways on the bare machine — uninstrumented
//! under the machine's reference tracer, once, and instrumented under
//! each epoxie scheme with the trace parsed back — and compares the
//! interleaved reference streams reference-for-reference
//! (`wrl_epoxie::check_trace`).

use systrace::epoxie::{
    build_traced, check_trace, reference_run, run_traced, FullPolicy, Mode, Ref,
};
use systrace::isa::link::{link, Layout};
use systrace::machine::{Machine, StopEvent};
use systrace::trace::layout::trapcode;
use systrace::workloads::{HostEnv, Workload};

/// How every run ends: the program's exit syscall.
const EXIT: StopEvent = StopEvent::Syscall(trapcode::SYSCALL_ABI);

fn main() {
    println!("epoxie trace vs independent CPU-simulator trace (bare runs)");
    let modes = [Mode::Modified, Mode::Original];
    let mut rows = modes.map(|_| String::new());
    for w in wrl_bench::selected_workloads() {
        // The reference depends only on the original executable and
        // the workload's files, so one run serves both schemes.
        let orig = link(&w.objects, Layout::user(), "__start").expect("a workload links");
        let (reference, stop) = reference_run(&orig.exe, 2_000_000_000, host(&w, orig.exe.brk()));
        assert_eq!(stop, EXIT, "{}", w.name);
        for (mode, rows) in modes.iter().zip(&mut rows) {
            *rows += &check(&w, *mode, &reference);
        }
    }
    for (mode, rows) in modes.iter().zip(rows) {
        print!("-- {mode:?} scheme --\n{rows}");
    }
}

/// Services `w`'s syscalls from a fresh copy of its files, the heap
/// starting at `brk`; `false` once the program has exited.
fn host(w: &Workload, brk: u32) -> impl FnMut(&mut Machine, u32) -> bool + '_ {
    let mut env = HostEnv::new(w.files.iter().cloned());
    env.brk = brk;
    move |m, code| {
        assert_eq!(code, trapcode::SYSCALL_ABI, "{}: syscall code", w.name);
        env.handle(m)
    }
}

/// Runs `w` instrumented under `mode` and checks its parsed trace
/// against `reference`, returning the result row.
fn check(w: &Workload, mode: Mode, reference: &[Ref]) -> String {
    let prog = build_traced(
        &w.objects,
        Layout::user(),
        "__start",
        mode,
        FullPolicy::Syscall,
    )
    .unwrap();
    let run = run_traced(&prog, 2_000_000_000, host(w, prog.orig.exe.brk()));
    assert_eq!(run.stop, EXIT, "{}", w.name);
    if let Err(m) = check_trace(&prog, &run.words, reference) {
        panic!("{} diverged under {mode:?}: {m:?}", w.name);
    }
    format!("  {:9} {:>9} refs  EXACT MATCH\n", w.name, reference.len())
}
