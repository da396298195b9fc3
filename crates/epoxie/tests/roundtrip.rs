//! End-to-end validation of the instrumentation pipeline — the §4.3
//! check: "The correctness of trace generated by epoxie
//! instrumentation was validated by comparing epoxie trace for
//! deterministic user programs to trace from a CPU simulator."
//!
//! We run the *uninstrumented* binary under the machine's reference
//! tracer, run the *instrumented* binary with the trace runtime, and
//! require `wrl_epoxie::check_trace` to find the trace words, parsed
//! through the bb table, identical to that interleaved reference
//! stream.

use wrl_epoxie::{
    build_traced, check_trace, reference_run, run_traced, FullPolicy, Mismatch, Mode, Ref,
    TracedProgram,
};
use wrl_isa::asm::Asm;
use wrl_isa::link::Layout;
use wrl_isa::reg::*;
use wrl_machine::StopEvent;

/// Runs the uninstrumented binary under the reference tracer, to its
/// `break`.
fn reference_stream(prog: &TracedProgram, max: u64) -> Vec<Ref> {
    let (refs, stop) = reference_run(&prog.orig.exe, max, |_, _| false);
    assert!(
        matches!(stop, StopEvent::Break(_)),
        "reference run ended with {stop:?}"
    );
    refs
}

fn check_roundtrip(objs: Vec<wrl_isa::Object>, mode: Mode) -> (TracedProgram, u64, u64) {
    let prog = build_traced(&objs, Layout::user(), "main", mode, FullPolicy::Syscall)
        .expect("build_traced");
    let reference = reference_stream(&prog, 5_000_000);
    let run = run_traced(&prog, 200_000_000, |_, _| false);
    assert!(
        matches!(run.stop, StopEvent::Break(_)),
        "traced run ended with {:?}",
        run.stop
    );
    assert_eq!(
        check_trace(&prog, &run.words, &reference),
        Ok(()),
        "mode {mode:?}"
    );
    let traced_insts = run.machine.counters.insts();
    let orig_insts = reference.iter().filter(|r| matches!(r, Ref::I(_))).count() as u64;
    (prog, traced_insts, orig_insts)
}

/// A workload with loops, calls, mixed-width memory traffic, the
/// Figure-2 `sw ra` hazard, a load-to-ra restore, a load that clobbers
/// its own base, and uses of a stolen register.
fn torture_program() -> Vec<wrl_isa::Object> {
    let mut a = Asm::new("torture");
    a.global_label("main");
    // Standard prologue with the Figure-2 hazard: sw ra,20(sp).
    a.la(SP, "stack_top");
    a.addiu(SP, SP, -24);
    a.sw(RA, 20, SP);
    a.sw(A0, 24, SP);
    // Loop storing and reloading bytes/halves/words.
    a.la(S0, "buf");
    a.li(S1, 16);
    a.label("loop");
    a.sb(S1, 0, S0);
    a.sh(S1, 2, S0);
    a.sw(S1, 4, S0);
    a.lbu(T0, 0, S0);
    a.lhu(T1, 2, S0);
    a.lw(T2, 4, S0);
    a.addu(T3, T3, T2);
    a.addiu(S0, S0, 8);
    a.addiu(S1, S1, -1);
    a.bne(S1, ZERO, "loop");
    a.nop();
    // Call a function through a register (jalr) and directly.
    a.la(T9, "callee");
    a.jalr(T9);
    a.nop();
    a.jal("callee");
    a.nop();
    // A load that clobbers its own base (hazard class 2).
    a.la(T4, "ptrcell");
    a.lw(T4, 0, T4);
    a.lw(T5, 0, T4);
    // Stolen-register exercise: s5 is xreg1.
    a.li(S5, 1234);
    a.addiu(S5, S5, 1);
    a.sw(S5, 0, T4); // store stolen value
    a.lw(S5, 4, T4); // load into stolen reg
    a.addu(T6, S5, S5);
    // Branch reading a stolen register.
    a.bne(S5, ZERO, "stolen_ok");
    a.nop();
    a.label("stolen_ok");
    // Epilogue: load-to-ra (hazard), then return... but main has no
    // caller, so just halt.
    a.lw(RA, 20, SP);
    a.addiu(SP, SP, 24);
    a.break_(0);

    a.global_label("callee");
    a.addiu(SP, SP, -8);
    a.sw(RA, 4, SP); // fig-2 hazard inside a call
    a.la(T7, "buf");
    a.lw(T8, 0, T7);
    a.lw(RA, 4, SP); // load-to-ra hazard
    a.jr(RA);
    a.addiu(SP, SP, 8); // delay slot (safe: jr reads ra, not sp)
    a.data();
    a.label("buf");
    a.space(256);
    a.label("ptrcell");
    a.word_sym("buf", 64);
    a.word(0x5a5a_5a5a);
    a.space(64);
    a.label("stack_bot");
    a.space(4096);
    a.label("stack_top");
    a.word(0);
    vec![a.finish()]
}

#[test]
fn modified_epoxie_trace_matches_cpu_simulator() {
    let (prog, traced, orig) = check_roundtrip(torture_program(), Mode::Modified);
    // Text growth in the paper's 1.9–2.3 band (plus the fixed-size
    // runtime, which dominates for tiny programs — so just sanity
    // bound it here; the gcc-sized measurement is the E6 bench).
    assert!(prog.expansion.factor() > 1.5);
    // Time dilation: traced run executes many times more instructions.
    assert!(traced > 5 * orig, "traced={traced} orig={orig}");
}

#[test]
fn original_epoxie_trace_matches_cpu_simulator() {
    let (_prog, traced, orig) = check_roundtrip(torture_program(), Mode::Original);
    assert!(traced > 2 * orig);
}

/// The negative control: the check is not vacuous. Dropping any one
/// trace word, or moving one data address, makes the parsed stream
/// differ from the reference run.
#[test]
fn one_damaged_trace_word_fails_the_check() {
    let prog = build_traced(
        &torture_program(),
        Layout::user(),
        "main",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .expect("build_traced");
    let reference = reference_stream(&prog, 5_000_000);
    let words = run_traced(&prog, 200_000_000, |_, _| false).words;
    assert_eq!(check_trace(&prog, &words, &reference), Ok(()));
    for k in 0..words.len() {
        let mut dropped = words.clone();
        dropped.remove(k);
        assert!(
            check_trace(&prog, &dropped, &reference).is_err(),
            "dropping word {k} of {} went unseen",
            words.len()
        );
    }
    // The first store's address word, moved to the next word: the
    // streams differ at that store and nowhere before it.
    let (at, addr) = reference
        .iter()
        .enumerate()
        .find_map(|(at, r)| match *r {
            Ref::S(addr) => Some((at, addr)),
            _ => None,
        })
        .expect("the program stores");
    let mut moved = words.clone();
    let k = moved
        .iter()
        .position(|&w| w == addr)
        .expect("its trace word");
    moved[k] ^= 4;
    assert_eq!(
        check_trace(&prog, &moved, &reference),
        Err(Mismatch::Diverged {
            at,
            reference: Some(Ref::S(addr)),
            parsed: Some(Ref::S(addr ^ 4)),
        })
    );
}

#[test]
fn flush_traps_preserve_trace_contents() {
    // A long loop guarantees multiple buffer flushes.
    let mut a = Asm::new("long");
    a.global_label("main");
    a.la(T0, "buf");
    a.li(T1, 30_000);
    a.label("loop");
    a.sw(T1, 0, T0);
    a.lw(T2, 0, T0);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "loop");
    a.nop();
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(16);
    let prog = build_traced(
        &[a.finish()],
        Layout::user(),
        "main",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .unwrap();
    let reference = reference_stream(&prog, 50_000_000);
    let run = run_traced(&prog, 500_000_000, |_, _| false);
    assert!(
        run.flushes > 2,
        "expected multiple flushes, got {}",
        run.flushes
    );
    assert_eq!(check_trace(&prog, &run.words, &reference), Ok(()));
}

#[test]
fn expansion_factor_band_for_large_program() {
    // A larger program dilutes the fixed runtime: growth must land in
    // the paper's band for modified epoxie and be much larger for the
    // original inline mode.
    // Realistic block shape: ~4–5 instructions per block, ~40% memory
    // density (what the paper's 1.9–2.3 band reflects).
    let mut a = Asm::new("big");
    a.global_label("main");
    a.la(S0, "buf");
    for i in 0..2000i32 {
        a.label(&format!("l{i}"));
        a.sw(T0, ((i % 64) * 4) as i16, S0);
        a.lw(T1, ((i % 64) * 4) as i16, S0);
        a.addu(T2, T2, T1);
        a.bne(T0, ZERO, &format!("l{}", i + 1));
        a.nop();
    }
    a.label("l2000");
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(512);
    let objs = vec![a.finish()];
    let modified = build_traced(
        &objs,
        Layout::user(),
        "main",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .unwrap();
    let original = build_traced(
        &objs,
        Layout::user(),
        "main",
        Mode::Original,
        FullPolicy::Syscall,
    )
    .unwrap();
    let mf = modified.expansion.factor();
    let of = original.expansion.factor();
    assert!((1.8..=2.6).contains(&mf), "modified factor {mf}");
    assert!(of > 3.5, "original factor {of}");
    assert!(of > mf + 1.0);
}
