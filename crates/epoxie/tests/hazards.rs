//! Unit tests of the instrumenter's §3.2 hazard machinery: each
//! Figure-2 special case is instrumented, executed, and its parsed
//! trace compared against the machine's reference trace.

use wrl_epoxie::{
    build_traced, check_trace, instrument_object, reference_run, run_traced, FullPolicy, Mode,
    RuntimeSyms,
};
use wrl_isa::asm::Asm;
use wrl_isa::link::Layout;
use wrl_isa::reg::*;
use wrl_isa::{decode, Inst};
use wrl_machine::StopEvent;

/// Builds, runs both ways, and asserts stream equality.
fn roundtrip(body: impl FnOnce(&mut Asm)) {
    let mut a = Asm::new("case");
    a.global_label("main");
    a.la(SP, "stack_top");
    body(&mut a);
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(256);
    a.space(1024);
    a.label("stack_top");
    a.word(0);
    let objs = [a.finish()];
    let prog = build_traced(
        &objs,
        Layout::user(),
        "main",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .expect("instruments");

    let (reference, stop) = reference_run(&prog.orig.exe, 1_000_000, |_, _| false);
    assert!(matches!(stop, StopEvent::Break(_)));
    let run = run_traced(&prog, 100_000_000, |_, _| false);
    assert!(matches!(run.stop, StopEvent::Break(_)));
    assert_eq!(check_trace(&prog, &run.words, &reference), Ok(()));
}

#[test]
fn store_reading_ra_gets_dummy_store() {
    // Figure 2's i+1: `sw ra,20(sp)` cannot sit in the memtrace delay
    // slot; the rewriter plants `sw zero,20(sp)` there instead.
    roundtrip(|a| {
        a.li(RA, 0x1234);
        a.addiu(SP, SP, -24);
        a.sw(RA, 20, SP);
        a.lw(T0, 20, SP);
        a.addiu(SP, SP, 24);
    });
}

#[test]
fn load_into_ra_is_hazard() {
    roundtrip(|a| {
        a.la(T0, "buf");
        a.li(T1, 0x4321);
        a.sw(T1, 8, T0);
        a.lw(RA, 8, T0); // writes ra: must not be un-done by memtrace
        a.sw(RA, 12, T0); // and the stored value must be the loaded one
    });
}

#[test]
fn load_clobbering_its_base() {
    roundtrip(|a| {
        a.la(T0, "buf");
        a.la(T1, "buf");
        a.sw(T1, 0, T0); // buf[0] = &buf
        a.lw(T0, 0, T0); // t0 = *t0 — the address must be traced pre-load
        a.lw(T2, 0, T0);
    });
}

#[test]
fn ra_move_mid_block_keeps_shadow_in_sync() {
    roundtrip(|a| {
        a.li(T0, 0x00aa);
        a.move_(RA, T0); // non-load write to ra
        a.la(T1, "buf");
        a.sw(RA, 4, T1); // traced store must record ra = 0xaa
        a.lw(T2, 4, T1);
    });
}

#[test]
fn base_register_is_ra() {
    roundtrip(|a| {
        a.la(RA, "buf");
        a.li(T0, 7);
        a.sw(T0, 16, RA); // memtrace must fetch ra from the shadow
        a.lw(T1, 16, RA);
    });
}

#[test]
fn memory_op_in_taken_branch_delay_slot_is_hoisted() {
    roundtrip(|a| {
        a.la(T0, "buf");
        a.li(T1, 3);
        a.label("top");
        a.addiu(T1, T1, -1);
        a.bne(T1, ZERO, "top");
        a.sw(T1, 0, T0); // the memory op lives in the delay slot
        a.lw(T2, 0, T0);
    });
}

#[test]
fn stolen_register_in_branch_condition() {
    roundtrip(|a| {
        a.li(S5, 2); // stolen register as loop counter
        a.label("top");
        a.addiu(S5, S5, -1);
        a.bne(S5, ZERO, "top"); // branch reads the shadow
        a.nop();
        a.la(T0, "buf");
        a.sw(S5, 0, T0);
    });
}

#[test]
fn unsafe_delay_slot_is_rejected() {
    // jr ra with a slot that *loads into ra* cannot be hoisted.
    let mut a = Asm::new("bad");
    a.global_label("main");
    a.jal("f");
    a.nop();
    a.break_(0);
    a.global_label("f");
    a.jr(RA);
    a.lw(RA, 0, SP); // slot writes the register the jump reads
    let err = instrument_object(&a.finish(), Mode::Modified, &RuntimeSyms::default());
    assert!(err.is_err(), "must reject the unsafe slot");
}

#[test]
fn protected_regions_are_copied_verbatim() {
    let mut a = Asm::new("prot");
    a.global_label("main");
    a.begin_uninstrumented();
    a.la(T0, "buf");
    a.sw(T0, 0, T0);
    a.end_uninstrumented();
    a.jr(RA);
    a.nop();
    a.data();
    a.label("buf");
    a.space(8);
    let src = a.finish();
    let out = instrument_object(&src, Mode::Modified, &RuntimeSyms::default()).unwrap();
    // Protected words appear unchanged at the start.
    for (k, w) in src.text.iter().take(3).enumerate() {
        assert_eq!(out.obj.text[k], *w);
    }
    // And no record covers them.
    assert!(out.records.iter().all(|r| r.orig_off >= 12));
}

#[test]
fn trace_word_counts_match_table() {
    // The `li zero,n` count equals 1 + mem ops for every block.
    let w = wrl_workloads::by_name("compress").unwrap();
    let prog = build_traced(
        &w.objects,
        Layout::user(),
        "__start",
        Mode::Modified,
        FullPolicy::Syscall,
    )
    .unwrap();
    let mut checked = 0;
    for (&id, info) in prog.table.iter() {
        // id is the jal's return address; the delay-slot word at id-4
        // is the li zero,n.
        let w = prog.instr.exe.text_word(id - 4).expect("delay slot");
        match decode(w).unwrap() {
            Inst::Addiu { rt, rs, imm } => {
                assert_eq!(rt.0, 0);
                assert_eq!(rs.0, 0);
                assert_eq!(imm as u32, info.trace_words(), "block {id:#x}");
            }
            other => panic!("expected li zero,n at {id:#x}, got {other:?}"),
        }
        checked += 1;
    }
    assert!(checked > 60, "only {checked} blocks checked");
}
