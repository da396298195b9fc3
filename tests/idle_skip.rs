//! `Machine::run` jumps whole iterations of an idle loop that spins
//! with no side effect; `Machine::step` executes every instruction and
//! is the reference. On the two untraced systems that idle the most —
//! sed under Ultrix (56% of its instructions in the idle loop) and
//! compress under Ultrix (23%) — a whole run, and a run sliced into
//! budgets that end inside the spin, must leave what a `step` loop
//! leaves: every counter, Random, the 64 TLB entries, the PC and the
//! registers. Once either has halted, both answer the halt again and
//! execute nothing.

use std::cell::Cell;
use std::rc::Rc;

use systrace::kernel::{build_system, KernelConfig, System};
use systrace::machine::{Machine, RefEvent, StopEvent};

/// An odd budget: the idle loop's iterations are six instructions, so
/// slices end at every offset into the spin.
const SLICE: u64 = 9_999;

fn boot(workload: &str) -> System {
    let w = systrace::workloads::by_name(workload).expect("a known workload");
    build_system(&KernelConfig::ultrix(), &[&w])
}

/// What a run leaves that the next instruction could read.
fn seen(m: &Machine) -> String {
    let entries: Vec<(u32, u32)> = m
        .tlb
        .entries()
        .iter()
        .map(|e| (e.entry_hi(), e.entry_lo()))
        .collect();
    let c = &m.cpu;
    format!(
        "{:?}\nrandom={} pc={:#x} next_pc={:#x} regs={:?} fregs={:?} hi={} lo={} fcc={}\ntlb={entries:?}",
        m.counters, m.tlb.random(), c.pc, c.next_pc, c.regs, c.fregs, c.hi, c.lo, c.fcc
    )
}

/// Steps `m` until it has retired `insts` instructions.
fn step_to(m: &mut Machine, insts: u64) -> Option<StopEvent> {
    let mut last = None;
    while m.counters.insts() < insts {
        last = m.step();
    }
    last
}

/// Whole and sliced runs of `workload` against one stepped reference.
fn run_is_step(workload: &str) {
    let (mut whole, mut sliced, mut stepped) = (boot(workload), boot(workload), boot(workload));
    let whole = &mut whole.machine;
    assert!(matches!(whole.run(u64::MAX / 2), StopEvent::Halted(_)));
    assert!(
        whole.skipped_idle_iterations() > 0,
        "{workload}: no idle skip"
    );

    let (m, reference) = (&mut sliced.machine, &mut stepped.machine);
    let (mut slices, mut mid_spin) = (0, 0);
    let idle = sliced.idle_range;
    loop {
        let e = m.run(SLICE);
        slices += 1;
        let pc = m.cpu.pc;
        mid_spin += u64::from(idle.0 < pc && pc < idle.1);
        let r = step_to(reference, m.counters.insts());
        assert_eq!(seen(m), seen(reference), "{workload}: slice {slices}");
        match e {
            StopEvent::Budget => {}
            StopEvent::Halted(_) => {
                assert!(matches!(r, Some(StopEvent::Halted(_))));
                break;
            }
            other => panic!("{workload}: {other:?}"),
        }
    }
    assert_eq!(seen(whole), seen(reference), "{workload}: whole run");
    assert!(
        mid_spin > 0,
        "{workload}: no budget ended inside the idle loop"
    );
    assert!(
        m.skipped_idle_iterations() > 0,
        "{workload}: no idle skip when sliced"
    );
}

#[test]
fn run_leaves_what_step_leaves_on_sed_ultrix() {
    run_is_step("sed");
}

#[test]
fn run_leaves_what_step_leaves_on_compress_ultrix() {
    run_is_step("compress");
}

/// With a reference tracer installed, `run` skips nothing: the tracer
/// sees every fetch a `step` loop shows it, idle ones included.
#[test]
fn a_reference_tracer_sees_every_fetch_through_run() {
    let fetches = |by_step: bool| {
        let mut sys = boot("sed");
        let n = Rc::new(Cell::new(0u64));
        let seen = Rc::clone(&n);
        sys.machine.set_tracer(Some(Box::new(move |e| {
            if let RefEvent::Ifetch { .. } = e {
                seen.set(seen.get() + 1);
            }
        })));
        let m = &mut sys.machine;
        if by_step {
            while !matches!(m.step(), Some(StopEvent::Halted(_))) {}
        } else {
            assert!(matches!(m.run(u64::MAX / 2), StopEvent::Halted(_)));
        }
        assert_eq!(m.skipped_idle_iterations(), 0);
        (n.get(), m.counters.idle_insts)
    };
    let (by_run, by_step) = (fetches(false), fetches(true));
    assert_eq!(by_run, by_step);
    assert!(by_run.1 > 1_000_000, "sed-Ultrix idles: {by_run:?}");
}

/// A halt latches through `step` as through `run`: once `step` has
/// returned it, every later `step` or `run` returns the same event
/// and leaves the machine as the halt did.
#[test]
fn a_halt_reached_by_step_latches() {
    let mut sys = boot("yacc");
    let m = &mut sys.machine;
    let halt = loop {
        if let Some(e @ StopEvent::Halted(_)) = m.step() {
            break e;
        }
    };
    let at_halt = seen(m);
    for _ in 0..3 {
        assert_eq!(m.step(), Some(halt));
        assert_eq!(m.run(1_000), halt);
    }
    assert_eq!(seen(m), at_halt, "nothing ran after the halt");
}
