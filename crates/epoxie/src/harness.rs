//! A bare-machine harness for traced user programs.
//!
//! Runs an instrumented binary on a kernel-less machine, playing the
//! kernel's part of the tracing contract: it initialises the stolen
//! registers and the bookkeeping area, services the trace-flush trap
//! by draining the per-process buffer (standing in for the copy into
//! the in-kernel buffer), and drains the remainder at program exit.
//! Used by unit tests throughout, and home of the §4.3 validation
//! ("the correctness of trace generated by epoxie instrumentation was
//! validated by comparing epoxie trace for deterministic user programs
//! to trace from a CPU simulator"): [`reference_run`] is the CPU
//! simulator's half, [`check_trace`] parses a traced run's words back
//! and compares them with it, reference for reference.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::build::TracedProgram;
use wrl_isa::Executable;
use wrl_machine::{Config, Machine, RefEvent as MachineRef, StopEvent};
use wrl_trace::layout::{bk, trapcode, user, XREG1, XREG3};
use wrl_trace::{BbTable, EventVec, ParseError, RefEvent, TraceParser};

/// Result of a traced bare run.
pub struct TracedRun {
    /// The raw trace words, in buffer order.
    pub words: Vec<u32>,
    /// Number of flush traps serviced.
    pub flushes: u64,
    /// The machine after the run (counters, registers).
    pub machine: Machine,
    /// The stop event that ended the run.
    pub stop: StopEvent,
}

/// A bare machine with `exe` loaded, about to run its entry point.
fn bare_machine(exe: &Executable) -> Machine {
    let mut m = Machine::new(Config::bare(), vec![]);
    m.load_executable(exe);
    m.set_pc(exe.entry);
    m
}

/// Drains the per-process trace buffer into `words` and resets the
/// trace pointer (what the kernel's flush path does).
fn drain_buffer(m: &mut Machine, words: &mut Vec<u32>) {
    let ptr = m.cpu.regs[XREG1.idx()];
    let mut a = user::TRACE_BUF;
    while a < ptr {
        words.push(m.mem.read_word(a));
        a += 4;
    }
    m.cpu.regs[XREG1.idx()] = user::TRACE_BUF;
}

/// Runs `m` until a stop `on_syscall` does not service or `max_insts`
/// instructions have run. `on_syscall` gets the machine and the
/// syscall code and returns `true` to continue.
fn run_serviced(
    m: &mut Machine,
    max_insts: u64,
    mut on_syscall: impl FnMut(&mut Machine, u32) -> bool,
) -> StopEvent {
    let mut budget = max_insts;
    loop {
        let before = m.counters.insts();
        let ev = m.run(budget);
        budget = budget.saturating_sub(m.counters.insts() - before);
        match ev {
            StopEvent::Syscall(code) if on_syscall(m, code) => {}
            other => return other,
        }
        if budget == 0 {
            return StopEvent::Budget;
        }
    }
}

/// Runs an instrumented program to completion on a bare machine.
///
/// `syscall_handler` services non-flush syscalls (workload I/O); it
/// gets the machine and the syscall code and returns `true` to
/// continue or `false` to stop the run.
pub fn run_traced(
    prog: &TracedProgram,
    max_insts: u64,
    mut syscall_handler: impl FnMut(&mut Machine, u32) -> bool,
) -> TracedRun {
    let mut m = bare_machine(&prog.instr.exe);
    // The stolen registers and the bookkeeping area, which the kernel
    // sets up for real processes. The soft limit leaves slack for one
    // maximal block.
    m.cpu.regs[XREG1.idx()] = user::TRACE_BUF;
    m.cpu.regs[XREG3.idx()] = user::BOOKKEEPING;
    let buf_end = user::TRACE_BUF + user::TRACE_BUF_BYTES;
    m.mem
        .write_word(user::BOOKKEEPING + bk::BUF_END as u32, buf_end - 512);
    m.mem
        .write_word(user::BOOKKEEPING + bk::HARD_END as u32, buf_end);
    let mut words = Vec::new();
    let mut flushes = 0;
    let stop = run_serviced(&mut m, max_insts, |m, code| {
        if code != trapcode::TRACE_FLUSH {
            return syscall_handler(m, code);
        }
        flushes += 1;
        drain_buffer(m, &mut words);
        true
    });
    drain_buffer(&mut m, &mut words);
    TracedRun {
        words,
        flushes,
        machine: m,
        stop,
    }
}

/// One reference in §4.3's comparison: its kind and its address in
/// the uninstrumented binary. Whether it ran in user mode is not
/// compared: a bare machine starts with Status = 0, so the reference
/// run is in kernel mode, while the parser attributes a traced
/// program's references to `Space::User(0)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ref {
    /// An instruction fetch.
    I(u32),
    /// A data load.
    L(u32),
    /// A data store.
    S(u32),
}

/// The CPU simulator's half of §4.3: runs the *uninstrumented* `exe`
/// on a bare machine under the machine's reference tracer, servicing
/// syscalls as [`run_traced`] does, and returns every reference it
/// made, in order, with the stop that ended the run.
pub fn reference_run(
    exe: &Executable,
    max_insts: u64,
    syscall_handler: impl FnMut(&mut Machine, u32) -> bool,
) -> (Vec<Ref>, StopEvent) {
    let mut m = bare_machine(exe);
    let refs = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&refs);
    m.set_tracer(Some(Box::new(move |e| {
        sink.borrow_mut().push(match e {
            MachineRef::Ifetch { vaddr, .. } => Ref::I(vaddr),
            MachineRef::Load { vaddr, .. } => Ref::L(vaddr),
            MachineRef::Store { vaddr, .. } => Ref::S(vaddr),
        })
    })));
    let stop = run_serviced(&mut m, max_insts, syscall_handler);
    m.set_tracer(None);
    (refs.take(), stop)
}

/// Parses the words of a [`run_traced`] of `prog` back with its
/// table: every event, or the parse errors.
pub fn parse_trace(prog: &TracedProgram, words: &[u32]) -> Result<EventVec, Vec<ParseError>> {
    let mut parser = TraceParser::new(Arc::new(BbTable::new()));
    parser.set_user_table(0, Arc::new(prog.table.clone()));
    let mut events = EventVec::default();
    parser.parse_all(words, &mut events);
    match parser.stats.errors {
        0 => Ok(events),
        _ => Err(parser.errors),
    }
}

/// The references of parsed `events` in the order the program made
/// them: each run of fetches expanded, switches and mode transitions
/// left out.
fn refs(events: &EventVec) -> impl Iterator<Item = Ref> + '_ {
    events.0.iter().flat_map(|e| {
        let (vaddr, n, kind): (_, _, fn(u32) -> Ref) = match *e {
            RefEvent::Iref { vaddr, n, .. } => (vaddr, n, Ref::I),
            RefEvent::Dref { vaddr, store, .. } => (vaddr, 1, if store { Ref::S } else { Ref::L }),
            RefEvent::CtxSwitch(_) | RefEvent::ModeTransition(_) => (0, 0, Ref::I),
        };
        (0..n).map(move |i| kind(vaddr.wrapping_add(4 * i)))
    })
}

/// How a traced run fails §4.3's check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// The trace did not parse cleanly.
    Parse(Vec<ParseError>),
    /// The streams first differ at reference `at`; `None` is the end
    /// of the shorter one.
    Diverged {
        /// Position of the first difference.
        at: usize,
        /// The reference run's reference there.
        reference: Option<Ref>,
        /// The parsed trace's reference there.
        parsed: Option<Ref>,
    },
}

/// §4.3's check: the words of a [`run_traced`] of `prog`, parsed back,
/// must be reference for reference the [`reference_run`] of its
/// uninstrumented binary.
pub fn check_trace(prog: &TracedProgram, words: &[u32], reference: &[Ref]) -> Result<(), Mismatch> {
    let events = parse_trace(prog, words).map_err(Mismatch::Parse)?;
    let mut parsed = refs(&events);
    for at in 0..=reference.len() {
        let (want, got) = (reference.get(at).copied(), parsed.next());
        if want != got {
            return Err(Mismatch::Diverged {
                at,
                reference: want,
                parsed: got,
            });
        }
    }
    Ok(())
}
