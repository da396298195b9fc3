//! §4.3's reference-counting validation: "Reference counting tools
//! were used to make a dynamic count of the number of times each
//! instruction in the kernel was executed. In this way it was
//! possible to identify anomalous system activity caused by errors in
//! the tracing system."
//!
//! We run the *uninstrumented* binary counting the machine's fetch
//! events per address, derive the same per-instruction histogram from
//! the *parsed trace* of the instrumented run, and require them to
//! agree exactly — per-instruction-granularity validation on top of
//! the stream-equality check.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use systrace::epoxie::{build_traced, run_traced, FullPolicy, Mode};
use systrace::isa::link::Layout;
use systrace::machine::{Config, Machine, RefCounter, RefEvent, StopEvent};
use systrace::trace::{Space, TraceParser, TraceSink};

struct Histogram(HashMap<u32, u64>);

impl TraceSink for Histogram {
    fn irefs(&mut self, vaddr: u32, n: u32, _s: Space, _idle: bool) {
        for i in 0..n {
            *self.0.entry(vaddr + 4 * i).or_insert(0) += 1;
        }
    }
    fn dref(&mut self, _v: u32, _s: bool, _w: systrace::isa::Width, _sp: Space) {}
}

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

    // Reference counts from the uninstrumented run.
    let mut m = Machine::new(Config::bare(), vec![]);
    m.load_executable(&prog.orig.exe);
    m.set_pc(prog.orig.exe.entry);
    let reference = Rc::new(RefCell::new(RefCounter::new()));
    let counter = Rc::clone(&reference);
    m.set_tracer(Some(Box::new(move |e| {
        if let RefEvent::Ifetch { vaddr, .. } = e {
            counter.borrow_mut().bump(vaddr);
        }
    })));
    let mut env = systrace::workloads::HostEnv::new(w.files.iter().cloned());
    env.brk = prog.orig.exe.brk();
    loop {
        match m.run(2_000_000_000) {
            StopEvent::Syscall(0) => {
                if !env.handle(&mut m) {
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let reference = reference.borrow();

    // Trace-derived counts from the instrumented run.
    let mut env2 = systrace::workloads::HostEnv::new(w.files.iter().cloned());
    env2.brk = prog.orig.exe.brk();
    let run = run_traced(&prog, 2_000_000_000, move |m, _| env2.handle(m));
    let mut parser = TraceParser::new(Arc::new(systrace::trace::BbTable::new()));
    parser.set_user_table(0, Arc::new(prog.table.clone()));
    let mut hist = Histogram(HashMap::new());
    parser.parse_all(&run.words, &mut hist);
    assert_eq!(parser.stats.errors, 0);

    // Exact per-instruction agreement across the whole text segment.
    let mut compared = 0u64;
    for va in (prog.orig.exe.text_base..prog.orig.exe.text_end()).step_by(4) {
        let want = reference.count(va);
        let got = hist.0.get(&va).copied().unwrap_or(0);
        assert_eq!(got, want, "count mismatch at {va:#010x}");
        compared += u64::from(want > 0);
    }
    assert!(compared > 150, "only {compared} live instructions compared");
    // Hot-spot identification works: the hottest instruction is in
    // the parser's inner loop and executed thousands of times.
    let (&hot, &n) = hist.0.iter().max_by_key(|(_, &n)| n).unwrap();
    assert!(n > 5_000, "hottest instruction only ran {n} times");
    assert!(hot >= prog.orig.exe.text_base && hot < prog.orig.exe.text_end());
}
