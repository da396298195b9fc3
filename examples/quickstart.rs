//! Quickstart: instrument a program with epoxie, run it, and parse
//! the address trace back into a reference stream.
//!
//! This is the user-level half of the paper's pipeline in ~60 lines:
//! write a program against the W3K assembler, let epoxie rewrite its
//! object file at link time, execute the instrumented binary on the
//! machine simulator, and reconstruct the original binary's
//! interleaved instruction/data reference stream from the one-word
//! trace entries.

use std::sync::Arc;

use systrace::epoxie::{build_traced, run_traced, FullPolicy, Mode};
use systrace::isa::asm::Asm;
use systrace::isa::link::Layout;
use systrace::isa::reg::*;
use systrace::trace::{BbTable, CollectSink, Space, TraceParser};

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

    // 4. Parse the trace back into the interleaved reference stream.
    struct Merged(Vec<String>, u64, u64);
    impl systrace::trace::TraceSink for Merged {
        fn irefs(&mut self, va: u32, n: u32, _s: Space, _idle: bool) {
            for i in 0..n {
                self.0.push(format!("I {:#010x}", va + 4 * i));
            }
            self.1 += u64::from(n);
        }
        fn dref(&mut self, va: u32, store: bool, _w: systrace::isa::Width, _s: Space) {
            self.0
                .push(format!("{} {va:#010x}", if store { "S" } else { "L" }));
            self.2 += 1;
        }
    }
    let mut parser = TraceParser::new(Arc::new(BbTable::new()));
    parser.set_user_table(0, Arc::new(prog.table));
    let mut sink = Merged(Vec::new(), 0, 0);
    parser.parse_all(&run.words, &mut sink);
    assert_eq!(parser.stats.errors, 0);

    println!("first sixteen references of the reconstructed, interleaved stream:");
    for line in sink.0.iter().take(16) {
        println!("  {line}");
    }
    println!(
        "total: {} instruction refs, {} data refs — all mapped to the \
         uninstrumented binary's addresses",
        sink.1, sink.2
    );
    let _ = CollectSink::default();
}
