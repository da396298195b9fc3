//! §4.3: in-kernel buffer size vs trace "dirt".
//!
//! "Each time the tracing system changes from trace-generation mode
//! to trace-analysis mode, a certain amount of 'dirt' is introduced
//! into the trace … The approach taken to minimize the inaccuracies
//! introduced by these transitions was to be sure they are rare, by
//! making the in-kernel trace buffer large."

use systrace::kernel::{build_system, KernelConfig};

fn main() {
    let w = systrace::workloads::by_name("tomcatv").unwrap();
    println!("In-kernel buffer size vs generation->analysis transitions (tomcatv, Ultrix)");
    println!(
        "{:>10} | {:>11} | {:>13} | {:>16}",
        "buffer", "transitions", "trace words", "insts/analysis"
    );
    println!("{:-<60}", "");
    for mb in [1u32, 2, 4, 8, 14] {
        let mut cfg = KernelConfig::ultrix().traced();
        cfg.ktrace_bytes = mb << 20;
        let mut sys = build_system(&cfg, &[&w]);
        let run = sys.run(8_000_000_000);
        let mut parser = sys.parser();
        parser.parse_all(&run.trace_words, &mut ());
        assert_eq!(parser.stats.errors, 0);
        let insts = parser.stats.user_irefs + parser.stats.kernel_irefs;
        println!(
            "{:>7} MB | {:>11} | {:>13} | {:>16}",
            mb,
            parser.stats.mode_transitions,
            run.trace_words.len(),
            insts / (parser.stats.mode_transitions + 1),
        );
    }
    println!("{:-<60}", "");
    println!("the paper's 64 MB buffer allowed ~32M instructions between analysis phases;");
    println!("our scaled runs show the same inverse relationship.");
}
