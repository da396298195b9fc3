//! §4.1: time and memory dilation.
//!
//! Measures the traced system's slowdown factor, checks that the
//! 1/12-rate clock delivers tick-per-work parity with the untraced
//! system, and shows why the UTLB handler must be synthesized rather
//! than traced (traced text is ~2x, so traced-system TLB behaviour
//! differs from the untraced system's).

use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::MemSim;

fn main() {
    println!("Time dilation and clock scaling (Ultrix)");
    println!(
        "{:9} | {:>8} | {:>9} {:>9} | {:>7} {:>7} | {:>5} {:>5}",
        "", "slowdown", "unt tick", "trc tick", "unt TLB", "trc TLB", "uKTLB", "tKTLB"
    );
    println!("{:-<80}", "");
    for w in wrl_bench::selected_workloads() {
        let m = systrace::run_measured(&KernelConfig::ultrix(), &w);
        let mut tsys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
        let trun = tsys.run(systrace::SYSTEM_BUDGET);
        assert_eq!(trun.exit_code, m.exit_code);
        let t = &tsys.machine.counters;
        println!(
            "{:9} | {:>7.1}x | {:>9} {:>9} | {:>7} {:>7} | {:>5} {:>5}",
            w.name,
            t.cycles as f64 / m.cycles.max(1) as f64,
            m.clock_ticks,
            tsys.machine.dev.clock_ticks,
            m.utlb_misses,
            t.utlb_misses,
            m.ktlb_misses,
            t.ktlb_misses,
        );
    }
    println!("{:-<80}", "");
    println!("KTLB misses stay in the same band traced vs untraced: text growth never");
    println!("changes the number of page-table pages (each maps 4 MB), the §4.1 argument.");
    println!("trc ticks ~ unt ticks x slowdown/12 (the divisor compensates per-work tick rate);");
    println!("trc TLB differs from unt TLB because instrumented text is ~2x — hence §4.1's");
    println!("UTLB-miss *synthesis* in the simulator instead of tracing the real handler.");

    // Synthesis ablation: predicted time with and without synthesis.
    let w = systrace::workloads::by_name("compress").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(systrace::SYSTEM_BUDGET);
    let sim = || MemSim::new(sys.pagemap.clone());
    for (label, mut sim) in [
        ("with synthesis", sim()),
        ("without", sim().without_utlb_synthesis()),
    ] {
        let mut parser = sys.parser();
        parser.parse_all(&run.trace_words, &mut sim);
        println!(
            "compress {label:>16}: predicted UTLB misses = {:>7}, synthesized handler irefs = {}",
            sim.stats.utlb_misses, sim.stats.synth_irefs
        );
    }
}
