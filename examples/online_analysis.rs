//! Online trace analysis — the paper's §3.3 workflow, end to end.
//!
//! The paper's analysis program does not archive the trace: it is a
//! *host* process that drains the in-kernel buffer whenever the
//! kernel rings the analysis doorbell, while every traced process is
//! suspended ("traced processes are inactive during trace
//! analysis... trace data is analyzed incrementally"). Here the
//! analysis program is a closure handed to [`System::run_with`]: at
//! each doorbell it feeds the drained words to the driver — parser
//! and memory-system simulator inline — and reports running totals,
//! so the analysis never waits for the whole trace.
//!
//! Usage: `online_analysis [workload]` (default: compress).
//!
//! [`System::run_with`]: systrace::kernel::System::run_with

use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::MemSim;
use systrace::trace::Driver;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".into());
    let w = systrace::workloads::by_name(&name).expect("unknown workload");

    // A deliberately small in-kernel buffer (1 MB) so the doorbell
    // rings several times; the paper used 64 MB on a 96 MB machine.
    let cfg = KernelConfig {
        ktrace_bytes: 1 << 20,
        ..KernelConfig::ultrix().traced()
    };
    let mut sys = build_system(&cfg, &[&w]);

    // The analysis program: a parser wired to this system's basic
    // block tables, feeding the memory-system simulator.
    let mut driver = Driver::new(sys.parser(), MemSim::new(sys.pagemap.clone()));

    println!("online analysis of `{name}` on traced Ultrix (1 MB buffer)\n");
    println!("phase |   words | cum insts | cum dmiss | cum utlb | kern%");
    println!("{}", "-".repeat(62));
    let mut phase = 0u32;
    let run = sys.run_with(6_000_000_000, |chunk| {
        phase += 1;
        driver.feed(chunk);
        let s = &driver.sink().stats;
        println!(
            "{:>5} | {:>7} | {:>9} | {:>9} | {:>8} | {:>4.1}%",
            phase,
            chunk.len(),
            s.insts(),
            s.dmisses,
            s.utlb_misses,
            100.0 * s.kernel_irefs as f64 / s.insts().max(1) as f64,
        );
    });
    let (report, sim) = driver.finish();

    println!("{}", "-".repeat(62));
    println!(
        "halted with code {}; {} analysis phases, {} total words",
        run.exit_code, run.drains, report.words
    );
    println!(
        "final: {} insts, user CPI {:.2}, kernel CPI {:.2}, {} parse errors",
        sim.stats.insts(),
        sim.stats.user_cpi(),
        sim.stats.kernel_cpi(),
        report.parse.errors
    );
    assert_eq!(report.parse.errors, 0, "trace should parse cleanly");
}
