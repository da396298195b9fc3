//! Runs the measured-vs-predicted validation for one workload on one
//! OS. Usage: `validate_one [workload] [ultrix|mach]`.

use systrace::kernel::KernelConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("sed");
    let os = args.get(2).map(String::as_str).unwrap_or("ultrix");
    let w = systrace::workloads::by_name(name).expect("unknown workload");
    let cfg = match os {
        "mach" => KernelConfig::mach(),
        _ => KernelConfig::ultrix(),
    };
    let row = systrace::validate(&cfg, &w);
    let m = &row.measured;
    let p = &row.predicted;
    println!("workload   : {} on {os}", row.workload);
    println!(
        "measured   : {:>10.4} s  ({} cycles, {} insts, {} kernel)",
        m.seconds, m.cycles, m.insts, m.kernel_insts
    );
    println!(
        "predicted  : {:>10.4} s  (cpu={:.0} mem={:.0} arith={:.0} io={:.0})",
        p.seconds,
        p.prediction.cpu_cycles,
        p.prediction.mem_stall_cycles,
        p.prediction.arith_stall_cycles,
        p.prediction.io_stall_cycles
    );
    println!("time error : {:>9.2} %", row.time_error_pct());
    println!(
        "utlb misses: measured {} predicted {}",
        m.utlb_misses, p.stats.utlb_misses
    );
    println!(
        "trace      : {} words, {} insts, dilation x{:.1}, {} parse errors",
        p.trace_words,
        p.stats.insts(),
        p.traced_machine_insts as f64 / p.stats.insts().max(1) as f64,
        p.parse_errors
    );
    println!(
        "idle       : measured {} insts, trace {} insts",
        m.idle_insts, p.stats.idle_insts
    );
}
