//! §3.4: the Tunix result — "kernel cycles per instruction (CPI) were
//! three times user CPI, and had a significant effect on overall CPI."
//! Regenerated from the trace-driven cache simulation, split by
//! address space.

use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::MemSim;

fn main() {
    println!("Kernel vs user CPI from trace-driven simulation (Ultrix)");
    println!(
        "{:9} | {:>8} {:>8} {:>7} | {:>6}",
        "", "user CPI", "kern CPI", "ratio", "kern%"
    );
    println!("{:-<50}", "");
    for w in wrl_bench::selected_workloads() {
        let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
        let run = sys.run(systrace::SYSTEM_BUDGET);
        let mut parser = sys.parser();
        let mut sim = MemSim::new(sys.pagemap.clone());
        parser.parse_all(&run.trace_words, &mut sim);
        let s = &sim.stats;
        println!(
            "{:9} | {:>8.2} {:>8.2} {:>6.2}x | {:>5.1}%",
            w.name,
            s.user_cpi(),
            s.kernel_cpi(),
            s.kernel_cpi() / s.user_cpi().max(0.01),
            100.0 * s.kernel_irefs as f64 / s.insts().max(1) as f64,
        );
    }
    println!("{:-<50}", "");
    println!("Tunix (paper): kernel CPI ~ 3x user CPI");
}
