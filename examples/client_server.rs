//! Client/server tracing under the Mach-like system (§3.6).
//!
//! The same workload binary runs unchanged, but its file system calls
//! now cross address spaces into the user-level UNIX server. The
//! system trace shows three interleaved activity streams — client,
//! server, and kernel — and the Mach-specific effects the paper
//! documents: far more user-mode (mapped) execution and therefore far
//! more user-TLB pressure than the monolithic system.

use systrace::kernel::{build_system, KernelConfig};
use systrace::trace::Space;

fn main() {
    let w = systrace::workloads::by_name("sed").unwrap();

    // Ultrix first, for contrast.
    let um = systrace::run_measured(&KernelConfig::ultrix(), &w);

    let mut sys = build_system(&KernelConfig::mach().traced(), &[&w]);
    let run = sys.run(4_000_000_000);
    assert_eq!(run.exit_code, um.exit_code, "same answer on both systems");

    let asids = sys.asids();
    println!("processes: {asids:?}");

    let mut parser = sys.parser();
    let mut sink = systrace::trace::EventVec::default();
    parser.parse_all(&run.trace_words, &mut sink);
    assert_eq!(parser.stats.errors, 0);

    let client = asids["sed"];
    let server = asids["uxserver"];
    let count = |a: u8| sink.fetches().filter(|r| r.1 == Space::User(a)).count();
    println!("instruction references by activity stream:");
    println!("  client (sed)      : {:>9}", count(client));
    println!("  UNIX server       : {:>9}", count(server));
    println!("  kernel            : {:>9}", parser.stats.kernel_irefs);
    println!(
        "context switches: {} (client <-> server round trips per file operation)",
        parser.stats.ctx_switches
    );

    let mm = systrace::run_measured(&KernelConfig::mach(), &w);
    println!("\nuser TLB misses, untraced hardware counter:");
    println!(
        "  Ultrix: {:>6}   Mach: {:>6}",
        um.utlb_misses, mm.utlb_misses
    );
    println!("(the paper's Table 3 shows the same direction: Mach's mapped user-level");
    println!(" server multiplies user-TLB pressure for small workloads)");
}
