//! Everything the machine counts, pinned: sed under Ultrix and yacc
//! under Mach, traced and untraced, run to halt, and yacc on the bare
//! machine (whose `syscall`s stop it and return to the host), against
//! values written down before the interpreter's hot path was last
//! rewritten.
//!
//! Each run pins every [`Counters`] field (through its `Debug` form,
//! so a new field fails here until it is pinned), the TLB's Random
//! register at exit, a digest of all 64 TLB entries at exit, and the
//! trace's word count and CRC. A `tlbwr` at a wrong Random overwrites
//! a different entry, so the entries digest holds Random at every
//! `tlbwr` the kernels ran, not only at the end.
//!
//! To reprint the table after a change that is *meant* to move the
//! machine: `cargo test --test machine_golden -- --ignored --nocapture`.

use systrace::kernel::{build_system, KernelConfig};
use systrace::machine::{Counters, Machine};
use systrace::store::crc32_words;

/// What one run leaves behind.
struct Pin {
    counters: Counters,
    random: usize,
    entries_crc: u32,
    words: usize,
    words_crc: u32,
}

fn run(workload: &str, cfg: KernelConfig) -> Pin {
    let w = systrace::workloads::by_name(workload).expect("a known workload");
    let mut sys = build_system(&cfg, &[&w]);
    let run = sys.run(8_000_000_000);
    pin(&sys.machine, &run.trace_words)
}

fn pin(m: &Machine, words: &[u32]) -> Pin {
    let regs: Vec<u32> = m
        .tlb
        .entries()
        .iter()
        .flat_map(|e| [e.entry_hi(), e.entry_lo()])
        .collect();
    Pin {
        counters: m.counters.clone(),
        random: m.tlb.random(),
        entries_crc: crc32_words(&regs),
        words: words.len(),
        words_crc: crc32_words(words),
    }
}

/// The five runs, by name.
fn runs() -> Vec<(&'static str, Pin)> {
    let yacc = systrace::workloads::by_name("yacc").expect("a known workload");
    vec![
        (
            "yacc-bare",
            pin(&systrace::workloads::run_bare(&yacc).machine, &[]),
        ),
        ("sed-ultrix", run("sed", KernelConfig::ultrix())),
        (
            "sed-ultrix-traced",
            run("sed", KernelConfig::ultrix().traced()),
        ),
        ("yacc-mach", run("yacc", KernelConfig::mach())),
        (
            "yacc-mach-traced",
            run("yacc", KernelConfig::mach().traced()),
        ),
    ]
}

fn render(name: &str, p: &Pin) -> String {
    format!(
        "{name}\n  {:?}\n  random={} entries_crc={:#010x} words={} words_crc={:#010x}\n",
        p.counters, p.random, p.entries_crc, p.words, p.words_crc
    )
}

const GOLDEN: &str = "\
yacc-bare
  Counters { user_insts: 0, kernel_insts: 968939, cycles: 1013269, icache_misses: 54, dcache_misses: 2890, uncached_ifetches: 0, uncached_data: 0, wb_stall_cycles: 0, fp_stall_cycles: 170, fp_stall_ideal: 170, utlb_misses: 0, ktlb_misses: 0, exceptions: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], interrupts: 0, loads: 131610, stores: 25221, idle_insts: 0 }
  random=36 entries_crc=0x392c6e3a words=0 words_crc=0x00000000
sed-ultrix
  Counters { user_insts: 738994, kernel_insts: 1385549, cycles: 2351226, icache_misses: 593, dcache_misses: 13791, uncached_ifetches: 0, uncached_data: 108, wb_stall_cycles: 8052, fp_stall_cycles: 87, fp_stall_ideal: 102, utlb_misses: 13, ktlb_misses: 2, exceptions: [43, 0, 4, 11, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0], interrupts: 43, loads: 75372, stores: 73339, idle_insts: 1185462 }
  random=48 entries_crc=0x22d73e2d words=0 words_crc=0x00000000
sed-ultrix-traced
  Counters { user_insts: 7357607, kernel_insts: 5366624, cycles: 13844666, icache_misses: 1083, dcache_misses: 72862, uncached_ifetches: 0, uncached_data: 97, wb_stall_cycles: 8327, fp_stall_cycles: 102, fp_stall_ideal: 102, utlb_misses: 45, ktlb_misses: 4, exceptions: [31, 0, 18, 31, 0, 0, 0, 0, 49, 0, 0, 0, 0, 0, 0, 0], interrupts: 31, loads: 2534324, stores: 1762517, idle_insts: 315670 }
  random=40 entries_crc=0xbcdfdfe3 words=456204 words_crc=0x7b584242
yacc-mach
  Counters { user_insts: 1048677, kernel_insts: 556884, cycles: 1889740, icache_misses: 549, dcache_misses: 9664, uncached_ifetches: 0, uncached_data: 35, wb_stall_cycles: 6330, fp_stall_cycles: 123436, fp_stall_ideal: 123447, utlb_misses: 14, ktlb_misses: 7, exceptions: [19, 0, 17, 4, 0, 0, 0, 0, 37, 0, 0, 0, 0, 0, 0, 0], interrupts: 19, loads: 176302, stores: 57412, idle_insts: 177564 }
  random=22 entries_crc=0x1235cba3 words=0 words_crc=0x00000000
yacc-mach-traced
  Counters { user_insts: 7296037, kernel_insts: 4628928, cycles: 14466718, icache_misses: 917, dcache_misses: 159672, uncached_ifetches: 0, uncached_data: 32, wb_stall_cycles: 7908, fp_stall_cycles: 123447, fp_stall_ideal: 123447, utlb_misses: 59, ktlb_misses: 12, exceptions: [15, 0, 34, 37, 0, 0, 0, 0, 51, 0, 0, 0, 0, 0, 0, 0], interrupts: 15, loads: 2164088, stores: 1500214, idle_insts: 48003 }
  random=18 entries_crc=0x5b2e2916 words=387054 words_crc=0x3c98adbd
";

#[test]
fn counters_and_tlb_match_the_committed_runs() {
    let got: String = runs().iter().map(|(n, p)| render(n, p)).collect();
    assert_eq!(got, GOLDEN);
}

#[test]
#[ignore = "prints the table GOLDEN holds"]
fn print_golden() {
    for (n, p) in runs() {
        print!("{}", render(n, &p));
    }
}
