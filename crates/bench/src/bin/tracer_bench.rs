//! One-pass N-sink throughput vs N dedicated passes (ROADMAP item
//! 3's cost argument): once the address stream exists, *analysis* is
//! cheap — but only if adding an analysis does not rerun the
//! decode+parse. The composed `wrl-tracer` stack feeds every sink
//! from one pass; this bench measures what that saves across the
//! twelve validation workloads.
//!
//! For each workload: one traced run, then the three window analyses
//! (sampled duty-cycle, working set, phase detection) run two ways —
//! three dedicated passes (a decode+parse per analysis) vs one
//! composed three-sink pass. The ratio is (3·parse + sinks) /
//! (parse + sinks), so it *falls* toward 1 as the parse gets cheap;
//! the acceptance bar is what holds at any parser speed: in
//! aggregate the one pass takes no longer than the three.

use std::time::{Duration, Instant};
use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::{PageMap, Policy};
use systrace::tracer::{analyze_words, build_stack};

const SPECS: [&str; 3] = ["sampled:4k:12k:7", "wset:4096", "phase:4096"];

fn pm() -> PageMap {
    PageMap::new(Policy::FirstFree { base_pfn: 0x2000 })
}

fn main() {
    let spec = SPECS.join(",");
    println!("One-pass 3-sink stack vs 3 dedicated passes ({spec})");
    println!(
        "{:9} | {:>10} | {:>10} {:>10} | {:>7} | {:>9}",
        "", "words", "dedicated", "one-pass", "speedup", "Mwords/s"
    );
    println!("{:-<68}", "");

    let mut total_words = 0u64;
    let mut total_dedicated = Duration::ZERO;
    let mut total_one = Duration::ZERO;
    for w in wrl_bench::selected_workloads() {
        let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
        let run = sys.run(6_000_000_000);
        let words = &run.trace_words;

        // Warm the caches once so neither side pays first-touch costs.
        let warm = analyze_words(sys.parser(), words, build_stack(&spec, &pm()).unwrap());
        assert_eq!(warm.failed(), 0);

        let t = Instant::now();
        for s in SPECS {
            let report = analyze_words(sys.parser(), words, build_stack(s, &pm()).unwrap());
            assert_eq!(report.failed(), 0, "{}: dedicated {s} pass failed", w.name);
        }
        let dedicated = t.elapsed();

        let t = Instant::now();
        let report = analyze_words(sys.parser(), words, build_stack(&spec, &pm()).unwrap());
        let one = t.elapsed();
        assert_eq!(report.failed(), 0, "{}: composed pass failed", w.name);
        assert_eq!(report.words, words.len() as u64);

        total_words += report.words;
        total_dedicated += dedicated;
        total_one += one;
        println!(
            "{:9} | {:>10} | {:>9.1}ms {:>9.1}ms | {:>6.2}x | {:>9.1}",
            w.name,
            report.words,
            dedicated.as_secs_f64() * 1e3,
            one.as_secs_f64() * 1e3,
            dedicated.as_secs_f64() / one.as_secs_f64(),
            report.words as f64 / one.as_secs_f64() / 1e6,
        );
    }
    println!("{:-<68}", "");

    let speedup = total_dedicated.as_secs_f64() / total_one.as_secs_f64();
    println!(
        "{:9} | {:>10} | {:>9.1}ms {:>9.1}ms | {:>6.2}x | {:>9.1}",
        "total",
        total_words,
        total_dedicated.as_secs_f64() * 1e3,
        total_one.as_secs_f64() * 1e3,
        speedup,
        total_words as f64 / total_one.as_secs_f64() / 1e6,
    );
    println!("one decode+parse feeds all three sinks; the dedicated passes pay it three times");
    assert!(
        total_one <= total_dedicated,
        "the one-pass stack took longer than three dedicated passes ({speedup:.2}x)"
    );
    println!("PASS: one-pass 3-sink stack is {speedup:.2}x faster than 3 dedicated passes");
}
