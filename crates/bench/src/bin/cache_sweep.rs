//! The downstream use case that motivated the whole tracing system
//! (§3.1): exploring memory-system designs against one system trace.
//! A single traced run of a workload is re-simulated across cache
//! sizes and associativities — the kind of study the WRL traces fed
//! ([7, 9, 18]).
//!
//! The trace is compressed into a block store once, then analysed by
//! all fifteen cache geometries in one `analyze_store` pass: the
//! geometries are dealt over the workers (argument 2, default 4) and
//! each worker decodes and parses the store once for its share. The
//! results are bit-identical to feeding each geometry its own
//! sequential parse (`tests/store_farm.rs` pins this).
//!
//! Usage: `cache_sweep [workload] [workers]` (default: compress, 4).

use systrace::kernel::{build_system, KernelConfig};
use systrace::store::{FarmCfg, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::tracer::{analyze_store, CacheSink, SinkReport, Stack, Value};
use wrl_bench::sweep_geometries;

/// A ratio field of a cache sink's report.
fn ratio(r: &SinkReport, key: &str) -> f64 {
    match r.get(key) {
        Some(Value::F64(v)) => *v,
        other => panic!("{}: {key} is {other:?}", r.sink),
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".into());
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let w = systrace::workloads::by_name(&name).expect("workload");
    eprintln!("collecting one traced run of {name} (Ultrix)...");
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(8_000_000_000);
    let archive = sys.archive(&run);
    let store = TraceStore::from_archive(&archive, DEFAULT_BLOCK_WORDS);
    eprintln!(
        "{} trace words in {} blocks ({} -> {} bytes, {:.2}x); \
         sweeping cache designs on {workers} workers\n",
        store.n_words,
        store.n_blocks(),
        store.raw_bytes(),
        store.compressed_bytes(),
        store.raw_bytes() as f64 / store.compressed_bytes().max(1) as f64,
    );

    let geometries = sweep_geometries();
    let mut stack = Stack::new();
    for &(size, ways) in &geometries {
        stack.push(CacheSink::new(size, ways, sys.pagemap.clone()));
    }
    let report = analyze_store(&store, stack, FarmCfg { workers }).expect("store decodes");

    println!("Cache design sweep over one {name} system trace");
    println!(
        "{:>7} {:>5} | {:>12} {:>12}",
        "size", "ways", "imiss ratio", "dmiss ratio"
    );
    println!("{:-<44}", "");
    for (i, (size, ways)) in geometries.into_iter().enumerate() {
        let study = report.ok(i).expect("a cache sink never fails");
        println!(
            "{:>4} KB {:>5} | {:>11.4}% {:>11.4}%",
            size >> 10,
            ways,
            100.0 * ratio(study, "icache_miss_ratio"),
            100.0 * ratio(study, "dcache_miss_ratio"),
        );
    }
    println!("{:-<44}", "");
    println!("one trace, fifteen memory systems — the §3.1 motivation in action");
}
