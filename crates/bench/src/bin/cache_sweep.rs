//! The downstream use case that motivated the whole tracing system
//! (§3.1): exploring memory-system designs against one system trace.
//! A single traced run of a workload is re-simulated across cache
//! sizes and associativities — the kind of study the WRL traces fed
//! ([7, 9, 18]).
//!
//! The sweep runs on the `wrl-store` replay farm: the trace is
//! compressed into a block store once, then replayed into all fifteen
//! cache geometries at once — decoding and parsing the trace one time
//! instead of fifteen. The results are bit-identical to feeding each
//! geometry its own sequential parse (`tests/store_farm.rs` pins
//! this).

use systrace::kernel::{build_system, KernelConfig};
use systrace::store::{replay, FarmCfg, StoreObs, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::SeamHooks;
use systrace::tracer::CacheSink;
use wrl_bench::sweep_geometries;

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
    let sinks: Vec<CacheSink> = geometries
        .iter()
        .map(|&(size, ways)| CacheSink::new(size, ways, sys.pagemap.clone()))
        .collect();

    let cfg = FarmCfg {
        workers,
        ..FarmCfg::default()
    };
    let (report, sinks) = replay(&store, sinks, cfg, &SeamHooks::default()).expect("replay");
    let obs = StoreObs::register();
    obs.export_store(&store);
    obs.export_farm(&report);

    println!("Cache design sweep over one {name} system trace");
    println!(
        "{:>7} {:>5} | {:>12} {:>12}",
        "size", "ways", "imiss ratio", "dmiss ratio"
    );
    println!("{:-<44}", "");
    for ((size, ways), study) in geometries.into_iter().zip(&sinks) {
        println!(
            "{:>4} KB {:>5} | {:>11.4}% {:>11.4}%",
            size >> 10,
            ways,
            100.0 * study.icache.miss_ratio(),
            100.0 * study.dcache.miss_ratio(),
        );
    }
    println!("{:-<44}", "");
    println!("one trace, fifteen memory systems — the §3.1 motivation in action");
}
