//! store_bench: compression ratio, decode throughput and worker
//! scaling for the `wrl-store` trace store.
//!
//! Three sections, each honest about its method:
//!
//! 1. **Compression** — every workload's Ultrix system trace is
//!    compressed at the default block size in both the v3 row format
//!    and the v4 columnar format; losslessness is asserted (decode ==
//!    original words) for both and the ratio distributions are
//!    summarised. The v4 median is asserted to at least double the
//!    pinned v2 median ratio.
//! 2. **Decode throughput** — block-at-a-time decode (CRC included)
//!    of the largest trace, best of several passes, for the v3 row
//!    path and the v4 columnar path via the whole-file block reader.
//! 3. **Worker scaling** — the fifteen-geometry cache sweep run from
//!    the store: sequentially (each geometry decodes and parses the
//!    store itself) and as one `analyze_store` pass at 1, 2 and 4
//!    workers (each worker decodes and parses the store once for its
//!    share of the geometries). Results are asserted bit-identical to
//!    the sequential sweep; configurations are rotated across
//!    repetitions and the minimum kept.
//!
//! Usage: `store_bench [sweep_workload]` (default: compress).
//! Regenerates `results/store_bench.txt` via stdout.

use std::time::{Duration, Instant};

use systrace::kernel::{build_system, KernelConfig};
use systrace::store::{drive, BlockFormat, FarmCfg, StoreObs, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::TraceArchive;
use systrace::tracer::{analyze_store, AnalysisSink, CacheSink, SinkReport, Stack};
use wrl_bench::sweep_geometries;

fn timed<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed(), v)
}

/// Collects one traced Ultrix run of the named workload.
fn trace_of(name: &str) -> (TraceArchive, systrace::memsim::PageMap) {
    let w = systrace::workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(8_000_000_000);
    (sys.archive(&run), sys.pagemap.clone())
}

/// One sequential sweep: the sink decodes and parses the store for
/// itself, geometry by geometry.
fn sequential_sweep(store: &TraceStore, pagemap: &systrace::memsim::PageMap) -> Vec<SinkReport> {
    sweep_geometries()
        .into_iter()
        .map(|(size, ways)| {
            let study = CacheSink::new(size, ways, pagemap.clone());
            let (_, mut study) = drive(store, study).expect("block decodes");
            study.finish().expect("a cache sink never fails")
        })
        .collect()
}

/// The whole sweep as one `analyze_store` pass on `workers` workers.
fn one_pass_sweep(
    store: &TraceStore,
    pagemap: &systrace::memsim::PageMap,
    workers: usize,
) -> Vec<SinkReport> {
    let mut stack = Stack::new();
    for (size, ways) in sweep_geometries() {
        stack.push(CacheSink::new(size, ways, pagemap.clone()));
    }
    let report = analyze_store(store, stack, FarmCfg { workers }).expect("block decodes");
    report
        .reports
        .into_iter()
        .map(|r| r.expect("a cache sink never fails"))
        .collect()
}

/// The v2 store's median compression ratio across the twelve
/// workloads, pinned from the `results/store_bench.txt` committed
/// with the row codec. The v4 columnar codec is measured against it.
const V2_MEDIAN_RATIO: f64 = 2.32;

/// The acceptance floor: the v4 median ratio must be at least this
/// many times the pinned v2 median.
const V4_MIN_GAIN_OVER_V2: f64 = 2.0;

fn main() {
    let sweep_name = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "compress".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let obs = StoreObs::register();

    println!("wrl-store: compression and worker-scaling benchmark");
    println!("block size {DEFAULT_BLOCK_WORDS} words; host parallelism: {cores} CPU(s)");
    println!();

    // ---- 1. Compression across all twelve workloads -------------
    println!("Compression of one Ultrix system trace per workload, v3 row vs v4 columnar");
    println!(
        "{:10} | {:>9} | {:>9} | {:>9} | {:>6} | {:>9} | {:>6}",
        "workload", "words", "raw KB", "v3 KB", "v3", "v4 KB", "v4"
    );
    println!("{:-<72}", "");
    let mut ratios: Vec<(f64, &'static str)> = Vec::new();
    let mut ratios_v4: Vec<(f64, &'static str)> = Vec::new();
    let mut sweep_inputs = None;
    for w in systrace::workloads::all() {
        let (archive, pagemap) = trace_of(w.name);
        let store = TraceStore::from_archive(&archive, DEFAULT_BLOCK_WORDS);
        let v4 =
            TraceStore::from_archive_with(&archive, DEFAULT_BLOCK_WORDS, BlockFormat::Columnar);
        for (tag, s) in [("v3", &store), ("v4", &v4)] {
            assert_eq!(
                s.words().expect("all CRCs hold"),
                archive.words,
                "{} {tag}: compression must be lossless",
                w.name
            );
        }
        let ratio = store.raw_bytes() as f64 / store.compressed_bytes().max(1) as f64;
        let ratio4 = v4.raw_bytes() as f64 / v4.compressed_bytes().max(1) as f64;
        println!(
            "{:10} | {:>9} | {:>9} | {:>9} | {:>5.2}x | {:>9} | {:>5.2}x",
            w.name,
            store.n_words,
            store.raw_bytes() / 1024,
            store.compressed_bytes() / 1024,
            ratio,
            v4.compressed_bytes() / 1024,
            ratio4,
        );
        ratios.push((ratio, w.name));
        ratios_v4.push((ratio4, w.name));
        if w.name == sweep_name {
            obs.export_store(&store);
            sweep_inputs = Some((store, v4, pagemap));
        }
    }
    println!("{:-<72}", "");
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    ratios_v4.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (tag, r) in [("v3", &ratios), ("v4", &ratios_v4)] {
        let (min, med, max) = (r[0], r[r.len() / 2], r[r.len() - 1]);
        println!(
            "{tag} ratio min {:.2}x ({}) / median {:.2}x ({}) / max {:.2}x ({})",
            min.0, min.1, med.0, med.1, max.0, max.1
        );
    }
    let med_v4 = ratios_v4[ratios_v4.len() / 2].0;
    println!(
        "v4 median is {:.2}x the pinned v2 median of {V2_MEDIAN_RATIO:.2}x (floor {:.1}x)",
        med_v4 / V2_MEDIAN_RATIO,
        V4_MIN_GAIN_OVER_V2,
    );
    assert!(
        med_v4 >= V4_MIN_GAIN_OVER_V2 * V2_MEDIAN_RATIO,
        "v4 median ratio {med_v4:.2}x must be at least {V4_MIN_GAIN_OVER_V2}x the pinned v2 \
         median of {V2_MEDIAN_RATIO}x"
    );
    println!();

    let (store, store_v4, pagemap) =
        sweep_inputs.unwrap_or_else(|| panic!("sweep workload {sweep_name} not among the twelve"));

    // ---- 2. Block decode throughput ------------------------------
    let mut t_decode = Duration::MAX;
    let mut t_decode4 = Duration::MAX;
    for _ in 0..5 {
        let (t, _) = timed(|| {
            for i in 0..store.n_blocks() {
                std::hint::black_box(store.decode_block(i).expect("block decodes"));
            }
        });
        t_decode = t_decode.min(t);
        let (t, _) = timed(|| {
            let mut reader = store_v4.block_reader();
            while let Some(block) = reader.next_block() {
                std::hint::black_box(block.expect("block decodes"));
            }
        });
        t_decode4 = t_decode4.min(t);
    }
    let raw_mb = store.raw_bytes() as f64 / (1 << 20) as f64;
    for (tag, t) in [("v3 row", t_decode), ("v4 columnar", t_decode4)] {
        println!(
            "Block decode ({sweep_name}, {tag}): {} blocks, {raw_mb:.1} MB raw in {:.3}s = \
             {:.0} MB/s (CRC checked)",
            store.n_blocks(),
            t.as_secs_f64(),
            raw_mb / t.as_secs_f64(),
        );
    }
    println!();

    // ---- 3. Worker scaling ---------------------------------------
    const RUNS: usize = 3;
    println!("Fifteen-geometry cache sweep of the {sweep_name} trace, best of {RUNS}");
    println!("{:24} | {:>9} | {:>8}", "schedule", "time", "speedup");
    println!("{:-<47}", "");
    // configs: None = sequential; Some(w) = one pass on w workers.
    let configs: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];
    let mut best = [Duration::MAX; 4];
    let mut results: [Option<Vec<SinkReport>>; 4] = [None, None, None, None];
    for run in 0..RUNS {
        // Rotate the execution order so drift hits every config.
        for k in 0..configs.len() {
            let idx = (k + run) % configs.len();
            let (t, sinks) = match configs[idx] {
                None => timed(|| sequential_sweep(&store, &pagemap)),
                Some(w) => timed(|| one_pass_sweep(&store, &pagemap, w)),
            };
            best[idx] = best[idx].min(t);
            results[idx] = Some(sinks);
        }
    }
    let baseline = results[0].take().expect("RUNS > 0");
    let t_seq = best[0];
    println!(
        "{:24} | {:>8.3}s | {:>7.2}x",
        "sequential (15 passes)",
        t_seq.as_secs_f64(),
        1.0
    );
    for (i, cfg) in configs.iter().enumerate().skip(1) {
        let sinks = results[i].take().expect("RUNS > 0");
        assert_eq!(sinks, baseline, "one pass == sequential, always");
        println!(
            "{:24} | {:>8.3}s | {:>7.2}x",
            format!("one pass, {} worker(s)", cfg.unwrap()),
            best[i].as_secs_f64(),
            t_seq.as_secs_f64() / best[i].as_secs_f64(),
        );
    }
    println!("{:-<47}", "");
    println!("sequential: every geometry decodes + parses the store itself.");
    println!("one pass: each worker decodes + parses the store once for its");
    println!("share of the fifteen sinks, so the 1-worker row is pure work");
    println!("amortisation and holds even on a single CPU; more workers add");
    println!("a decode + parse each and only what the host's spare CPUs allow.");
    println!("Results are asserted identical to the sequential sweep.");
}
