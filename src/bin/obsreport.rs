//! obsreport: run the metered validation pipeline and export metrics.
//!
//! ```text
//! obsreport [workload] [ultrix|mach] [out.json]
//! ```
//!
//! Runs the metered predictor for one workload (default `sed` on
//! Ultrix), writes the full `wrl-obs` registry as
//! `wrl-obs-metrics/v1` JSON (default
//! `results/metrics-<workload>-<os>.json`) and prints the
//! human-readable table.
//!
//! Nothing in the pass depends on the host (no threads, no
//! auto-detected shape), so every counter in the emitted JSON is
//! reproducible — `tests/metrics_pinned.rs` pins the committed file's
//! metric set against the live registry.

use systrace::kernel::KernelConfig;
use systrace::obs;
use systrace::tracer::Stack;
use systrace::{pixie_arith_stalls, run_analyzed, AnalyzeCfg};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("sed");
    let os = args.get(1).map(String::as_str).unwrap_or("ultrix");
    let default_out = format!("results/metrics-{workload}-{os}.json");
    let out = args.get(2).map(String::as_str).unwrap_or(&default_out);

    let w = systrace::workloads::by_name(workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}");
        std::process::exit(2);
    });
    let cfg = match os {
        "ultrix" => KernelConfig::ultrix().traced(),
        "mach" => KernelConfig::mach().traced(),
        _ => {
            eprintln!("unknown os {os} (want ultrix|mach)");
            std::process::exit(2);
        }
    };

    obs::register_all();
    obs::global().reset();

    let acfg = AnalyzeCfg {
        arith_stalls: pixie_arith_stalls(&w),
        metered: true,
        ..AnalyzeCfg::default()
    };
    let p = run_analyzed(&cfg, &w, acfg, Stack::new(), None).predicted;
    assert_eq!(p.parse_errors, 0, "healthy system expected");

    let snap = obs::global().snapshot();
    let json = snap.to_json(&[
        ("workload", workload),
        ("os", os),
        ("generator", "obsreport"),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out, &json).expect("write metrics json");

    println!("{}", snap.render());
    println!(
        "predicted {:.4}s, {} trace words, wrote {out}",
        p.seconds, p.trace_words
    );
}
