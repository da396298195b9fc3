//! Metrics-recording overhead: on vs off, in one process.
//!
//! The observability layer claims near-zero overhead (§4.1 is the
//! paper measuring *its own* machinery's cost; this is ours). The
//! runtime kill-switch makes the measurement honest: the same binary,
//! same code paths and same branch sites run with recording enabled
//! and disabled, so the difference is exactly the cost of the atomic
//! updates and clock reads — not of a different build.
//!
//! The two modes are interleaved with their order flipped every
//! iteration, so host drift hits both equally. Each workload gets a
//! verdict against the < 1% budget: `resolved` only when the quartile
//! spread of the paired deltas is narrower than the budget itself —
//! otherwise the host's noise is wider than the thing being measured
//! and the median's sign means nothing.
//!
//! Usage: `obs_overhead [workload ...]` (default: sed yacc).

use std::time::{Duration, Instant};

use systrace::kernel::KernelConfig;
use systrace::obs;
use systrace::tracer::Stack;
use systrace::AnalyzeCfg;

fn timed<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed(), v)
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["sed", "yacc"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    const RUNS: u32 = 31;
    const BUDGET_PCT: f64 = 1.0;

    obs::register_all();
    println!("Metrics recording overhead (Ultrix, metered harness run, best of {RUNS})");
    println!(
        "{:9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7} | verdict",
        "", "off", "on", "delta", "overhead", "spread"
    );
    println!("{:-<83}", "");
    for name in names {
        let w =
            systrace::workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        let cfg = KernelConfig::ultrix().traced();
        let acfg = AnalyzeCfg {
            arith_stalls: systrace::pixie_arith_stalls(&w),
            metered: true,
            ..AnalyzeCfg::default()
        };

        let run_mode = |on: bool| {
            obs::set_recording(on);
            obs::global().reset();
            let (t, p) = timed(|| {
                systrace::run_analyzed(&cfg, &w, acfg.clone(), Stack::new(), None).predicted
            });
            assert_eq!(p.parse_errors, 0);
            t
        };
        // Each iteration runs both modes back to back (order flipped
        // each time), and the overhead is the *median of the paired
        // per-iteration deltas*: slow drift hits both halves of a pair
        // almost equally, so pairing cancels it far better than
        // comparing two independent minima does.
        let mut t_off = Duration::MAX;
        let mut t_on = Duration::MAX;
        let mut deltas = Vec::with_capacity(RUNS as usize);
        for i in 0..RUNS {
            let (off, on) = if i % 2 == 0 {
                let off = run_mode(false);
                let on = run_mode(true);
                (off, on)
            } else {
                let on = run_mode(true);
                let off = run_mode(false);
                (off, on)
            };
            t_off = t_off.min(off);
            t_on = t_on.min(on);
            deltas.push(on.as_secs_f64() - off.as_secs_f64());
        }
        obs::set_recording(true);
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |d: f64| d / t_off.as_secs_f64() * 100.0;
        let median_delta = deltas[deltas.len() / 2];
        let overhead = pct(median_delta);
        let spread = pct(deltas[deltas.len() * 3 / 4] - deltas[deltas.len() / 4]);
        let verdict = if spread >= BUDGET_PCT {
            "unresolved"
        } else if overhead < BUDGET_PCT {
            "resolved: within budget"
        } else {
            "resolved: OVER budget"
        };
        println!(
            "{:9} | {:>8.3}s | {:>8.3}s | {:>+8.4}s | {:>+8.2}% | {:>6.2}% | {}",
            name,
            t_off.as_secs_f64(),
            t_on.as_secs_f64(),
            median_delta,
            overhead,
            spread,
            verdict,
        );
    }
    println!("{:-<83}", "");
    println!("off/on: best of {RUNS} per mode. delta: median of the {RUNS} paired");
    println!("per-iteration (on - off) differences; overhead = delta / off.");
    println!("spread: third minus first quartile of those differences, / off.");
    println!("verdict: the {BUDGET_PCT}% budget is resolved only when the spread is");
    println!("narrower than the budget; otherwise the host's run-to-run noise");
    println!("is wider than the cost being measured and the sign of the median");
    println!("carries no information.");
    println!("The full metered harness run is timed (traced machine run +");
    println!("parse + simulate + predict).");
}
