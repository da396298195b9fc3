//! Runs the built benchmark in `--smoke` mode: two timed passes and
//! one repeat of the set-up, with every check of a full run.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use systrace::obs::{parse_json, JsonValue};

const WORKLOADS: [&str; 4] = [
    "trace_predict",
    "archive_scan",
    "archive_analyze",
    "serve_query",
];

/// The metrics that are counts, not timings: they must repeat exactly
/// for a seed.
const EXACT: [&str; 3] = ["dilation_x", "predict_err_pct", "bytes_per_word"];

struct Run {
    /// `metric` lines: name → value as printed.
    metrics: BTreeMap<String, String>,
    /// The result object on the last line.
    result: JsonValue,
}

fn smoke(workload: &str, seed: u64, trace: u8) -> Run {
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seconds", "30", "--smoke"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    let took = t.elapsed().as_secs_f64();
    assert!(out.status.success(), "{workload}: {out:?}");
    // An unoptimised build interprets the machines ten times slower.
    if !cfg!(debug_assertions) {
        assert!(took < 10.0, "{workload}: a smoke run took {took:.1} s");
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    let metrics = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some("metric") && f.next() == Some(workload))
                .then(|| (f.next().unwrap().to_string(), f.next().unwrap().to_string()))
        })
        .collect();
    let result = parse_json(stdout.lines().last().unwrap()).expect("the last line is JSON");
    Run { metrics, result }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    &v.as_object().unwrap()[key]
}

fn assert_clean(workload: &str, run: &Run) {
    let keys: Vec<&str> = run
        .result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        field(&run.result, "correct"),
        &JsonValue::Bool(true),
        "{workload}"
    );
    assert_eq!(field(&run.result, "failed").as_u64(), Some(0), "{workload}");
    assert!(
        field(&run.result, "attempted").as_u64().unwrap() >= 1,
        "{workload}"
    );
}

/// The names under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    field(&json, key)
        .as_array()
        .unwrap()
        .iter()
        .map(|m| field(m, "name").as_str().unwrap().to_string())
        .collect()
}

/// One test, not one per workload: every run pins itself to the same
/// CPU, so runs side by side would only slow each other.
#[test]
fn smoke_runs_are_correct_and_repeat_their_exact_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let a = smoke(workload, 5, 0);
        let b = smoke(workload, 5, 0);
        assert_clean(workload, &a);
        assert_clean(workload, &b);
        let printed: Vec<&String> = field(&a.result, "metrics")
            .as_object()
            .unwrap()
            .keys()
            .collect();
        let mut want: Vec<&String> = end_to_end.iter().collect();
        want.sort();
        assert_eq!(printed, want, "{workload}: the untraced result object");
        for m in field(&a.result, "metrics").as_object().unwrap().values() {
            assert!(
                field(m, "value").as_f64().unwrap() > 0.0,
                "{workload}: {m:?}"
            );
        }
        for name in EXACT {
            assert_eq!(
                a.metrics.get(name),
                b.metrics.get(name),
                "{workload}: {name}"
            );
        }
        // The metrics only one workload has are printed by it.
        let own: &[&str] = match workload {
            "trace_predict" => &["predict_err_pct"],
            "serve_query" => &["op_p50_us", "op_p99_us"],
            _ => &[],
        };
        for name in own {
            assert!(a.metrics.contains_key(*name), "{workload}: {name}");
        }

        let traced = smoke(workload, 5, 1);
        assert_clean(workload, &traced);
        let printed: Vec<&String> = field(&traced.result, "metrics")
            .as_object()
            .unwrap()
            .keys()
            .collect();
        let mut want: Vec<&String> = per_layer.iter().collect();
        want.sort();
        assert_eq!(printed, want, "{workload}: the traced result object");
        for name in EXACT {
            assert_eq!(
                a.metrics.get(name),
                traced.metrics.get(name),
                "{workload}: {name}"
            );
        }
    }
}
