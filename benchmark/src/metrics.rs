//! The benchmark's metric tables: names, units, which way is better
//! and, for end-to-end metrics, how far a median may worsen before
//! `benchmark compare` calls it a regression. `BENCHMARK.json` at the
//! repository root restates these; a test holds the two together.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric. `everywhere` marks the ones every workload
/// reports, which are the ones `BENCHMARK.json` can list: the contract
/// wants every listed metric, never 0, from every workload. The two
/// exact ones among them are properties of the panel, which every
/// workload's run works out. The other three exist on one workload
/// only (request latency on `serve_query`, prediction error on
/// `trace_predict`); that workload prints them and `benchmark compare`
/// gates them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub everywhere: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("mwords_per_s", "Mwords/s", Better::Higher, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05, true),
    e2e("op_p50_us", "us", Better::Lower, 0.25, false),
    e2e("op_p99_us", "us", Better::Lower, 0.25, false),
    e2e("dilation_x", "x", Better::Lower, 0.01, true),
    e2e("predict_err_pct", "%", Better::Lower, 0.05, false),
    e2e("bytes_per_word", "B/word", Better::Lower, 0.01, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        everywhere,
    }
}

/// Spans around the public calls into each layer. Each reports
/// `<span>.busy_s` (self seconds per pass, or per set-up for a span
/// that occurs only in set-up) and `<span>.calls` (calls per pass).
pub const SPANS: &[&str] = &[
    "kernel.build_system",
    "epoxie.build_traced",
    "machine.run_traced",
    "machine.run_untraced",
    "machine.run_bare",
    "trace.parse",
    "memsim.simulate",
    "memsim.predict",
    "store.encode_v3",
    "store.encode_v4",
    "store.serialize",
    "store.open",
    "store.decode_v3",
    "store.decode_v4",
    "store.query",
    "store.crc",
    "tracer.analyze_seq",
    "tracer.analyze_farm",
    "tracer.empty_stack",
    "serve.query",
    "serve.query_asid",
    "serve.fetch",
    "serve.catalog",
    "serve.metrics",
    "serve.local_query",
    "serve.wire.encode_response",
    "serve.wire.decode_response",
    "obs.snapshot",
    // The benchmark's own comparisons inside a pass, so that the
    // layer spans do not carry them.
    "bench.check",
];

/// Per-layer quantities beside the spans' `busy_s` and `calls`:
/// `(name, unit, better)`.
pub const LAYER_EXTRAS: &[(&str, &str, Better)] = &[
    ("trace_overhead_pct", "%", Better::Lower),
    ("attribution_pct", "%", Better::Higher),
    ("epoxie.text_growth_x", "x", Better::Lower),
    ("machine.run_traced.minst_per_s", "Minst/s", Better::Higher),
    (
        "machine.run_untraced.minst_per_s",
        "Minst/s",
        Better::Higher,
    ),
    ("machine.run_bare.minst_per_s", "Minst/s", Better::Higher),
    ("machine.drains", "count", Better::Lower),
    ("machine.trace_words", "count", Better::Lower),
    ("trace.parse.mwords_per_s", "Mwords/s", Better::Higher),
    ("trace.parse.errors", "count", Better::Lower),
    ("memsim.simulate.mevents_per_s", "Mevents/s", Better::Higher),
    ("memsim.sanity_violations", "count", Better::Lower),
    ("memsim.predict_err_pct", "%", Better::Lower),
    ("store.encode_v3.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.encode_v4.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.serialize.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.v3.bytes_per_word", "B/word", Better::Lower),
    ("store.v4.bytes_per_word", "B/word", Better::Lower),
    ("store.open.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.decode_v3.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.decode_v4.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.query.mwords_per_s", "Mwords/s", Better::Higher),
    ("store.query.blocks_decoded", "count", Better::Lower),
    ("store.query.blocks_skipped", "count", Better::Higher),
    ("store.query.prune_ratio", "ratio", Better::Higher),
    ("store.crc.mb_per_s", "MB/s", Better::Higher),
    (
        "tracer.analyze_seq.mwords_per_s",
        "Mwords/s",
        Better::Higher,
    ),
    (
        "tracer.analyze_farm.mwords_per_s",
        "Mwords/s",
        Better::Higher,
    ),
    (
        "tracer.empty_stack.mwords_per_s",
        "Mwords/s",
        Better::Higher,
    ),
    ("tracer.sinks.self_s", "s", Better::Lower),
    ("tracer.slots_failed", "count", Better::Lower),
    ("serve.op_p50_us", "us", Better::Lower),
    ("serve.op_p99_us", "us", Better::Lower),
    ("serve.query.p50_us", "us", Better::Lower),
    ("serve.query.p99_us", "us", Better::Lower),
    ("serve.query_asid.p50_us", "us", Better::Lower),
    ("serve.query_asid.p99_us", "us", Better::Lower),
    ("serve.fetch.p50_us", "us", Better::Lower),
    ("serve.fetch.p99_us", "us", Better::Lower),
    ("serve.catalog.p50_us", "us", Better::Lower),
    ("serve.catalog.p99_us", "us", Better::Lower),
    ("serve.metrics.p50_us", "us", Better::Lower),
    ("serve.metrics.p99_us", "us", Better::Lower),
    ("serve.local_query.p50_us", "us", Better::Lower),
    ("serve.transport.self_us", "us", Better::Lower),
    ("serve.cache.hit_ratio", "ratio", Better::Higher),
    ("serve.reject.busy", "count", Better::Lower),
    ("serve.bytes_out_per_word", "B/word", Better::Lower),
    ("serve.reactor.wakeups_per_req", "1/req", Better::Lower),
    ("obs.snapshot.p50_us", "us", Better::Lower),
    ("obs.snapshot.vs_catalog_x", "x", Better::Lower),
];

/// Every per-layer metric a traced run prints: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for span in SPANS {
        out.push((format!("{span}.busy_s"), "s", Better::Lower));
        out.push((format!("{span}.calls"), "count", Better::Lower));
    }
    out.extend(
        LAYER_EXTRAS
            .iter()
            .map(|(name, unit, better)| (name.to_string(), *unit, *better)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systrace::obs::{parse_json, JsonValue};

    fn field<'a>(row: &'a JsonValue, key: &str) -> &'a JsonValue {
        &row.as_object().unwrap()[key]
    }

    /// `BENCHMARK.json` lists exactly the metrics the benchmark prints
    /// on its last line, with the units and bounds of these tables.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        let top = json.as_object().unwrap();

        let listed = top["end_to_end"].as_array().unwrap();
        let ours: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.everywhere).collect();
        assert_eq!(listed.len(), ours.len());
        for (row, m) in listed.iter().zip(ours) {
            assert_eq!(field(row, "name").as_str(), Some(m.name));
            assert_eq!(field(row, "unit").as_str(), Some(m.unit));
            assert_eq!(field(row, "better").as_str(), Some(m.better.as_str()));
            assert_eq!(field(row, "bound").as_f64(), Some(m.bound));
        }

        let listed = top["per_layer"].as_array().unwrap();
        let ours = per_layer();
        assert!(
            ours.len() <= 128,
            "the contract allows 128 per-layer metrics"
        );
        assert_eq!(listed.len(), ours.len());
        for (row, (name, unit, better)) in listed.iter().zip(&ours) {
            assert_eq!(field(row, "name").as_str(), Some(name.as_str()));
            assert_eq!(field(row, "unit").as_str(), Some(*unit));
            assert_eq!(field(row, "better").as_str(), Some(better.as_str()));
        }

        let names: Vec<&str> = top["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
