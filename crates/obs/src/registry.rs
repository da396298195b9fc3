//! The metrics registry and its export forms.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::sync::{Arc, Mutex};

use crate::json::Escaped;
use crate::metric::{Counter, Gauge, HistSnap, Histogram, Kind, Span};

/// Static metadata for one metric. `site` is normally filled by the
/// [`crate::metrics!`] table with `file!()`, so it is the
/// workspace-relative path of the registering module — the "source
/// site" column of `docs/METRICS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Desc {
    /// Dotted metric name, e.g. `stream.queue.chunks`. Unique per
    /// registry.
    pub name: &'static str,
    /// Unit of the recorded value (`ns`, `events`, `cycles`, …).
    pub unit: &'static str,
    /// Workspace-relative path of the registering file.
    pub site: &'static str,
    /// Paper section this metric illuminates (e.g. `§4.1`).
    pub paper: &'static str,
    /// One-line description.
    pub help: &'static str,
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Span(Arc<Span>),
}

impl Handle {
    fn kind(&self) -> Kind {
        match self {
            Handle::Counter(_) => Kind::Counter,
            Handle::Gauge(_) => Kind::Gauge,
            Handle::Histogram(_) => Kind::Histogram,
            Handle::Span(_) => Kind::Span,
        }
    }
}

struct Entry {
    desc: Desc,
    handle: Handle,
}

/// A named collection of metrics. Most code uses the process-global
/// registry ([`crate::global`]); tests can build private ones.
///
/// Registration is idempotent: registering an existing name returns
/// the existing metric (the descriptor must agree). Registering the
/// same name as a different kind panics — that is a programming
/// error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<&'static str, Entry>>,
}

macro_rules! register_fn {
    ($fn_name:ident, $variant:ident, $ty:ty) => {
        /// Registers (or looks up) a metric of this kind.
        pub fn $fn_name(&self, desc: Desc) -> Arc<$ty> {
            let mut map = self.inner.lock().expect("obs registry lock");
            let entry = map.entry(desc.name).or_insert_with(|| Entry {
                desc,
                handle: Handle::$variant(Arc::new(<$ty>::default())),
            });
            match &entry.handle {
                Handle::$variant(h) => Arc::clone(h),
                other => panic!(
                    "metric {:?} already registered as {}, not {}",
                    desc.name,
                    other.kind().as_str(),
                    Kind::$variant.as_str()
                ),
            }
        }
    };
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    register_fn!(counter, Counter, Counter);
    register_fn!(gauge, Gauge, Gauge);
    register_fn!(histogram, Histogram, Histogram);
    register_fn!(span, Span, Span);

    /// Zeroes every registered metric, keeping the registrations.
    /// Used between interleaved measurement runs and by tests.
    pub fn reset(&self) {
        let map = self.inner.lock().expect("obs registry lock");
        for e in map.values() {
            match &e.handle {
                Handle::Counter(c) => c.reset(),
                Handle::Gauge(g) => g.reset(),
                Handle::Histogram(h) => h.reset(),
                Handle::Span(s) => s.reset(),
            }
        }
    }

    /// Plain-data copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().expect("obs registry lock");
        Snapshot {
            metrics: map
                .values()
                .map(|e| MetricSnap {
                    desc: e.desc,
                    kind: e.handle.kind(),
                    value: match &e.handle {
                        Handle::Counter(c) => ValueSnap::Counter(c.get()),
                        Handle::Gauge(g) => ValueSnap::Gauge {
                            value: g.get(),
                            high: g.high(),
                        },
                        Handle::Histogram(h) => ValueSnap::Histogram(Box::new(h.snap())),
                        Handle::Span(s) => ValueSnap::Span {
                            count: s.count(),
                            total_ns: s.total_ns(),
                            last_ns: s.last_ns(),
                            max_ns: s.max_ns(),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// One metric's state in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct MetricSnap {
    /// Static metadata.
    pub desc: Desc,
    /// Metric kind.
    pub kind: Kind,
    /// Recorded value(s).
    pub value: ValueSnap,
}

/// The kind-specific value payload of a [`MetricSnap`].
#[derive(Clone, Debug)]
pub enum ValueSnap {
    /// Counter value.
    Counter(u64),
    /// Gauge value and high-water mark.
    Gauge {
        /// Last set/accumulated value.
        value: i64,
        /// Highest value reached.
        high: i64,
    },
    /// Full histogram state (boxed: 65 buckets dwarf the other
    /// variants).
    Histogram(Box<HistSnap>),
    /// Span totals.
    Span {
        /// Executions recorded.
        count: u64,
        /// Accumulated nanoseconds.
        total_ns: u64,
        /// Most recent execution's nanoseconds.
        last_ns: u64,
        /// Longest execution's nanoseconds.
        max_ns: u64,
    },
}

/// A plain-data export of a registry, sorted by metric name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All metrics, ascending by name.
    pub metrics: Vec<MetricSnap>,
}

impl Snapshot {
    /// Serialises to the stable `wrl-obs-metrics/v1` JSON schema (see
    /// `docs/METRICS.md` for the field reference). `labels` are
    /// free-form context pairs (workload, OS, generator) and are
    /// emitted in the given order.
    pub fn to_json(&self, labels: &[(&str, &str)]) -> String {
        // A metric's line is under 256 bytes unless a histogram has
        // many buckets filled.
        let mut out = String::with_capacity(256 + 256 * self.metrics.len());
        self.write_json(&mut out, labels)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut String, labels: &[(&str, &str)]) -> fmt::Result {
        write!(
            out,
            "{{\n  \"schema\": \"{}\",\n  \"labels\": {{",
            crate::SCHEMA
        )?;
        for (i, (k, v)) in labels.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(out, "{sep}\"{}\": \"{}\"", Escaped(k), Escaped(v))?;
        }
        out.push_str("},\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            write!(
                out,
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \"site\": \"{}\", \"paper\": \"{}\"",
                Escaped(m.desc.name),
                m.kind.as_str(),
                Escaped(m.desc.unit),
                Escaped(m.desc.site),
                Escaped(m.desc.paper),
            )?;
            match &m.value {
                ValueSnap::Counter(v) => write!(out, ", \"value\": {v}")?,
                ValueSnap::Gauge { value, high } => {
                    write!(out, ", \"value\": {value}, \"high\": {high}")?
                }
                ValueSnap::Histogram(h) => {
                    let min = if h.count == 0 { 0 } else { h.min };
                    write!(
                        out,
                        ", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        h.count, h.sum, min, h.max
                    )?;
                    for (j, (le, n)) in h.nonzero_buckets().enumerate() {
                        let sep = if j > 0 { ", " } else { "" };
                        write!(out, "{sep}[{le}, {n}]")?;
                    }
                    out.push(']');
                }
                ValueSnap::Span {
                    count,
                    total_ns,
                    last_ns,
                    max_ns,
                } => write!(
                    out,
                    ", \"count\": {count}, \"total_ns\": {total_ns}, \"last_ns\": {last_ns}, \"max_ns\": {max_ns}"
                )?,
            }
            out.push_str(if i + 1 < self.metrics.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        Ok(())
    }

    /// Renders an aligned human-readable table.
    pub fn render(&self) -> String {
        let name_w = self
            .metrics
            .iter()
            .map(|m| m.desc.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:name_w$} | {:9} | {:7} | value\n",
            "name", "kind", "unit"
        ));
        out.push_str(&format!("{:-<w$}\n", "", w = name_w + 40));
        for m in &self.metrics {
            let v = match &m.value {
                ValueSnap::Counter(v) => format!("{v}"),
                ValueSnap::Gauge { value, high } => format!("{value} (high {high})"),
                ValueSnap::Histogram(h) => {
                    if h.count == 0 {
                        "empty".to_string()
                    } else {
                        format!(
                            "n={} sum={} min={} max={} mean={:.1}",
                            h.count,
                            h.sum,
                            h.min,
                            h.max,
                            h.sum as f64 / h.count as f64
                        )
                    }
                }
                ValueSnap::Span {
                    count, total_ns, ..
                } => format!("n={} total={:.3}ms", count, *total_ns as f64 / 1e6),
            };
            out.push_str(&format!(
                "{:name_w$} | {:9} | {:7} | {}\n",
                m.desc.name,
                m.kind.as_str(),
                m.desc.unit,
                v
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonValue;

    fn desc(name: &'static str) -> Desc {
        Desc {
            name,
            unit: "events",
            site: "crates/obs/src/registry.rs",
            paper: "—",
            help: "test metric",
        }
    }

    #[test]
    fn registration_is_idempotent_and_sorted() {
        let r = Registry::new();
        let a = r.counter(desc("b.count"));
        let b = r.counter(desc("b.count"));
        a.add(1);
        b.add(1);
        r.gauge(desc("a.gauge")).set(5);
        let snap = r.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|m| m.desc.name).collect();
        assert_eq!(names, vec!["a.gauge", "b.count"], "sorted by name");
        assert!(matches!(snap.metrics[1].value, ValueSnap::Counter(2)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter(desc("x"));
        r.gauge(desc("x"));
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        let c = r.counter(desc("c"));
        let h = r.histogram(desc("h"));
        c.add(9);
        h.record(3);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    fn json_export_parses_and_round_trips_values() {
        let r = Registry::new();
        // Every string field a snapshot carries, with each character
        // class the escaper treats: quote, backslash, newline, another
        // control character, and a multi-byte one passed through.
        r.counter(Desc {
            name: "c",
            unit: "q\"b\\s",
            site: "a\nb",
            paper: "§4.1\u{1}",
            help: "test metric",
        })
        .add(7);
        r.gauge(desc("g")).set(-2);
        let h = r.histogram(desc("h"));
        for v in [5, 1, 1, 4096] {
            h.record(v);
        }
        r.span(desc("s")).record_ns(1000);
        let js = r.snapshot().to_json(&[
            ("workload", "sed"),
            ("os", "ultrix"),
            ("k\"\\", "v\n\u{1}§"),
        ]);
        let want = concat!(
            "{\n",
            "  \"schema\": \"wrl-obs-metrics/v1\",\n",
            "  \"labels\": {\"workload\": \"sed\", \"os\": \"ultrix\", ",
            "\"k\\\"\\\\\": \"v\\n\\u0001§\"},\n",
            "  \"metrics\": [\n",
            "    {\"name\": \"c\", \"kind\": \"counter\", \"unit\": \"q\\\"b\\\\s\", ",
            "\"site\": \"a\\nb\", \"paper\": \"§4.1\\u0001\", \"value\": 7},\n",
            "    {\"name\": \"g\", \"kind\": \"gauge\", \"unit\": \"events\", ",
            "\"site\": \"crates/obs/src/registry.rs\", \"paper\": \"—\", ",
            "\"value\": -2, \"high\": 0},\n",
            "    {\"name\": \"h\", \"kind\": \"histogram\", \"unit\": \"events\", ",
            "\"site\": \"crates/obs/src/registry.rs\", \"paper\": \"—\", ",
            "\"count\": 4, \"sum\": 4103, \"min\": 1, \"max\": 4096, ",
            "\"buckets\": [[2, 2], [8, 1], [8192, 1]]},\n",
            "    {\"name\": \"s\", \"kind\": \"span\", \"unit\": \"events\", ",
            "\"site\": \"crates/obs/src/registry.rs\", \"paper\": \"—\", ",
            "\"count\": 1, \"total_ns\": 1000, \"last_ns\": 1000, \"max_ns\": 1000}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(js, want, "the export's exact bytes");
        let v = crate::parse_json(&js).expect("export must be valid JSON");
        let obj = v.as_object().unwrap();
        assert_eq!(obj["schema"].as_str().unwrap(), crate::SCHEMA, "schema tag");
        assert_eq!(
            obj["labels"].as_object().unwrap()["workload"].as_str(),
            Some("sed")
        );
        assert_eq!(
            obj["labels"].as_object().unwrap()["k\"\\"].as_str(),
            Some("v\n\u{1}§")
        );
        let metrics = obj["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 4);
        let by_name = |n: &str| -> &JsonValue {
            metrics
                .iter()
                .find(|m| m.as_object().unwrap()["name"].as_str() == Some(n))
                .unwrap()
        };
        assert_eq!(by_name("c").as_object().unwrap()["value"].as_u64(), Some(7));
        assert_eq!(
            by_name("g").as_object().unwrap()["value"].as_i64(),
            Some(-2)
        );
        assert_eq!(by_name("h").as_object().unwrap()["count"].as_u64(), Some(4));
        assert_eq!(
            by_name("s").as_object().unwrap()["total_ns"].as_u64(),
            Some(1000)
        );
    }

    #[test]
    fn render_mentions_every_metric() {
        let r = Registry::new();
        r.counter(desc("zz.one"));
        r.span(desc("zz.two"));
        let text = r.snapshot().render();
        assert!(text.contains("zz.one") && text.contains("zz.two"));
    }
}
