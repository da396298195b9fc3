//! The measuring loop every workload runs under.
//!
//! One load thread. A run executes the workload's set-up, one untimed
//! warm-up pass, then equal-work passes until `--seconds` of wall
//! time have gone by. The set-up is executed again after each quarter
//! of that window (five executions in all); the first execution's
//! products are the ones the passes use, the others are checked equal
//! and dropped, and the pass after each is discarded as re-warm-up.
//! Every reported timing is a median of raw samples: no sample is
//! dropped for being slow and none is corrected for host speed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::panel::Cx;
use crate::spans::{self, Span, Spans};
use crate::stats;

/// What one run was asked to do.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two timed passes and one repeat of the set-up, every check.
    pub smoke: bool,
}

/// Operations attempted and failed. A refused, errored or wrong
/// answer is a failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation that succeeded iff `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// FNV-1a over 64-bit values: the digest of a set-up's products.
pub fn digest(vals: impl IntoIterator<Item = u64>) -> u64 {
    vals.into_iter().fold(0xcbf2_9ce4_8422_2325, |d, v| {
        (d ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One workload. `'a` is the lifetime of the run's [`Cx`].
pub trait Workload<'a>: Sized {
    const NAME: &'static str;
    /// Threads beside the load thread, for the run header.
    fn threads() -> String {
        "none".into()
    }
    /// What one execution of the set-up makes.
    type Products;

    /// The set-up: the program's work before the first pass. Runs
    /// five times a run, so it must be a pure function of `cx`.
    fn set_up(cx: &'a Cx, sp: &Spans) -> Self::Products;
    /// Digest of everything the passes read from the products.
    fn digest(products: &Self::Products) -> u64;
    /// Drops the products of a repeated set-up.
    fn discard(products: Self::Products) {
        drop(products);
    }
    /// Takes the first set-up's products and works out the reference
    /// answers (the benchmark's own work: untimed).
    fn new(cx: &'a Cx, products: Self::Products) -> Self;
    /// Trace words one pass moves through the workload's path.
    fn words_per_pass(&self) -> u64;
    /// One pass: the same work every time, every output checked.
    /// With `sp` recording, each call into a layer's public function
    /// is under a span. `timed` is false for warm-up passes, whose
    /// latency samples are not pooled.
    fn pass(&mut self, sp: &Spans, timed: bool) -> Tally;
    /// Stand-alone calls that split a layer out of a composite span;
    /// made after each traced pass of a `--trace 1` run only.
    fn probes(&mut self, _sp: &Spans) -> Tally {
        Tally::default()
    }
    /// The workload's own metrics and per-layer quantities.
    fn finish(self, out: &mut Findings);
}

/// An end-to-end metric as measured: its name in
/// [`crate::metrics::END_TO_END`], its value, the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What a workload reports beside the three metrics the loop measures
/// for everyone, and the traced run's per-layer view.
#[derive(Default)]
pub struct Findings {
    /// The workload's own end-to-end metrics (both kinds of run).
    pub own: Vec<Metric>,
    /// Final cross-checks that did not hold.
    pub wrong: Vec<String>,
    /// Per-layer values by metric name (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Self seconds per pass (or per set-up, for spans that occur
    /// only there) by span name.
    busy_s: BTreeMap<&'static str, f64>,
    /// Span durations in microseconds by span name.
    durations_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Findings {
    pub fn own(&mut self, name: &'static str, value: f64, samples: usize) {
        self.own.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Self seconds of `span` per pass (0 when it never ran).
    pub fn busy_s(&self, span: &str) -> f64 {
        self.busy_s.get(span).copied().unwrap_or(0.0)
    }

    /// `work` units per pass ÷ the span's self seconds per pass.
    pub fn rate(&mut self, name: &str, span: &str, work: f64) {
        let busy = self.busy_s(span);
        self.layer(name, if busy > 0.0 { work / busy } else { 0.0 });
    }

    /// Percentile of the pooled durations of the calls of `spans`, in
    /// microseconds (0 when none ran).
    pub fn percentile_us(&self, spans: &[&str], p: f64) -> f64 {
        let mut pool: Vec<f64> = spans
            .iter()
            .filter_map(|s| self.durations_us.get(s))
            .flatten()
            .copied()
            .collect();
        if pool.is_empty() {
            return 0.0;
        }
        stats::sort(&mut pool);
        stats::percentile(&pool, p)
    }
}

/// Everything a run measured.
pub struct Outcome {
    pub tally: Tally,
    /// Why the run is not correct; empty when it is.
    pub wrong: Vec<String>,
    pub passes: usize,
    /// The three metrics every workload reports.
    pub common: Vec<Metric>,
    pub own: Vec<Metric>,
    pub pass_iqr_pct: f64,
    pub drift_pct: f64,
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

/// Root span of a traced pass, and of the probes after it.
pub const PASS: &str = "pass";
pub const PROBES: &str = "probes";

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmHWM line in kB");
    kb * 1024.0 / 1e6
}

/// Runs workload `W` under `opts`.
pub fn run<'a, W: Workload<'a>>(cx: &'a Cx, opts: &Opts) -> Outcome {
    let sp = Spans::new(opts.trace);
    let mut wrong = Vec::new();
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let timed_set_up = |setup_s: &mut Vec<f64>| {
        sp.set_pass(0);
        sp.resume();
        let t = Instant::now();
        let products = W::set_up(cx, &sp);
        setup_s.push(secs(t.elapsed()));
        sp.pause();
        products
    };
    let products = timed_set_up(&mut setup_s);
    let want = W::digest(&products);
    let mut w = W::new(cx, products);

    // Warm-up: fills the program's caches, and is the pass later
    // passes' outputs are compared with where they must repeat.
    tally += w.pass(&sp, false);

    let window = Duration::from_secs_f64(opts.seconds);
    let mut plain = Vec::new(); // seconds of passes in the untraced form
    let mut traced = Vec::new(); // seconds of passes under spans
    let mut quarter = 1u32;
    let mut rewarm = false;
    let mut pass_no = 0u32;
    let start = Instant::now();
    loop {
        let due = if opts.smoke {
            plain.len() + traced.len() >= 2
        } else {
            start.elapsed() >= window * quarter / 4
        };
        if due {
            let again = timed_set_up(&mut setup_s);
            if W::digest(&again) != want {
                wrong.push(format!("set-up {} made other products", setup_s.len()));
            }
            W::discard(again);
            quarter += 1;
            rewarm = true;
            if opts.smoke || quarter > 4 {
                break;
            }
            continue;
        }
        if rewarm {
            tally += w.pass(&sp, false);
            rewarm = false;
            continue;
        }
        pass_no += 1;
        sp.set_pass(pass_no);
        // A traced run alternates the two forms, so that the cost of
        // tracing is read off passes that saw the same host.
        let under_spans = opts.trace && pass_no.is_multiple_of(2);
        if under_spans {
            sp.resume();
            let t = Instant::now();
            tally += sp.time(PASS, || w.pass(&sp, true));
            traced.push(secs(t.elapsed()));
            tally += sp.time(PROBES, || w.probes(&sp));
            sp.pause();
        } else {
            let t = Instant::now();
            tally += w.pass(&sp, true);
            plain.push(secs(t.elapsed()));
        }
    }

    let words = w.words_per_pass() as f64;
    let passes = plain.len();
    let drift_pct = if passes >= 2 {
        let (first, second) = plain.split_at(passes / 2);
        (stats::median_of(second.to_vec()) / stats::median_of(first.to_vec()) - 1.0) * 100.0
    } else {
        0.0
    };
    stats::sort(&mut plain);
    let pass_s = stats::median(&plain);
    let pass_iqr_pct = if passes >= 2 {
        stats::iqr_pct(&plain)
    } else {
        0.0
    };
    let n_setups = setup_s.len();
    let common = vec![
        Metric {
            name: "setup_s",
            value: stats::median_of(setup_s),
            samples: n_setups,
        },
        Metric {
            name: "mwords_per_s",
            value: words / pass_s / 1e6,
            samples: passes,
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            samples: 1,
        },
    ];

    let spans = sp.take();
    let mut out = Findings::default();
    if !traced.is_empty() {
        layer_view(&spans, traced.len(), n_setups, &mut out);
        let traced_s = stats::median_of(traced);
        out.layer("trace_overhead_pct", (traced_s / pass_s - 1.0) * 100.0);
    }
    w.finish(&mut out);
    wrong.append(&mut out.wrong);
    if tally.failed > 0 {
        wrong.push(format!("{} operations failed", tally.failed));
    }
    Outcome {
        tally,
        wrong,
        passes,
        common,
        own: out.own,
        pass_iqr_pct,
        drift_pct,
        layers: out.layers,
        spans,
    }
}

/// Fills `out` with what the spans say: `<span>.busy_s` and
/// `<span>.calls` per pass (per set-up for spans that occur only in
/// set-up), the durations behind the percentiles, and how much of the
/// traced passes' time the layer spans account for.
fn layer_view(spans: &[Span], traced_passes: usize, set_ups: usize, out: &mut Findings) {
    let in_pass = spans::totals(spans, |s| s.pass > 0);
    let in_set_up = spans::totals(spans, |s| s.pass == 0);
    for (name, t, per) in in_set_up
        .iter()
        .filter(|(name, _)| !in_pass.contains_key(*name))
        .map(|(name, t)| (*name, t, set_ups))
        .chain(in_pass.iter().map(|(name, t)| (*name, t, traced_passes)))
    {
        let per = per.max(1) as f64;
        out.busy_s.insert(name, t.self_ns as f64 / 1e9 / per);
        if name != PASS && name != PROBES {
            out.layer(&format!("{name}.busy_s"), t.self_ns as f64 / 1e9 / per);
            out.layer(&format!("{name}.calls"), t.calls as f64 / per);
        }
    }
    for s in spans.iter().filter(|s| s.pass > 0) {
        out.durations_us
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    // Time inside a traced pass that no layer span covers is the
    // pass root's self time: the benchmark's own glue.
    let root = in_pass.get(PASS).copied().unwrap_or_default();
    if root.dur_ns > 0 {
        out.layer(
            "attribution_pct",
            (1.0 - root.self_ns as f64 / root.dur_ns as f64) * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.op(true);
        t.op(false);
        t += Tally {
            attempted: 3,
            failed: 1,
        };
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
    }

    #[test]
    fn the_digest_depends_on_every_value_and_their_order() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([1, 2, 4]));
        assert_ne!(digest([1, 2, 3]), digest([2, 1, 3]));
    }

    #[test]
    fn set_up_only_spans_are_per_set_up_and_pass_spans_per_traced_pass() {
        let span = |id, parent, name, pass, start_ns, end_ns| Span {
            id,
            parent,
            name,
            pass,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "store.encode_v3", 0, 0, 4_000_000_000),
            span(2, 0, "store.open", 0, 0, 1_000_000_000),
            span(3, 0, PASS, 2, 0, 1_000_000_000),
            span(4, 3, "store.open", 2, 0, 900_000_000),
            span(5, 0, PASS, 4, 0, 1_000_000_000),
            span(6, 5, "store.open", 4, 0, 700_000_000),
        ];
        let mut out = Findings::default();
        layer_view(&spans, 2, 4, &mut out);
        assert_eq!(out.layers["store.encode_v3.busy_s"], 1.0);
        assert_eq!(out.layers["store.encode_v3.calls"], 0.25);
        // `store.open` occurs in passes, so its set-up call is left out.
        assert_eq!(out.layers["store.open.busy_s"], 0.8);
        assert_eq!(out.layers["store.open.calls"], 1.0);
        assert!((out.layers["attribution_pct"] - 80.0).abs() < 1e-9);
        assert_eq!(out.percentile_us(&["store.open"], 50.0), 700_000.0);
        assert!(!out.layers.contains_key("pass.busy_s"));
        out.rate("store.open.mwords_per_s", "store.open", 1.6);
        assert_eq!(out.layers["store.open.mwords_per_s"], 2.0);
        out.rate("store.crc.mb_per_s", "store.crc", 5.0);
        assert_eq!(out.layers["store.crc.mb_per_s"], 0.0);
    }
}
