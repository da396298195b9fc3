//! The four metric types and their recording primitives.
//!
//! All recording uses relaxed atomics — these are statistics, not
//! synchronization.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// What a metric is; determines which value fields an export carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing event count.
    Counter,
    /// Sampled value with a high-water mark.
    Gauge,
    /// Power-of-two-bucketed value distribution.
    Histogram,
    /// Phase timer: call count plus accumulated nanoseconds.
    Span,
}

impl Kind {
    /// Lower-case name used in exports and `docs/METRICS.md`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Span => "span",
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }

    /// Zeroes the counter (export plumbing; not a recording site).
    pub fn reset(&self) {
        self.v.store(0, Relaxed);
    }
}

/// A sampled value with a high-water mark. Used for queue depths
/// (inc/dec around channel operations) and for end-of-run exports of
/// whole-run totals (hardware counters, parse statistics).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
    hi: AtomicI64,
}

impl Gauge {
    /// Sets the value (and raises the high-water mark).
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Relaxed);
        self.hi.fetch_max(v, Relaxed);
    }

    /// Adds `d` (use a negative delta to decrement) and raises the
    /// high-water mark past the new value if needed.
    #[inline]
    pub fn add(&self, d: i64) {
        let now = self.v.fetch_add(d, Relaxed) + d;
        self.hi.fetch_max(now, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Relaxed)
    }

    /// Highest value ever set or reached.
    pub fn high(&self) -> i64 {
        self.hi.load(Relaxed)
    }

    /// Zeroes value and high-water mark.
    pub fn reset(&self) {
        self.v.store(0, Relaxed);
        self.hi.store(0, Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// `sum`, `min` and `max` are kept exactly alongside the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Exclusive upper bound of bucket `i` (`1` for bucket 0, else `2^i`).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Consistent-enough point-in-time copy (fields are read
    /// individually; quiesce recording for exact snapshots).
    pub fn snap(&self) -> HistSnap {
        HistSnap {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Zeroes everything.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// A plain-data copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnap {
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistSnap {
    /// `(exclusive upper bound, count)` for each non-empty bucket, in
    /// ascending bound order — the export form.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_bound(i), n))
    }
}

/// A phase timer: how many times a phase ran and how long it took.
#[derive(Debug, Default)]
pub struct Span {
    count: AtomicU64,
    total_ns: AtomicU64,
    last_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Span {
    /// Starts timing one execution of the phase; the returned guard
    /// records on drop.
    #[inline]
    pub fn start(&self) -> SpanTimer<'_> {
        SpanTimer {
            span: self,
            t0: Instant::now(),
        }
    }

    /// Records one phase execution of `ns` nanoseconds directly.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.last_ns.store(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Executions recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Accumulated nanoseconds across all executions.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Relaxed)
    }

    /// Duration of the most recent execution.
    pub fn last_ns(&self) -> u64 {
        self.last_ns.load(Relaxed)
    }

    /// Longest single execution.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Relaxed)
    }

    /// Zeroes everything.
    pub fn reset(&self) {
        self.count.store(0, Relaxed);
        self.total_ns.store(0, Relaxed);
        self.last_ns.store(0, Relaxed);
        self.max_ns.store(0, Relaxed);
    }
}

/// Drop guard returned by [`Span::start`].
pub struct SpanTimer<'a> {
    span: &'a Span,
    t0: Instant,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.span.record_ns(self.t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's range is [bound(i-1), bound(i)).
        for v in [0u64, 1, 2, 3, 7, 8, 100, 4095, 4096, 1 << 40] {
            let i = bucket_of(v);
            assert!(v < bucket_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v >= bucket_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 5, 4096] {
            h.record(v);
        }
        let s = h.snap();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 4103);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4096);
        assert_eq!(
            s.nonzero_buckets().collect::<Vec<_>>(),
            vec![(1, 1), (2, 2), (8, 1), (8192, 1)],
            "0→[0,1); 1,1→[1,2); 5→[4,8); 4096→[4096,8192)"
        );
    }

    #[test]
    fn concurrent_histogram_is_exact() {
        let h = std::sync::Arc::new(Histogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..50_000u64 {
                        h.record(t * 1000 + (i % 7));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.add(1);
        g.add(1);
        g.add(-1);
        g.add(1);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high(), 2);
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high(), 7);
    }

    #[test]
    fn span_accumulates() {
        let s = Span::default();
        s.record_ns(10);
        s.record_ns(30);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_ns(), 40);
        assert_eq!(s.last_ns(), 30);
        assert_eq!(s.max_ns(), 30);
        {
            let _t = s.start();
        }
        assert_eq!(s.count(), 3);
    }
}
