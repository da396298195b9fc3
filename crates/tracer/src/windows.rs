//! The three sinks the one-pass framework makes cheap: sampled
//! tracing windows, per-ASID working-set curves, and a phase
//! detector.
//!
//! All three are deterministic: the sampled windows derive their
//! phase offset from a seed (no clocks), and the window analyses use
//! tumbling reference-count windows, so the same trace always yields
//! the same report — the golden-trace tests pin exact values.

use std::collections::BTreeSet;

use wrl_isa::Width;
use wrl_memsim::SpaceKey;
use wrl_trace::{Space, TraceSink, Wants};

use crate::sink::{space_label, AnalysisSink, SinkError, SinkReport};

/// splitmix64: one deterministic scramble of the seed, used to place
/// the duty-cycle's phase offset so that seed choice shifts *where*
/// the windows fall without changing their shape.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic on/off duty-cycle configuration for
/// [`SampledWindowSink`], in trace words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampledCfg {
    /// Words traced per window.
    pub on: u64,
    /// Words skipped between windows.
    pub off: u64,
    /// Seed for the phase offset (where the first window starts).
    pub seed: u64,
}

impl Default for SampledCfg {
    fn default() -> Self {
        SampledCfg {
            on: 1 << 16,
            off: 7 << 16,
            seed: 0,
        }
    }
}

impl SampledCfg {
    /// The full duty-cycle period in words.
    pub fn period(&self) -> u64 {
        self.on + self.off
    }

    /// The seeded phase offset in `[0, period)`.
    pub fn phase(&self) -> u64 {
        if self.off == 0 {
            return 0;
        }
        splitmix64(self.seed) % self.period()
    }
}

/// Sampled tracing windows (Metz & Lencevicius-style duty-cycle
/// profiling): the sink observes only the events inside deterministic
/// on-windows of the word stream and scales its counts up by the duty
/// cycle. Wants the word hook — the duty cycle is defined over raw
/// trace words, the paper's unit of trace volume.
#[derive(Debug)]
pub struct SampledWindowSink {
    cfg: SampledCfg,
    phase: u64,
    active: bool,
    words: u64,
    sampled_words: u64,
    windows: u64,
    sampled_irefs: u64,
    sampled_drefs: u64,
}

impl SampledWindowSink {
    /// A sampler over `cfg`'s duty cycle.
    pub fn new(cfg: SampledCfg) -> SampledWindowSink {
        SampledWindowSink {
            phase: cfg.phase(),
            cfg,
            active: false,
            words: 0,
            sampled_words: 0,
            windows: 0,
            sampled_irefs: 0,
            sampled_drefs: 0,
        }
    }
}

impl TraceSink for SampledWindowSink {
    fn irefs(&mut self, _v: u32, n: u32, _s: Space, _i: bool) {
        if self.active {
            self.sampled_irefs += u64::from(n);
        }
    }

    fn dref(&mut self, _v: u32, _st: bool, _w: Width, _s: Space) {
        if self.active {
            self.sampled_drefs += 1;
        }
    }

    fn wants(&self) -> Wants {
        Wants::Words
    }

    /// Opens or closes the window at `pos`; the events the word
    /// yields are then counted in or out by the state it leaves.
    fn word(&mut self, pos: u64) {
        let now = (pos + self.phase) % self.cfg.period() < self.cfg.on;
        if now && !self.active {
            self.windows += 1;
        }
        self.active = now;
        self.words += 1;
        if now {
            self.sampled_words += 1;
        }
    }
}

impl AnalysisSink for SampledWindowSink {
    fn name(&self) -> String {
        format!("sampled:{}:{}:{}", self.cfg.on, self.cfg.off, self.cfg.seed)
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("windows", self.windows);
        r.push("words", self.words);
        r.push("sampled_words", self.sampled_words);
        r.push("sampled_irefs", self.sampled_irefs);
        r.push("sampled_drefs", self.sampled_drefs);
        let coverage = if self.words == 0 {
            0.0
        } else {
            self.sampled_words as f64 / self.words as f64
        };
        r.push("coverage", coverage);
        // Duty-cycle scale-up: the §3.1 trick of estimating full-run
        // counts from sampled windows.
        let scale = self.cfg.period() as f64 / self.cfg.on as f64;
        r.push("est_irefs", self.sampled_irefs as f64 * scale);
        r.push("est_drefs", self.sampled_drefs as f64 * scale);
        Ok(r)
    }
}

/// Per-ASID working-set curves: distinct 4 KB pages touched per
/// tumbling window of references, one row per address space. The
/// per-row curves of the spaces referenced come back as report
/// children, the kernel's last.
#[derive(Debug)]
pub struct WorkingSetSink {
    /// References per tumbling window.
    window: u64,
    /// Per space, by [`SpaceKey::index`].
    rows: Vec<WsRow>,
}

/// Distinct 4 KB pages of a 32-bit address space.
const PAGES: usize = 1 << 20;

/// One tumbling window of page touches, closed once: pages are
/// appended as they arrive and made a set when the window ends,
/// instead of paying a tree insert per reference.
#[derive(Debug, Default)]
struct PageWindow {
    touched: Vec<u32>,
    refs: u64,
}

impl PageWindow {
    /// Counts up to `n` references to `page`, as many as the window
    /// has room for: how many it counted. The window is full when
    /// `refs` reaches `window`.
    fn touch_n(&mut self, page: u32, n: u64, window: u64) -> u64 {
        if self.touched.last() != Some(&page) {
            // A window longer than the address space has pages
            // compacts in place: at most 8 MB, however long it is.
            if self.touched.len() == 2 * PAGES {
                self.touched.sort_unstable();
                self.touched.dedup();
            }
            self.touched.push(page);
        }
        let took = n.min(window - self.refs);
        self.refs += took;
        took
    }

    /// Ends the window: its distinct pages, sorted.
    fn close(&mut self) -> Vec<u32> {
        self.refs = 0;
        self.touched.sort_unstable();
        self.touched.dedup();
        std::mem::take(&mut self.touched)
    }
}

#[derive(Debug, Default)]
struct WsRow {
    refs: u64,
    pages: BTreeSet<u32>,
    cur: PageWindow,
    windows: u64,
    peak: u64,
    sum: u64,
}

impl WsRow {
    /// Counts `n` references to `page`, rolling each window they fill.
    fn touch(&mut self, page: u32, n: u64, window: u64) {
        self.refs += n;
        let mut left = n;
        while left > 0 {
            left -= self.cur.touch_n(page, left, window);
            if self.cur.refs == window {
                self.roll();
            }
        }
    }

    fn roll(&mut self) {
        let cur = self.cur.close();
        let n = cur.len() as u64;
        self.windows += 1;
        self.peak = self.peak.max(n);
        self.sum += n;
        self.pages.extend(cur);
    }
}

impl WorkingSetSink {
    /// A working-set study with `window` references per window.
    pub fn new(window: u64) -> WorkingSetSink {
        WorkingSetSink {
            window: window.max(1),
            rows: std::iter::repeat_with(WsRow::default)
                .take(SpaceKey::COUNT)
                .collect(),
        }
    }

    fn touch(&mut self, vaddr: u32, n: u32, space: Space) {
        let key = match space {
            Space::User(a) => SpaceKey::User(a),
            Space::Kernel => SpaceKey::Kernel,
        };
        self.rows[key.index() as usize].touch(vaddr >> 12, n.into(), self.window);
    }
}

impl TraceSink for WorkingSetSink {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        self.touch(vaddr, n, space);
    }

    fn dref(&mut self, vaddr: u32, _store: bool, _w: Width, space: Space) {
        self.touch(vaddr, 1, space);
    }
}

impl AnalysisSink for WorkingSetSink {
    fn name(&self) -> String {
        format!("wset:{}", self.window)
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        // A trailing partial window still describes a working set.
        for row in &mut self.rows {
            if row.cur.refs > 0 {
                row.roll();
            }
        }
        // By `SpaceKey::index`, the kernel (slot 0) last.
        let rows = || {
            (1..SpaceKey::COUNT)
                .chain([0])
                .map(|key| (key, &self.rows[key]))
                .filter(|(_, row)| row.refs > 0)
        };
        r.push("spaces", rows().count() as u64);
        r.push("refs", rows().map(|(_, v)| v.refs).sum::<u64>());
        r.push(
            "pages",
            rows().map(|(_, v)| v.pages.len() as u64).sum::<u64>(),
        );
        for (key, row) in rows() {
            let mut child = SinkReport::new(space_label(key.checked_sub(1)));
            child.push("windows", row.windows);
            child.push("pages", row.pages.len() as u64);
            child.push("peak", row.peak);
            let mean = if row.windows == 0 {
                0.0
            } else {
                row.sum as f64 / row.windows as f64
            };
            child.push("mean", mean);
            child.push("refs", row.refs);
            r.children.push(child);
        }
        Ok(r)
    }
}

/// Phase detector: Jaccard distance between the page sets of
/// consecutive tumbling reference windows; a distance above the
/// threshold is a change-point (the program moved to a new phase).
/// The trailing partial window is ignored — its distance would be an
/// artifact of truncation, not a phase change.
#[derive(Debug)]
pub struct PhaseSink {
    window: u64,
    threshold: f64,
    cur: PageWindow,
    /// The last full window's distinct pages, sorted.
    prev: Option<Vec<u32>>,
    windows: u64,
    change_points: Vec<u64>,
    dist_sum: f64,
    dist_max: f64,
    distances: u64,
}

impl PhaseSink {
    /// A detector with `window` references per window and a Jaccard
    /// change-point `threshold` in `(0, 1]`.
    pub fn new(window: u64, threshold: f64) -> PhaseSink {
        PhaseSink {
            window: window.max(1),
            threshold,
            cur: PageWindow::default(),
            prev: None,
            windows: 0,
            change_points: Vec::new(),
            dist_sum: 0.0,
            dist_max: 0.0,
            distances: 0,
        }
    }

    /// Counts `n` references to `vaddr`'s page, rolling each window
    /// they fill.
    fn touch(&mut self, vaddr: u32, n: u32) {
        let mut left = u64::from(n);
        while left > 0 {
            left -= self.cur.touch_n(vaddr >> 12, left, self.window);
            if self.cur.refs == self.window {
                self.roll();
            }
        }
    }

    fn roll(&mut self) {
        let cur = self.cur.close();
        self.windows += 1;
        if let Some(prev) = &self.prev {
            let inter = cur.iter().filter(|p| prev.binary_search(p).is_ok()).count();
            let union = (prev.len() + cur.len() - inter) as f64;
            let inter = inter as f64;
            let d = if union == 0.0 {
                0.0
            } else {
                1.0 - inter / union
            };
            self.dist_sum += d;
            self.dist_max = self.dist_max.max(d);
            self.distances += 1;
            if d > self.threshold {
                self.change_points.push(self.windows - 1);
            }
        }
        self.prev = Some(cur);
    }
}

impl TraceSink for PhaseSink {
    fn irefs(&mut self, vaddr: u32, n: u32, _space: Space, _idle: bool) {
        self.touch(vaddr, n);
    }

    fn dref(&mut self, vaddr: u32, _store: bool, _w: Width, _s: Space) {
        self.touch(vaddr, 1);
    }
}

impl AnalysisSink for PhaseSink {
    fn name(&self) -> String {
        format!("phase:{}", self.window)
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("windows", self.windows);
        r.push("change_points", self.change_points.len() as u64);
        let mean = if self.distances == 0 {
            0.0
        } else {
            self.dist_sum / self.distances as f64
        };
        r.push("mean_distance", mean);
        r.push("max_distance", self.dist_max);
        for (i, cp) in self.change_points.iter().take(8).enumerate() {
            r.push(format!("cp{i}"), *cp);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sampler_duty_cycle_is_exact_and_seeded() {
        let cfg = SampledCfg {
            on: 4,
            off: 4,
            seed: 0,
        };
        let mut s = SampledWindowSink::new(cfg);
        for pos in 0..64u64 {
            s.word(pos);
            s.irefs(0x8000_0000, 1, Space::Kernel, false);
        }
        let r = s.finish().unwrap();
        // Exactly half the words are inside on-windows.
        assert_eq!(r.get_u64("sampled_words"), Some(32));
        assert_eq!(r.get_u64("sampled_irefs"), Some(32));
        // est scales back to the full run.
        assert_eq!(r.get("est_irefs"), Some(&crate::Value::F64(64.0)));
        // A different seed shifts the phase, not the coverage.
        let mut s2 = SampledWindowSink::new(SampledCfg { seed: 1, ..cfg });
        for pos in 0..64u64 {
            s2.word(pos);
        }
        assert_eq!(s2.finish().unwrap().get_u64("sampled_words"), Some(32));
    }

    #[test]
    fn working_set_counts_distinct_pages_per_window() {
        let mut w = WorkingSetSink::new(4);
        // Window 1: pages 0,1 (4 refs). Window 2: page 2 only.
        for va in [0x0000u32, 0x0004, 0x1000, 0x1004] {
            w.irefs(va, 1, Space::User(1), false);
        }
        for va in [0x2000u32, 0x2004, 0x2008, 0x200c] {
            w.irefs(va, 1, Space::User(1), false);
        }
        w.dref(0x8000_0000, false, Width::Word, Space::Kernel);
        let r = w.finish().unwrap();
        assert_eq!(r.get_u64("spaces"), Some(2));
        let u1 = &r.children[0];
        assert_eq!(u1.sink, "asid:1");
        assert_eq!(u1.get_u64("windows"), Some(2));
        assert_eq!(u1.get_u64("peak"), Some(2));
        assert_eq!(u1.get("mean"), Some(&crate::Value::F64(1.5)));
        assert_eq!(r.children[1].sink, "kernel");
        assert_eq!(r.children[1].get_u64("windows"), Some(1));
    }

    /// A window is a set however long it runs: pages that alternate
    /// defeat the last-page memo, and a window longer than twice the
    /// address space's pages compacts instead of growing.
    #[test]
    fn a_page_window_is_a_bounded_set() {
        let mut w = PageWindow::default();
        for i in 0..2 * PAGES as u32 + 10 {
            assert_eq!(w.touch_n(7 - (i & 1) * 4, 1, u64::MAX), 1);
        }
        assert!(w.touched.len() <= 12, "compacted at 2 * PAGES");
        let full = w.refs + 1;
        assert_eq!(w.touch_n(5, 3, full), 1, "the window's last reference");
        assert_eq!(w.close(), [3, 5, 7]);
        assert_eq!((w.refs, w.touched.len()), (0, 0));
    }

    proptest! {
        /// `touch_n` is `n` references counted one at a time: against
        /// a window kept as a set, the same windows close with the
        /// same pages, for runs that cross window ends.
        #[test]
        fn touch_n_is_n_touches(
            window in 1u64..12,
            runs in proptest::collection::vec((0u32..6, 1u64..30), 1..60),
        ) {
            let mut w = PageWindow::default();
            let (mut closed, mut model_closed) = (Vec::new(), Vec::new());
            let (mut model, mut model_refs) = (BTreeSet::new(), 0u64);
            for &(page, n) in &runs {
                let mut left = n;
                while left > 0 {
                    left -= w.touch_n(page, left, window);
                    if w.refs == window {
                        closed.push(w.close());
                    }
                }
                for _ in 0..n {
                    model.insert(page);
                    model_refs += 1;
                    if model_refs == window {
                        model_closed.push(Vec::from_iter(std::mem::take(&mut model)));
                        model_refs = 0;
                    }
                }
            }
            prop_assert_eq!(closed, model_closed);
            prop_assert_eq!(w.refs, model_refs);
            prop_assert_eq!(w.close(), Vec::from_iter(model));
        }
    }

    #[test]
    fn phase_detector_flags_a_working_set_change() {
        let mut p = PhaseSink::new(4, 0.5);
        // Two identical windows on pages {0,1}, then a jump to {8,9}.
        for _ in 0..2 {
            for va in [0x0000u32, 0x0100, 0x1000, 0x1100] {
                p.irefs(va, 1, Space::User(1), false);
            }
        }
        for va in [0x8000u32, 0x8100, 0x9000, 0x9100] {
            p.irefs(va, 1, Space::User(1), false);
        }
        let r = p.finish().unwrap();
        assert_eq!(r.get_u64("windows"), Some(3));
        assert_eq!(r.get_u64("change_points"), Some(1));
        assert_eq!(r.get_u64("cp0"), Some(2));
        assert_eq!(r.get("max_distance"), Some(&crate::Value::F64(1.0)));
    }
}
