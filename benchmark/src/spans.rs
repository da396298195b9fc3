//! In-memory spans around the benchmark's calls into each layer's
//! public functions.
//!
//! A span is `(name, start, end, parent, pass)`. Spans are recorded
//! only in a `--trace 1` run, kept in memory, and written out as one
//! JSON object per line when the run ends. With tracing off, or
//! paused, [`Spans::time`] calls its closure and reads no clock.
//!
//! All spans are opened and closed by the one load thread, so they
//! nest properly and the children of a span never overlap. A span's
//! *self time* is its duration minus the durations of its direct
//! children: each child interval is subtracted once, from its parent
//! only, never from a grandparent.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. `id` is the 1-based record number, `parent` the
/// id of the enclosing span or 0; `pass` is 0 during set-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one run. It starts paused.
pub struct Spans {
    enabled: bool,
    recording: Cell<bool>,
    epoch: Instant,
    pass: Cell<u32>,
    recs: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Spans {
    /// A recorder that records between [`Spans::resume`] and
    /// [`Spans::pause`] if `enabled`, and never otherwise.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            recording: Cell::new(false),
            epoch: Instant::now(),
            pass: Cell::new(0),
            recs: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.recording.get()
    }

    pub fn resume(&self) {
        self.recording.set(self.enabled);
    }

    pub fn pause(&self) {
        self.recording.set(false);
    }

    /// Spans opened from now on belong to `pass` (0 = set-up).
    pub fn set_pass(&self, pass: u32) {
        self.pass.set(pass);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn open_at(&self, name: &'static str, start: Instant) -> u32 {
        let mut recs = self.recs.borrow_mut();
        let id = recs.len() as u32 + 1;
        recs.push(Span {
            id,
            parent: self.open.borrow().last().copied().unwrap_or(0),
            name,
            pass: self.pass.get(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open.borrow_mut().push(id);
        id
    }

    fn close_at(&self, id: u32, end: Instant) {
        let top = self.open.borrow_mut().pop();
        assert_eq!(top, Some(id), "spans close in the order they nest");
        self.recs.borrow_mut()[id as usize - 1].end_ns = self.ns(end);
    }

    /// Runs `f` inside a span named `name` (or bare, with tracing off).
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            return f();
        }
        let id = self.open_at(name, Instant::now());
        let out = f();
        self.close_at(id, Instant::now());
        out
    }

    /// Records a span from timestamps the caller took anyway (request
    /// latencies are measured with tracing on or off).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if self.on() {
            let id = self.open_at(name, start);
            self.close_at(id, end);
        }
    }

    /// Every span recorded so far (all closed, by construction of
    /// [`Spans::time`]).
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "a span is still open");
        std::mem::take(&mut self.recs.borrow_mut())
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// durations of its direct children.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = s.parent as usize - 1;
        own[p] = own[p]
            .checked_sub(s.dur_ns())
            .expect("children lie inside their parent and do not overlap");
    }
    own
}

/// What all spans of one name add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub self_ns: u64,
    pub dur_ns: u64,
}

/// Per-name totals over the spans `keep` admits.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Total> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        if keep(s) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += own;
            t.dur_ns += s.dur_ns();
        }
    }
    out
}

/// Writes the spans, one JSON object per line.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"pass\":{},\"thread\":0,\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.pass, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            pass: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn a_grandchild_is_subtracted_from_its_parent_only() {
        // root 0..100 ⊃ child 10..70 ⊃ grandchild 20..50.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "child", 10, 70),
            span(3, 2, "grand", 20, 50),
        ];
        assert_eq!(self_ns(&spans), vec![40, 30, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn adjacent_children_are_each_subtracted_once() {
        // Two children sharing the boundary instant 50, then a gap.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 0, 50),
            span(3, 1, "b", 50, 90),
        ];
        assert_eq!(self_ns(&spans), vec![10, 50, 40]);
    }

    #[test]
    fn children_covering_the_parent_leave_it_zero_self_time() {
        let spans = [
            span(1, 0, "root", 5, 25),
            span(2, 1, "a", 5, 15),
            span(3, 1, "b", 15, 25),
        ];
        assert_eq!(self_ns(&spans)[0], 0);
    }

    #[test]
    fn totals_group_by_name_and_respect_the_filter() {
        let mut spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "x", 10, 30),
            span(3, 1, "x", 40, 70),
            span(4, 0, "pass", 100, 150),
            span(5, 4, "x", 100, 150),
        ];
        spans[3].pass = 2;
        spans[4].pass = 2;
        let all = totals(&spans, |_| true);
        assert_eq!(
            all["x"],
            Total {
                calls: 3,
                self_ns: 100,
                dur_ns: 100
            }
        );
        assert_eq!(
            all["pass"],
            Total {
                calls: 2,
                self_ns: 50,
                dur_ns: 150
            }
        );
        let first = totals(&spans, |s| s.pass == 1);
        assert_eq!(first["x"].calls, 2);
        assert_eq!(first["pass"].self_ns, 50);
    }

    #[test]
    fn the_recorder_nests_by_call_structure_and_is_inert_when_off() {
        let sp = Spans::new(true);
        assert_eq!(sp.time("paused", || 2), 2);
        sp.resume();
        sp.set_pass(3);
        let v = sp.time("outer", || sp.time("inner", || 7));
        assert_eq!(v, 7);
        let t0 = Instant::now();
        sp.record("stamped", t0, t0);
        let recs = sp.take();
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[0].name, recs[0].parent), ("outer", 0));
        assert_eq!((recs[1].name, recs[1].parent), ("inner", 1));
        assert_eq!((recs[2].name, recs[2].parent), ("stamped", 0));
        assert!(recs.iter().all(|s| s.pass == 3));
        assert!(recs[0].start_ns <= recs[1].start_ns && recs[1].end_ns <= recs[0].end_ns);

        let off = Spans::new(false);
        off.resume();
        assert_eq!(off.time("outer", || 1), 1);
        off.record("stamped", t0, t0);
        assert!(off.take().is_empty());
    }

    #[test]
    fn the_span_file_is_one_object_a_line() {
        let mut buf = Vec::new();
        write_jsonl(&[span(1, 0, "store.open", 5, 9)], &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"id\":1,\"parent\":0,\"name\":\"store.open\",\"pass\":1,\"thread\":0,\"start_ns\":5,\"end_ns\":9}\n"
        );
    }
}
