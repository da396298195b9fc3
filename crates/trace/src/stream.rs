//! The driver: the one source → parse → sink loop.
//!
//! The paper's tracing system analyses the trace *while it is being
//! generated*: the kernel fills a trace buffer, and on every
//! buffer-full interrupt the analysis program drains it and feeds the
//! words to the analyses before execution resumes (§3.2–§3.4). One
//! parser, the sinks inline, the traced system stopped meanwhile.
//! [`Driver`] is that loop and the only one in the repository:
//!
//! ```text
//! live drain callback ─┐
//! word slice ──────────┼─▶ feed ─▶ TraceParser ─▶ sink
//! store BlockReader ───┘  (source seam)
//! ```
//!
//! A source is whoever calls [`Driver::feed`]; the sink is any
//! [`TraceSink`] — a simulator, a `wrl-tracer` stack or a pair of
//! both. A store pass spread over workers is one driver per worker,
//! each with its own parser and its own share of the sinks. `feed`
//! returns when the words are analysed, which is the strictest
//! backpressure there is, and what a sink observes never depends on
//! how the stream was cut into `feed` calls: the parser is incremental
//! and the driver adds no state of its own between chunks.
//!
//! Fault injection has one seam, [`SeamHooks`]: the driver consults
//! it once per fed chunk.

use std::sync::Arc;
use std::time::Duration;

use crate::parser::{ParseError, ParseStats, Space, TraceParser, TraceSink, Wants};
use wrl_isa::Width;

wrl_obs::metrics! {
    /// `wrl-obs` metrics for the driver, registered by every
    /// [`Driver::new`] (registration is idempotent; all drivers in a
    /// process share the counters).
    #[derive(Clone)]
    pub struct StreamObs {
        chunks: counter "stream.chunks", "chunks", "§3.2",
            "Chunks fed to a driver (drained buffers, slices or store blocks); each worker's driver counts its own, so a 2-worker store pass counts the blocks twice.";
        words: counter "stream.words", "words", "§3.2",
            "Raw trace words fed to a driver; each worker's driver counts its own, so a 2-worker store pass feeds the store's words twice.";
        chunk_words: histogram "stream.chunk.words", "words", "§3.2",
            "Distribution of chunk sizes (words per fed chunk, recorded by each worker's driver).";
        lost_chunks: counter "stream.chunks.lost", "chunks", "§4.3",
            "Chunks fed but never parsed (lost buffers; 0 on a healthy run).";
    }
}

/// One parsed reference event, as emitted by [`TraceParser`] into a
/// [`TraceSink`]. Buffered by [`EventVec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefEvent {
    /// A run of instruction fetches ([`TraceSink::irefs`]).
    Iref {
        /// Uninstrumented virtual address of the first.
        vaddr: u32,
        /// Fetches in the run, at `vaddr`, `vaddr + 4`, ...
        n: u32,
        /// Owning address space.
        space: Space,
        /// Whether the block is idle-marked.
        idle: bool,
    },
    /// A data reference.
    Dref {
        /// Virtual address.
        vaddr: u32,
        /// Store (vs. load).
        store: bool,
        /// Access width.
        width: Width,
        /// Owning address space.
        space: Space,
    },
    /// The base context switched to the given ASID.
    CtxSwitch(u8),
    /// Trace generation suspended (`false`) or resumed (`true`).
    ModeTransition(bool),
}

impl RefEvent {
    /// Replays this event into a sink.
    pub fn apply(self, sink: &mut dyn TraceSink) {
        match self {
            RefEvent::Iref {
                vaddr,
                n,
                space,
                idle,
            } => sink.irefs(vaddr, n, space, idle),
            RefEvent::Dref {
                vaddr,
                store,
                width,
                space,
            } => sink.dref(vaddr, store, width, space),
            RefEvent::CtxSwitch(asid) => sink.ctx_switch(asid),
            RefEvent::ModeTransition(g) => sink.mode_transition(g),
        }
    }
}

/// A [`TraceSink`] that simply buffers every event in order, for
/// later replay with [`RefEvent::apply`]. Lets a caller separate the
/// *parse* and *simulate* phases of a batch analysis (the metered
/// harness times them individually) without changing what the
/// downstream sink observes.
#[derive(Clone, Debug, Default)]
pub struct EventVec(pub Vec<RefEvent>);

impl TraceSink for EventVec {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool) {
        self.0.push(RefEvent::Iref {
            vaddr,
            n,
            space,
            idle,
        });
    }

    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.0.push(RefEvent::Dref {
            vaddr,
            store,
            width,
            space,
        });
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.0.push(RefEvent::CtxSwitch(asid));
    }

    fn mode_transition(&mut self, generating: bool) {
        self.0.push(RefEvent::ModeTransition(generating));
    }
}

/// What a [`SeamHooks`] callback decides to do with one fed chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFate {
    /// Parse the chunk normally.
    Deliver,
    /// Sleep first, then parse. A stall may only cost throughput.
    Stall(Duration),
    /// Discard the chunk (a lost trace buffer). The loss must be
    /// *detected*: the driver counts it in
    /// [`DriveReport::lost_chunks`].
    Drop,
}

/// Deterministic perturbation hooks for chaos-testing (see the
/// `wrl-fault` crate). [`SeamHooks::default`] delivers everything
/// and costs one `Option` check per chunk.
#[derive(Clone, Default)]
pub struct SeamHooks {
    item: Option<Arc<dyn Fn(u64) -> ChunkFate + Send + Sync>>,
}

impl SeamHooks {
    /// Hooks that consult `f` with the chunk's sequence number (its
    /// count of earlier `feed` calls) for every fed chunk.
    pub fn new(f: impl Fn(u64) -> ChunkFate + Send + Sync + 'static) -> SeamHooks {
        SeamHooks {
            item: Some(Arc::new(f)),
        }
    }

    /// Resolves the fate of chunk `seq`, sleeping out any stall here.
    /// Returns `false` if the chunk is to be dropped.
    pub fn deliver(&self, seq: u64) -> bool {
        match &self.item {
            None => true,
            Some(f) => match f(seq) {
                ChunkFate::Deliver => true,
                ChunkFate::Stall(d) => {
                    std::thread::sleep(d);
                    true
                }
                ChunkFate::Drop => false,
            },
        }
    }
}

/// What a finished driver reports: the parser's statistics and
/// errors, plus chunk accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Parser statistics, identical to a batch `parse_all` (all zero
    /// for a sink that wants [`Wants::Nothing`]).
    pub parse: ParseStats,
    /// Parse errors in stream order (first few kept in detail).
    pub errors: Vec<ParseError>,
    /// Chunks fed.
    pub chunks: u64,
    /// Raw words fed.
    pub words: u64,
    /// Chunks fed but never parsed. Always 0 in normal operation; a
    /// lost trace buffer (an injected [`ChunkFate::Drop`]) is
    /// *detected* here rather than silently shortening the stream.
    pub lost_chunks: u64,
}

/// The incremental driver: owns the parser and the sink, takes the
/// stream one chunk at a time. Construct, [`Driver::feed`] each
/// drained buffer, slice or decoded block in stream order, then
/// [`Driver::finish`].
pub struct Driver<S: TraceSink> {
    parser: TraceParser,
    sink: S,
    wants: Wants,
    hooks: SeamHooks,
    obs: StreamObs,
    report: DriveReport,
}

impl<S: TraceSink> Driver<S> {
    /// A driver parsing with `parser` (which carries the basic-block
    /// tables) into `sink`. What the sink wants is sampled here, once
    /// per pass.
    pub fn new(parser: TraceParser, sink: S) -> Driver<S> {
        Driver::with_hooks(parser, sink, SeamHooks::default())
    }

    /// Like [`Driver::new`], with fault-injection hooks consulted for
    /// every fed chunk.
    pub fn with_hooks(parser: TraceParser, sink: S, hooks: SeamHooks) -> Driver<S> {
        Driver {
            parser,
            wants: sink.wants(),
            sink,
            hooks,
            obs: StreamObs::register(),
            report: DriveReport::default(),
        }
    }

    /// The sink, for reading its state between chunks.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Analyses one chunk of raw trace words, returning when the sink
    /// has seen every event in it. Chunk boundaries are arbitrary: a
    /// basic block may straddle two calls.
    pub fn feed(&mut self, words: &[u32]) {
        if words.is_empty() {
            return;
        }
        let seq = self.report.chunks;
        let pos = self.report.words;
        self.report.chunks += 1;
        self.report.words += words.len() as u64;
        self.obs.chunks.inc();
        self.obs.words.add(words.len() as u64);
        self.obs.chunk_words.record(words.len() as u64);
        if !self.hooks.deliver(seq) {
            self.report.lost_chunks += 1;
            return;
        }
        match self.wants {
            Wants::Nothing => {}
            Wants::Events => self.parser.push_words(words, &mut self.sink),
            Wants::Words => {
                for (at, &w) in (pos..).zip(words) {
                    self.sink.word(at);
                    self.parser.push_word(w, &mut self.sink);
                }
            }
        }
    }

    /// Finalises the parse (flushing partial blocks exactly as
    /// `parse_all` would) and returns the report plus the sink.
    pub fn finish(mut self) -> (DriveReport, S) {
        if self.wants != Wants::Nothing {
            self.parser.finish(&mut self.sink);
        }
        self.obs.lost_chunks.add(self.report.lost_chunks);
        self.report.parse = self.parser.stats;
        self.report.errors = self.parser.errors;
        (self.report, self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
    use crate::format::{ctl, CtlOp};
    use crate::parser::CollectSink;
    use std::sync::Arc;

    const USER_BB: u32 = 0x0040_0000;
    const KERNEL_BB: u32 = 0x8001_0000;

    fn table() -> Arc<BbTable> {
        let mut t = BbTable::new();
        t.insert(
            USER_BB,
            BbInfo {
                orig_vaddr: 0x0040_1000,
                n_insts: 3,
                ops: vec![MemOp {
                    index: 1,
                    store: false,
                    width: Width::Word,
                }],
                flags: BbTraceFlags::default(),
            },
        );
        t.insert(
            KERNEL_BB,
            BbInfo {
                orig_vaddr: 0x8002_0000,
                n_insts: 2,
                ops: vec![MemOp {
                    index: 0,
                    store: true,
                    width: Width::Word,
                }],
                flags: BbTraceFlags::default(),
            },
        );
        Arc::new(t)
    }

    /// A trace exercising blocks, memory words, kernel entry/exit and
    /// a context switch, long enough to span many small chunks.
    fn words() -> Vec<u32> {
        let mut w = Vec::new();
        for i in 0..200u32 {
            w.push(USER_BB); // user block with one load
            w.push(0x7000_0000 + i * 8); // its memory address
            if i % 7 == 0 {
                w.push(ctl(CtlOp::KEnter, 0));
                w.push(KERNEL_BB); // kernel block with one store
                w.push(0x8030_0000 + i * 4);
                w.push(ctl(CtlOp::KExit, 0));
            }
            if i == 100 {
                w.push(ctl(CtlOp::CtxSwitch, 5));
            }
        }
        w
    }

    fn fresh_parser() -> TraceParser {
        let mut p = TraceParser::new(table());
        p.set_user_table(0, table());
        p.set_user_table(5, table());
        p
    }

    fn batch_reference() -> (ParseStats, CollectSink) {
        let mut p = fresh_parser();
        let mut sink = CollectSink::default();
        p.parse_all(&words(), &mut sink);
        (p.stats.clone(), sink)
    }

    #[test]
    fn matches_batch_for_any_chunking() {
        let (ref_stats, ref_sink) = batch_reference();
        let w = words();
        for feed_len in [1usize, 3, 17, 64, 4096] {
            let mut d = Driver::new(fresh_parser(), CollectSink::default());
            for piece in w.chunks(feed_len) {
                d.feed(piece);
            }
            let (report, sink) = d.finish();
            assert_eq!(report.parse, ref_stats, "chunk={feed_len}");
            assert_eq!(sink.irefs, ref_sink.irefs, "chunk={feed_len}");
            assert_eq!(sink.drefs, ref_sink.drefs);
            assert_eq!(sink.switches, ref_sink.switches);
            assert_eq!(report.words, w.len() as u64);
            assert_eq!(report.chunks, w.len().div_ceil(feed_len) as u64);
            assert_eq!(report.lost_chunks, 0);
        }
    }

    #[test]
    fn empty_stream_finishes_clean() {
        let (report, sink) = Driver::new(fresh_parser(), CollectSink::default()).finish();
        assert_eq!(report, DriveReport::default());
        assert!(sink.irefs.is_empty());
    }

    #[test]
    fn event_vec_replay_matches_direct_parse() {
        // Parsing into an EventVec and replaying must equal parsing
        // straight into the sink — the metered harness depends on it.
        let mut direct = CollectSink::default();
        let mut p = fresh_parser();
        p.parse_all(&words(), &mut direct);

        let mut buf = EventVec::default();
        let mut p2 = fresh_parser();
        p2.parse_all(&words(), &mut buf);
        let mut replayed = CollectSink::default();
        for ev in buf.0 {
            ev.apply(&mut replayed);
        }
        assert_eq!(replayed.irefs, direct.irefs);
        assert_eq!(replayed.drefs, direct.drefs);
        assert_eq!(replayed.switches, direct.switches);
    }

    /// Records the word hook and where events land after it.
    #[derive(Default)]
    struct WordLog {
        wants_words: bool,
        log: Vec<(char, u64)>,
    }

    impl TraceSink for WordLog {
        fn irefs(&mut self, _v: u32, n: u32, _s: Space, _i: bool) {
            self.log.push(('i', n.into()));
        }
        fn dref(&mut self, _v: u32, _st: bool, _w: Width, _s: Space) {}
        fn wants(&self) -> Wants {
            if self.wants_words {
                Wants::Words
            } else {
                Wants::Nothing
            }
        }
        fn word(&mut self, pos: u64) {
            self.log.push(('w', pos));
        }
    }

    #[test]
    fn the_word_hook_precedes_each_word_across_chunks() {
        let mut d = Driver::new(
            fresh_parser(),
            WordLog {
                wants_words: true,
                ..WordLog::default()
            },
        );
        // The user block's three I-refs: a run of two up to its load
        // when the address word arrives, a run of one when the stream
        // ends.
        d.feed(&[USER_BB]);
        d.feed(&[0x7000_0000]);
        let (report, sink) = d.finish();
        assert_eq!(report.parse.user_irefs, 3);
        assert_eq!(sink.log, [('w', 0), ('w', 1), ('i', 2), ('i', 1)]);
    }

    #[test]
    fn a_sink_that_wants_nothing_is_counted_not_parsed() {
        let mut d = Driver::new(fresh_parser(), WordLog::default());
        d.feed(&words());
        let (report, sink) = d.finish();
        assert_eq!(report.parse, ParseStats::default());
        assert_eq!(report.words, words().len() as u64);
        assert!(sink.log.is_empty());
    }

    #[test]
    fn stalls_degrade_throughput_never_results() {
        let (ref_stats, ref_sink) = batch_reference();
        let hooks = SeamHooks::new(|seq| {
            if seq % 3 == 0 {
                ChunkFate::Stall(Duration::from_micros(200))
            } else {
                ChunkFate::Deliver
            }
        });
        let mut d = Driver::with_hooks(fresh_parser(), CollectSink::default(), hooks);
        for piece in words().chunks(16) {
            d.feed(piece);
        }
        let (report, sink) = d.finish();
        assert_eq!(report.parse, ref_stats);
        assert_eq!(report.lost_chunks, 0);
        assert_eq!(sink.irefs, ref_sink.irefs);
        assert_eq!(sink.drefs, ref_sink.drefs);
    }

    #[test]
    fn dropped_chunk_is_counted_lost() {
        let hooks = SeamHooks::new(|seq| {
            if seq == 1 {
                ChunkFate::Drop
            } else {
                ChunkFate::Deliver
            }
        });
        let mut d = Driver::with_hooks(fresh_parser(), CollectSink::default(), hooks);
        for piece in words().chunks(16) {
            d.feed(piece);
        }
        let (report, _) = d.finish();
        assert_eq!(report.lost_chunks, 1);
        assert_eq!(report.parse.words + 16, report.words);
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut d = Driver::new(fresh_parser(), CollectSink::default());
        // 0x0050_0000: a user address with no table entry.
        d.feed(&[USER_BB, 0x7000_0000, 0x0050_0000]);
        let (report, _) = d.finish();
        assert_eq!(report.parse.errors, 1);
        assert_eq!(report.errors.len(), 1);
    }
}
