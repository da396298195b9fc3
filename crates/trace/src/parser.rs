//! The trace-parsing library.
//!
//! Converts the raw word stream extracted from the in-kernel buffer
//! into an interleaved instruction/data reference stream, using the
//! static basic-block tables. Handles the hard cases §3.3 calls out:
//! user activity interrupted mid-block by the kernel, nested kernel
//! interrupts, and context switches — each context's partially-parsed
//! block is suspended and resumed so no references are lost or
//! misattributed. All of §4.3's defensive redundancy checks live
//! here: unknown block ids, block ids in the wrong address space,
//! missing memory words and junk control words are detected and
//! reported rather than silently misparsed.

use std::sync::Arc;

use crate::bbinfo::{BbInfo, BbTable};
use crate::format::{classify, is_kernel_addr, CtlOp, TraceWord};
use wrl_isa::Width;

/// Which address space a reference belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// A user process, identified by ASID.
    User(u8),
    /// The kernel.
    Kernel,
}

/// How much of the stream a sink needs. [`crate::Driver`] asks once
/// per pass and does no more work than the answer requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wants {
    /// Nothing: the words are counted and never parsed.
    Nothing,
    /// The parsed reference events.
    Events,
    /// The events, with [`TraceSink::word`] called before every raw
    /// word is parsed.
    Words,
}

/// Bytes in a page: a run of instruction fetches never crosses one.
const PAGE_BYTES: u32 = 4096;

/// Consumer of the parsed reference stream (typically a memory-system
/// simulator).
///
/// Six methods, one per job: the four event hooks, [`TraceSink::wants`]
/// and the word hook [`TraceSink::word`]. Only `irefs` and `dref` are
/// required. Instruction fetches arrive as *runs*: the trace writes
/// one word per basic block, and the fetches between two memory
/// operations are implied by the block's table entry (§3.5), so the
/// parser hands them over as one call rather than one call each; a
/// single fetch is a run of one.
pub trait TraceSink {
    /// `n >= 1` instruction fetches at `vaddr`, `vaddr + 4`, ...
    /// (uninstrumented addresses), all on one 4 KB page, in one space
    /// and one idle state.
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool);
    /// A data reference at `vaddr`.
    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space);
    /// The base context switched to the given ASID.
    fn ctx_switch(&mut self, _asid: u8) {}
    /// Trace generation was suspended (`false`) or resumed (`true`).
    fn mode_transition(&mut self, _generating: bool) {}
    /// What the driver must deliver. Constant over the sink's
    /// lifetime.
    fn wants(&self) -> Wants {
        Wants::Events
    }
    /// Called before the raw word at stream position `pos` is parsed
    /// (only for a sink that [`Wants::Words`]): the events that word
    /// yields follow.
    fn word(&mut self, _pos: u64) {}
}

/// A pair of sinks is a sink: every callback goes to both, in order —
/// the tee that lets one parse feed two consumers.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool) {
        self.0.irefs(vaddr, n, space, idle);
        self.1.irefs(vaddr, n, space, idle);
    }
    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.0.dref(vaddr, store, width, space);
        self.1.dref(vaddr, store, width, space);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.0.ctx_switch(asid);
        self.1.ctx_switch(asid);
    }
    fn mode_transition(&mut self, generating: bool) {
        self.0.mode_transition(generating);
        self.1.mode_transition(generating);
    }
    fn wants(&self) -> Wants {
        self.0.wants().max(self.1.wants())
    }
    fn word(&mut self, pos: u64) {
        self.0.word(pos);
        self.1.word(pos);
    }
}

/// The unit sink discards every event: for a parse whose only output
/// is [`TraceParser::stats`] and [`TraceParser::errors`].
impl TraceSink for () {
    fn irefs(&mut self, _vaddr: u32, _n: u32, _space: Space, _idle: bool) {}
    fn dref(&mut self, _vaddr: u32, _store: bool, _width: Width, _space: Space) {}
}

/// Parse-time error, recorded with the word position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// An address appeared where a block id was required, but no table
    /// entry exists.
    UnknownBb {
        /// The offending word.
        word: u32,
        /// Word index in the stream.
        pos: u64,
        /// The context that tried to consume it.
        space: Space,
    },
    /// A kernel-range block id appeared in a user context (violates
    /// the "kernel instruction addresses are in the kernel instruction
    /// address space" sanity check).
    WrongSpace {
        /// The offending word.
        word: u32,
        /// Word index in the stream.
        pos: u64,
    },
    /// A value in the control range with no known opcode.
    BadControl {
        /// The offending word.
        word: u32,
        /// Word index in the stream.
        pos: u64,
    },
    /// The stream ended inside a block's memory words.
    Truncated {
        /// The block whose words are missing.
        bb_id: u32,
        /// Memory words still owed.
        missing: usize,
    },
    /// A `KExit` with no matching `KEnter`.
    UnbalancedKExit {
        /// Word index in the stream.
        pos: u64,
    },
    /// No basic-block table registered for a user ASID.
    NoTableForAsid {
        /// The ASID missing a table.
        asid: u8,
    },
}

/// Aggregate statistics over a parse.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Raw words consumed.
    pub words: u64,
    /// Basic-block records.
    pub bb_records: u64,
    /// Memory-reference records.
    pub mem_records: u64,
    /// Instruction references emitted, user.
    pub user_irefs: u64,
    /// Instruction references emitted, kernel.
    pub kernel_irefs: u64,
    /// Data references emitted, user.
    pub user_drefs: u64,
    /// Data references emitted, kernel.
    pub kernel_drefs: u64,
    /// Instructions executed inside idle-marked blocks (§3.5's
    /// idle-loop counter).
    pub idle_insts: u64,
    /// Generation→analysis transitions (the "dirt" events of §4.3).
    pub mode_transitions: u64,
    /// Kernel entries observed.
    pub kernel_entries: u64,
    /// Context switches observed.
    pub ctx_switches: u64,
    /// Total errors detected (first few are kept in detail).
    pub errors: u64,
}

/// A block some context has open: which block, and how far in.
#[derive(Clone, Copy, Debug)]
struct Pending {
    bb_id: u32,
    /// The block's position in the table of the context that opened
    /// it, resolved once, when the id word arrived.
    pos: u32,
    /// Instructions already emitted as I-refs.
    emitted: u16,
    /// Memory operations already consumed.
    ops_done: u32,
}

/// What the parser keeps per user address space.
#[derive(Default)]
struct UserCtx {
    table: Option<Arc<BbTable>>,
    /// The partial block suspended or running in this space; its
    /// position indexes `table`.
    pending: Option<Pending>,
    /// `NoTableForAsid` was already reported for this ASID.
    missing_reported: bool,
}

/// The streaming trace parser.
pub struct TraceParser {
    kernel_tab: Arc<BbTable>,
    /// One context per ASID: the whole key space, so the end-of-stream
    /// flush walks it in ASID order.
    users: Box<[UserCtx; 256]>,
    base_asid: u8,
    /// Kernel nesting frames; each holds that activation's partial bb.
    kstack: Vec<Option<Pending>>,
    idle: bool,
    pos: u64,
    /// Detailed errors (capped at [`TraceParser::MAX_ERRORS`]).
    pub errors: Vec<ParseError>,
    /// Aggregate statistics.
    pub stats: ParseStats,
    /// Live error tallies (§4.3), bumped as errors are detected.
    obs: Option<crate::obs::ParserObs>,
}

/// Emits I-refs for instructions `[p.emitted, upto)` of `p`'s block,
/// which `info` describes: one run per page they touch.
fn emit_irefs(
    stats: &mut ParseStats,
    idle: bool,
    info: &BbInfo,
    p: &mut Pending,
    upto: u16,
    space: Space,
    sink: &mut dyn TraceSink,
) {
    let upto = upto.min(info.n_insts);
    let mut i = p.emitted;
    while i < upto {
        // A table read from a file may put a block anywhere; the
        // address space wraps rather than the arithmetic, and address
        // 0 starts a page like any other.
        let vaddr = info.orig_vaddr.wrapping_add(u32::from(i) * 4);
        let on_page = (PAGE_BYTES - vaddr % PAGE_BYTES).div_ceil(4);
        let n = on_page.min(u32::from(upto - i));
        sink.irefs(vaddr, n, space, idle);
        i += n as u16;
    }
    let n = u64::from(upto.saturating_sub(p.emitted));
    match space {
        Space::Kernel => stats.kernel_irefs += n,
        Space::User(_) => stats.user_irefs += n,
    }
    if idle {
        stats.idle_insts += n;
    }
    p.emitted = p.emitted.max(upto);
}

/// Flushes the remainder of an open block (its trailing I-refs after
/// the last memory operation).
fn flush(
    stats: &mut ParseStats,
    idle: bool,
    tab: &BbTable,
    open: Option<Pending>,
    space: Space,
    sink: &mut dyn TraceSink,
) {
    if let Some(mut p) = open {
        emit_irefs(stats, idle, tab.at(p.pos), &mut p, u16::MAX, space, sink);
    }
}

impl TraceParser {
    /// Maximum number of errors kept in detail.
    pub const MAX_ERRORS: usize = 100;

    /// Creates a parser with the kernel's basic-block table.
    pub fn new(kernel_tab: Arc<BbTable>) -> TraceParser {
        TraceParser::with_tables(kernel_tab, [])
    }

    /// Creates a parser with the kernel's table and one table per
    /// user address space. The tables are shared, not copied.
    pub fn with_tables(
        kernel_tab: Arc<BbTable>,
        users: impl IntoIterator<Item = (u8, Arc<BbTable>)>,
    ) -> TraceParser {
        let mut p = TraceParser {
            kernel_tab,
            users: Box::new(std::array::from_fn(|_| UserCtx::default())),
            base_asid: 0,
            kstack: Vec::new(),
            idle: false,
            pos: 0,
            errors: Vec::new(),
            stats: ParseStats::default(),
            obs: None,
        };
        for (asid, tab) in users {
            p.set_user_table(asid, tab);
        }
        p
    }

    /// Registers the basic-block table for a user address space.
    ///
    /// A block the space still has open is abandoned: its position
    /// belongs to the table being replaced, and the new table
    /// describes a different binary. Nothing more is emitted for it
    /// and no truncation is reported.
    pub fn set_user_table(&mut self, asid: u8, tab: Arc<BbTable>) {
        let ctx = &mut self.users[asid as usize];
        ctx.table = Some(tab);
        ctx.pending = None;
    }

    /// Attaches live error-tally counters: every defensive-check
    /// error detected from now on also bumps its
    /// `trace.parse.error.*` counter (see `docs/METRICS.md`).
    pub fn attach_obs(&mut self, obs: crate::obs::ParserObs) {
        self.obs = Some(obs);
    }

    fn err(&mut self, e: ParseError) {
        self.stats.errors += 1;
        if let Some(obs) = &self.obs {
            obs.tally(&e);
        }
        if self.errors.len() < Self::MAX_ERRORS {
            self.errors.push(e);
        }
    }

    /// Consumes one trace word.
    pub fn push_word(&mut self, w: u32, sink: &mut dyn TraceSink) {
        let pos = self.pos;
        self.pos += 1;
        self.stats.words += 1;
        match classify(w) {
            TraceWord::Ctl(c) => match c.op {
                CtlOp::CtxSwitch => {
                    self.base_asid = c.payload;
                    self.stats.ctx_switches += 1;
                    let ctx = &mut self.users[c.payload as usize];
                    if ctx.table.is_none() && !std::mem::replace(&mut ctx.missing_reported, true) {
                        self.err(ParseError::NoTableForAsid { asid: c.payload });
                    }
                    sink.ctx_switch(c.payload);
                }
                CtlOp::KEnter => {
                    self.kstack.push(None);
                    self.stats.kernel_entries += 1;
                }
                CtlOp::KExit => match self.kstack.pop() {
                    None => self.err(ParseError::UnbalancedKExit { pos }),
                    Some(frame) => self.flush_kernel(frame, sink),
                },
                CtlOp::TraceOn => {
                    sink.mode_transition(true);
                }
                CtlOp::TraceOff => {
                    self.stats.mode_transitions += 1;
                    sink.mode_transition(false);
                }
                CtlOp::Eof => self.finish(sink),
            },
            TraceWord::BadCtl(word) => {
                self.err(ParseError::BadControl { word, pos });
            }
            TraceWord::Addr(addr) => self.push_addr(addr, pos, sink),
        }
    }

    /// Flushes the block of a kernel activation that has ended.
    fn flush_kernel(&mut self, frame: Option<Pending>, sink: &mut dyn TraceSink) {
        let tab = &self.kernel_tab;
        flush(&mut self.stats, self.idle, tab, frame, Space::Kernel, sink);
    }

    fn push_addr(&mut self, addr: u32, pos: u64, sink: &mut dyn TraceSink) {
        // The current context: its table and the block it has open.
        let (space, tab, slot) = match self.kstack.last_mut() {
            Some(top) => (Space::Kernel, Some(&*self.kernel_tab), top),
            None => {
                let ctx = &mut self.users[self.base_asid as usize];
                let space = Space::User(self.base_asid);
                (space, ctx.table.as_deref(), &mut ctx.pending)
            }
        };
        // If the current context owes memory words, this is one.
        if let (Some(tab), Some(p)) = (tab, slot.as_mut()) {
            let info = tab.at(p.pos);
            if let Some(op) = info.ops.get(p.ops_done as usize) {
                // I-refs up to and including the memory instruction.
                let upto = op.index.saturating_add(1);
                emit_irefs(&mut self.stats, self.idle, info, p, upto, space, sink);
                sink.dref(addr, op.store, op.width, space);
                self.stats.mem_records += 1;
                match space {
                    Space::Kernel => self.stats.kernel_drefs += 1,
                    Space::User(_) => self.stats.user_drefs += 1,
                }
                p.ops_done += 1;
                return;
            }
        }
        // Otherwise it must be a basic-block id for this space.
        if matches!(space, Space::User(_)) && is_kernel_addr(addr) {
            self.err(ParseError::WrongSpace { word: addr, pos });
            return;
        }
        // The one table lookup a block costs.
        let Some((tab, at)) = tab.and_then(|t| Some((t, t.position(addr)?))) else {
            self.err(ParseError::UnknownBb {
                word: addr,
                pos,
                space,
            });
            return;
        };
        // Close out the previous block, then open this one.
        flush(&mut self.stats, self.idle, tab, slot.take(), space, sink);
        let info = tab.at(at);
        if info.flags.idle_start {
            self.idle = true;
        }
        if info.flags.idle_stop {
            self.idle = false;
        }
        self.stats.bb_records += 1;
        let p = slot.insert(Pending {
            bb_id: addr,
            pos: at,
            emitted: 0,
            ops_done: 0,
        });
        if info.ops.is_empty() {
            // No memory words will follow; emit all I-refs now.
            emit_irefs(&mut self.stats, self.idle, info, p, u16::MAX, space, sink);
        }
    }

    /// Finalises the stream: checks truncation, then flushes every
    /// context's partial block — kernel activations innermost first,
    /// then the user address spaces in ASID order.
    pub fn finish(&mut self, sink: &mut dyn TraceSink) {
        // Truncation check: any context still owing memory words?
        let kernel = self.kstack.iter().flatten().map(|p| (&self.kernel_tab, p));
        let users = self
            .users
            .iter()
            .filter_map(|ctx| Some((ctx.table.as_ref()?, ctx.pending.as_ref()?)));
        let owed: Vec<ParseError> = kernel
            .chain(users)
            .filter_map(|(tab, p)| {
                let missing = tab.at(p.pos).ops.len().saturating_sub(p.ops_done as usize);
                (missing > 0).then_some(ParseError::Truncated {
                    bb_id: p.bb_id,
                    missing,
                })
            })
            .collect();
        for e in owed {
            self.err(e);
        }
        // Flush trailing I-refs everywhere.
        while let Some(frame) = self.kstack.pop() {
            self.flush_kernel(frame, sink);
        }
        let (stats, idle) = (&mut self.stats, self.idle);
        for (asid, ctx) in (0..=u8::MAX).zip(self.users.iter_mut()) {
            if let Some(tab) = &ctx.table {
                let open = ctx.pending.take();
                flush(stats, idle, tab, open, Space::User(asid), sink);
            }
        }
    }

    /// Parses a whole word slice and finalises.
    pub fn parse_all(&mut self, words: &[u32], sink: &mut dyn TraceSink) {
        self.push_words(words, sink);
        self.finish(sink);
    }

    /// Parses a word slice *without* finalising — the incremental
    /// form for online analysis, where the trace arrives one buffer
    /// drain at a time and a basic block may straddle two drains.
    /// Call [`TraceParser::finish`] after the last chunk.
    pub fn push_words(&mut self, words: &[u32], sink: &mut dyn TraceSink) {
        for &w in words {
            self.push_word(w, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbinfo::{BbInfo, BbTraceFlags, MemOp};
    use crate::format::{ctl, CtlOp};
    use crate::stream::{EventVec, RefEvent};

    fn table(entries: Vec<(u32, BbInfo)>) -> Arc<BbTable> {
        let mut t = BbTable::new();
        for (id, i) in entries {
            t.insert(id, i);
        }
        Arc::new(t)
    }

    fn bb(orig: u32, n: u16, ops: Vec<MemOp>) -> BbInfo {
        BbInfo {
            orig_vaddr: orig,
            n_insts: n,
            ops,
            flags: BbTraceFlags::default(),
        }
    }

    fn ld(index: u16) -> MemOp {
        MemOp {
            index,
            store: false,
            width: Width::Word,
        }
    }

    fn st(index: u16) -> MemOp {
        MemOp {
            index,
            store: true,
            width: Width::Word,
        }
    }

    /// The data references of a parse as `(vaddr, store, space)`.
    fn drefs(sink: &EventVec) -> Vec<(u32, bool, Space)> {
        sink.0
            .iter()
            .filter_map(|e| match *e {
                RefEvent::Dref {
                    vaddr,
                    store,
                    space,
                    ..
                } => Some((vaddr, store, space)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_user_bb_interleaves_refs() {
        // bb at id 0x500000: orig 0x400000, 4 insts, load at 1, store at 2.
        let ut = table(vec![(0x50_0000, bb(0x40_0000, 4, vec![ld(1), st(2)]))]);
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(3, ut);
        let words = [
            ctl(CtlOp::CtxSwitch, 3),
            0x50_0000,   // bb id
            0x0100_0040, // load addr
            0x0100_0080, // store addr
        ];
        let mut sink = EventVec::default();
        p.parse_all(&words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        // The I I D I D I pattern, the fetches in runs cut at each
        // memory operation.
        let space = Space::User(3);
        let i = |vaddr, n| RefEvent::Iref {
            vaddr,
            n,
            space,
            idle: false,
        };
        let d = |vaddr, store| RefEvent::Dref {
            vaddr,
            store,
            width: Width::Word,
            space,
        };
        assert_eq!(
            sink.0,
            [
                RefEvent::CtxSwitch(3),
                i(0x40_0000, 2),
                d(0x0100_0040, false),
                i(0x40_0008, 1),
                d(0x0100_0080, true),
                i(0x40_000c, 1),
            ]
        );
    }

    /// Records each run of fetches as `(vaddr, n)`.
    #[derive(Default)]
    struct Runs(Vec<(u32, u32)>);

    impl TraceSink for Runs {
        fn irefs(&mut self, vaddr: u32, n: u32, _space: Space, _idle: bool) {
            self.0.push((vaddr, n));
        }
        fn dref(&mut self, _vaddr: u32, _store: bool, _width: Width, _space: Space) {}
    }

    #[test]
    fn fetches_arrive_in_runs_cut_at_memory_ops_and_pages() {
        let ut = table(vec![
            // Across a page, a load at 3.
            (0x50_0000, bb(0x40_0ff8, 6, vec![ld(3)])),
            // Wraps at 2^32: address 0 starts a page.
            (0x50_0010, bb(0xffff_fff8, 4, vec![])),
            // 1024 fetches fill a page.
            (0x50_0020, bb(0x41_0000, 2000, vec![])),
        ]);
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(3, ut);
        let words = [
            ctl(CtlOp::CtxSwitch, 3),
            0x50_0000,
            0x0100_0040,
            0x50_0010,
            0x50_0020,
        ];
        let mut sink = Runs::default();
        p.parse_all(&words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        assert_eq!(p.stats.user_irefs, 6 + 4 + 2000);
        assert_eq!(
            sink.0,
            [
                (0x40_0ff8, 2),
                (0x40_1000, 2),
                (0x40_1008, 2),
                (0xffff_fff8, 2),
                (0, 2),
                (0x41_0000, 1024),
                (0x41_1000, 976),
            ]
        );
    }

    #[test]
    fn kernel_interrupt_mid_block_suspends_and_resumes() {
        let ut = table(vec![(0x50_0000, bb(0x40_0000, 4, vec![ld(0), ld(3)]))]);
        let kt = table(vec![(0x8003_0100, bb(0x8003_0000, 2, vec![st(1)]))]);
        let mut p = TraceParser::new(kt);
        p.set_user_table(1, ut);
        let words = [
            ctl(CtlOp::CtxSwitch, 1),
            0x50_0000,
            0x0100_0000, // first user load
            ctl(CtlOp::KEnter, 8),
            0x8003_0100, // kernel bb
            0x8030_0000, // kernel store
            ctl(CtlOp::KExit, 0),
            0x0100_0004, // second user load resumes the same bb
        ];
        let mut sink = EventVec::default();
        p.parse_all(&words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        assert_eq!(p.stats.kernel_entries, 1);
        // User irefs are all four instructions of the user bb.
        let fetches_in = |space| -> Vec<u32> {
            sink.fetches()
                .filter(|r| r.1 == space)
                .map(|r| r.0)
                .collect()
        };
        assert_eq!(
            fetches_in(Space::User(1)),
            [0x40_0000, 0x40_0004, 0x40_0008, 0x40_000c]
        );
        assert_eq!(fetches_in(Space::Kernel), [0x8003_0000, 0x8003_0004]);
        // Kernel dref sits between the two user drefs in stream order.
        assert_eq!(drefs(&sink)[1].2, Space::Kernel);
    }

    #[test]
    fn nested_kernel_interrupts() {
        let kt = table(vec![
            (0x8003_0100, bb(0x8003_0000, 3, vec![ld(0), ld(2)])),
            (0x8004_0100, bb(0x8004_0000, 1, vec![])),
        ]);
        let mut p = TraceParser::new(kt);
        let words = [
            ctl(CtlOp::KEnter, 0),
            0x8003_0100,
            0x8030_0000,
            // Nested interrupt between this bb's two loads.
            ctl(CtlOp::KEnter, 0),
            0x8004_0100,
            ctl(CtlOp::KExit, 0),
            0x8030_0004, // second load of the outer bb
            ctl(CtlOp::KExit, 0),
        ];
        let mut sink = EventVec::default();
        p.parse_all(&words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        assert_eq!(drefs(&sink).len(), 2);
        assert_eq!(sink.fetches().count(), 4);
    }

    #[test]
    fn unknown_bb_is_detected() {
        let ut = table(vec![(0x50_0000, bb(0x40_0000, 1, vec![]))]);
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(0, ut);
        p.parse_all(&[0x66_0000], &mut ());
        assert_eq!(p.stats.errors, 1);
        assert!(matches!(p.errors[0], ParseError::UnknownBb { .. }));
    }

    #[test]
    fn kernel_addr_in_user_context_is_wrong_space() {
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(0, table(vec![]));
        p.parse_all(&[0x8003_0000], &mut ());
        assert!(matches!(p.errors[0], ParseError::WrongSpace { .. }));
    }

    #[test]
    fn truncated_block_is_detected() {
        let ut = table(vec![(0x50_0000, bb(0x40_0000, 2, vec![ld(0), ld(1)]))]);
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(0, ut);
        p.parse_all(&[ctl(CtlOp::CtxSwitch, 0), 0x50_0000, 0x0100_0000], &mut ());
        assert!(p
            .errors
            .iter()
            .any(|e| matches!(e, ParseError::Truncated { missing: 1, .. })));
    }

    #[test]
    fn idle_flags_count_instructions() {
        let mut idle_bb = bb(0x8005_0000, 3, vec![]);
        idle_bb.flags.idle_start = true;
        let mut stop_bb = bb(0x8005_0100, 2, vec![]);
        stop_bb.flags.idle_stop = true;
        let kt = table(vec![(0x8005_0010, idle_bb), (0x8005_0110, stop_bb)]);
        let mut p = TraceParser::new(kt);
        let words = [
            ctl(CtlOp::KEnter, 0),
            0x8005_0010,
            0x8005_0010,
            0x8005_0110,
            ctl(CtlOp::KExit, 0),
        ];
        p.parse_all(&words, &mut ());
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        // Two idle bbs of 3 insts each; the stop bb is not idle.
        assert_eq!(p.stats.idle_insts, 6);
    }

    #[test]
    fn mode_transitions_counted() {
        let mut p = TraceParser::new(table(vec![]));
        let mut sink = EventVec::default();
        p.parse_all(
            &[
                ctl(CtlOp::TraceOff, 0),
                ctl(CtlOp::TraceOn, 0),
                ctl(CtlOp::TraceOff, 0),
            ],
            &mut sink,
        );
        assert_eq!(p.stats.mode_transitions, 2);
        let mode = RefEvent::ModeTransition;
        assert_eq!(sink.0, [mode(false), mode(true), mode(false)]);
    }

    #[test]
    fn context_switch_between_processes() {
        let t1 = table(vec![(0x50_0000, bb(0x40_0000, 1, vec![ld(0)]))]);
        let t2 = table(vec![(0x60_0000, bb(0x41_0000, 1, vec![]))]);
        let mut p = TraceParser::new(table(vec![]));
        p.set_user_table(1, t1);
        p.set_user_table(2, t2);
        let words = [
            ctl(CtlOp::CtxSwitch, 1),
            0x50_0000,
            // Interrupted before its load arrives; scheduler switches.
            ctl(CtlOp::KEnter, 0),
            ctl(CtlOp::CtxSwitch, 2),
            ctl(CtlOp::KExit, 0),
            0x60_0000,
            // Back to process 1; the pending load finally lands.
            ctl(CtlOp::KEnter, 0),
            ctl(CtlOp::CtxSwitch, 1),
            ctl(CtlOp::KExit, 0),
            0x0100_0000,
        ];
        let mut sink = EventVec::default();
        p.parse_all(&words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        assert_eq!(drefs(&sink), [(0x0100_0000, false, Space::User(1))]);
        assert_eq!(p.stats.ctx_switches, 3);
    }
}
