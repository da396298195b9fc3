//! Property-based tests of the trace layer: the parser is total over
//! arbitrary word streams (§4.3's defensive posture — damage is
//! *reported*, never a crash), and round-trips well-formed traces.

use proptest::prelude::*;
use std::sync::Arc;
use wrl_isa::Width;
use wrl_trace::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
use wrl_trace::format::{ctl, CtlOp};
use wrl_trace::{CollectSink, Space, TraceParser, TraceSink};

/// Counts references (a block of 65535 instructions is too many to
/// collect six hundred times a case), and holds every run of fetches
/// to the hook's contract: at least one, all on one page.
#[derive(Default)]
struct Counts {
    irefs: u64,
    drefs: u64,
}

impl TraceSink for Counts {
    fn irefs(&mut self, vaddr: u32, n: u32, _: Space, _: bool) {
        assert!(n >= 1, "an empty run");
        assert!(
            vaddr % 4096 + 4 * (n - 1) < 4096,
            "{n} fetches at {vaddr:#x}"
        );
        self.irefs += u64::from(n);
    }
    fn dref(&mut self, _: u32, _: bool, _: Width, _: Space) {
        self.drefs += 1;
    }
}

fn table(blocks: &[(u32, u16, usize)]) -> Arc<BbTable> {
    let mut t = BbTable::new();
    for &(id, n, ops) in blocks {
        t.insert(
            id,
            BbInfo {
                orig_vaddr: 0x0040_0000 + (id & 0xffff),
                n_insts: n,
                ops: (0..ops)
                    .map(|k| MemOp {
                        index: k as u16,
                        store: k % 2 == 1,
                        width: Width::Word,
                    })
                    .collect(),
                flags: BbTraceFlags::default(),
            },
        );
    }
    Arc::new(t)
}

/// Words that reach every parser path: junk, control words, a block
/// id of each table, and memory words.
fn any_word() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        0u32..0x1_0000,
        Just(0x8003_0000u32),
        Just(0x0050_0000u32),
        0x0100_0000u32..0x0100_1000,
    ]
}

/// A block whose every field is drawn from its full range, as a
/// table read from a damaged archive may hold (`decode_table` checks
/// none of them). A uniform draw never lands on the ends of a range,
/// where the arithmetic overflows, so a third of the draws are put
/// there.
fn any_block() -> impl Strategy<Value = BbInfo> {
    let any_u16 = || prop_oneof![any::<u16>(), 0u16..4, 0xfffcu16..=u16::MAX];
    let op = (any_u16(), any::<bool>()).prop_map(|(index, store)| MemOp {
        index,
        store,
        width: Width::Word,
    });
    (
        prop_oneof![any::<u32>(), 0u32..64, 0xffff_ff00u32..=u32::MAX],
        any_u16(),
        proptest::collection::vec(op, 0..4),
    )
        .prop_map(|(orig_vaddr, n_insts, ops)| BbInfo {
            orig_vaddr,
            n_insts,
            ops,
            flags: BbTraceFlags::default(),
        })
}

proptest! {
    /// The parser never panics, on arbitrary garbage decoded with
    /// arbitrary tables.
    #[test]
    fn parser_is_total(
        words in proptest::collection::vec(any_word(), 0..600),
        kblock in any_block(),
        ublock in any_block(),
    ) {
        let mut kt = BbTable::new();
        kt.insert(0x8003_0000, kblock);
        let mut ut = BbTable::new();
        ut.insert(0x0050_0000, ublock);
        let mut p = TraceParser::new(Arc::new(kt));
        p.set_user_table(0, Arc::new(ut));
        let mut sink = Counts::default();
        p.parse_all(&words, &mut sink);
        // Words are conserved in the statistics, and references in
        // the sink.
        prop_assert_eq!(p.stats.words, words.len() as u64);
        prop_assert_eq!(p.stats.user_irefs + p.stats.kernel_irefs, sink.irefs);
        prop_assert_eq!(p.stats.user_drefs + p.stats.kernel_drefs, sink.drefs);
    }

    /// A well-formed stream of user blocks parses without error and
    /// reproduces exactly the expected number of references.
    #[test]
    fn well_formed_stream_round_trips(
        blocks in proptest::collection::vec((0usize..4, proptest::collection::vec(any::<u32>(), 0..4)), 1..100)
    ) {
        // Four block shapes with 0..3 memory ops.
        let shapes = [
            (0x0050_0000u32, 4u16, 0usize),
            (0x0050_0100, 2, 1),
            (0x0050_0200, 5, 2),
            (0x0050_0300, 3, 3),
        ];
        let ut = table(&shapes);
        let mut words = vec![ctl(CtlOp::CtxSwitch, 7)];
        let mut want_i = 0u64;
        let mut want_d = 0u64;
        for (shape, addrs) in &blocks {
            let (id, n, ops) = shapes[*shape];
            words.push(id);
            for k in 0..ops {
                // Any value >= 2^16 parses as an address word.
                words.push(0x0100_0000 + addrs.get(k).copied().unwrap_or(0) % 0x0010_0000);
            }
            want_i += n as u64;
            want_d += ops as u64;
        }
        let mut p = TraceParser::new(table(&[]));
        p.set_user_table(7, ut);
        let mut sink = CollectSink::default();
        p.parse_all(&words, &mut sink);
        prop_assert_eq!(p.stats.errors, 0, "errors: {:?}", p.errors);
        prop_assert_eq!(sink.irefs.len() as u64, want_i);
        prop_assert_eq!(sink.drefs.len() as u64, want_d);
    }

    /// Interposing balanced kernel entries at arbitrary points never
    /// corrupts the user stream's reference counts.
    #[test]
    fn kernel_interleaving_preserves_user_counts(cut in 0usize..12, nest in 1usize..4) {
        let ut = table(&[(0x0050_0200, 5, 2)]);
        let kt = table(&[(0x8003_0000, 2, 0)]);
        // Base stream: ctx, 3 blocks of (bb + 2 mem words).
        let mut words = vec![ctl(CtlOp::CtxSwitch, 1)];
        for _ in 0..3 {
            words.extend_from_slice(&[0x0050_0200, 0x0100_0000, 0x0100_0004]);
        }
        // Inject a balanced nest at `cut`.
        let mut nest_words = Vec::new();
        for _ in 0..nest {
            nest_words.push(ctl(CtlOp::KEnter, 0));
            nest_words.push(0x8003_0000);
        }
        for _ in 0..nest {
            nest_words.push(ctl(CtlOp::KExit, 0));
        }
        let at = 1 + cut.min(words.len() - 1);
        for (k, w) in nest_words.into_iter().enumerate() {
            words.insert(at + k, w);
        }
        let mut p = TraceParser::new(kt);
        p.set_user_table(1, ut);
        let mut sink = CollectSink::default();
        p.parse_all(&words, &mut sink);
        prop_assert_eq!(p.stats.errors, 0, "errors: {:?}", p.errors);
        let user_i = sink.irefs.iter().filter(|r| matches!(r.1, wrl_trace::Space::User(1))).count();
        prop_assert_eq!(user_i, 15);
        prop_assert_eq!(sink.drefs.iter().filter(|d| matches!(d.2, wrl_trace::Space::User(1))).count(), 6);
    }
}

fn table_entries(t: &BbTable) -> Vec<(u32, BbInfo)> {
    let mut v: Vec<_> = t.iter().map(|(id, info)| (*id, info.clone())).collect();
    v.sort_by_key(|(id, _)| *id);
    v
}

proptest! {
    /// Archives round-trip words and every table entry exactly.
    #[test]
    fn archive_roundtrips(
        words in proptest::collection::vec(any::<u32>(), 0..400),
        kblocks in proptest::collection::vec((0x8000_0000u32..0x8100_0000, 1u16..64, 0usize..4), 1..20),
        ublocks in proptest::collection::vec((0x0040_0000u32..0x0100_0000, 1u16..64, 0usize..4), 1..20),
        asid in 0u8..63,
    ) {
        let arch = wrl_trace::TraceArchive {
            kernel_table: table(&kblocks),
            user_tables: vec![(asid, table(&ublocks))],
            words: words.clone(),
        };
        let back = wrl_trace::TraceArchive::decode(&arch.encode()).unwrap();
        prop_assert_eq!(&back.words, &words);
        prop_assert_eq!(back.user_tables.len(), 1);
        prop_assert_eq!(back.user_tables[0].0, asid);
        prop_assert_eq!(
            table_entries(&back.kernel_table),
            table_entries(&arch.kernel_table)
        );
        prop_assert_eq!(
            table_entries(&back.user_tables[0].1),
            table_entries(&arch.user_tables[0].1)
        );
    }

    /// Decoding is total: corrupt bytes produce an error, never a panic.
    #[test]
    fn archive_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = wrl_trace::TraceArchive::decode(&bytes);
    }

    /// Truncating a valid archive at any point is caught as an error
    /// (or decodes to the same words — never garbage).
    #[test]
    fn archive_truncation_is_detected(
        words in proptest::collection::vec(any::<u32>(), 1..100),
        cut_frac in 0.0f64..1.0,
    ) {
        let arch = wrl_trace::TraceArchive {
            kernel_table: Arc::default(),
            user_tables: vec![],
            words: words.clone(),
        };
        let enc = arch.encode();
        let cut = (enc.len() as f64 * cut_frac) as usize;
        if let Ok(a) = wrl_trace::TraceArchive::decode(&enc[..cut]) { prop_assert_eq!(a.words, words) }
    }
}

proptest! {
    /// Incremental parsing (`push_words` per chunk + one `finish`)
    /// produces exactly the same reference stream as a single
    /// `parse_all`, for any chunking — the §3.3 online-analysis case
    /// where a basic block's address words straddle a buffer drain.
    #[test]
    fn chunked_parse_equals_oneshot(
        blocks in proptest::collection::vec((0usize..4, proptest::collection::vec(any::<u32>(), 0..4)), 1..60),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let shapes = [
            (0x0050_0000u32, 4u16, 0usize),
            (0x0050_0100, 2, 1),
            (0x0050_0200, 5, 2),
            (0x0050_0300, 3, 3),
        ];
        let mut words = vec![ctl(CtlOp::CtxSwitch, 7)];
        for (shape, addrs) in &blocks {
            let (id, _, ops) = shapes[*shape];
            words.push(id);
            for k in 0..ops {
                words.push(0x0100_0000 + addrs.get(k).copied().unwrap_or(0) % 0x0010_0000);
            }
        }

        let mut one = CollectSink::default();
        let mut p1 = TraceParser::new(table(&[]));
        p1.set_user_table(7, table(&shapes));
        p1.parse_all(&words, &mut one);

        let mut many = CollectSink::default();
        let mut p2 = TraceParser::new(table(&[]));
        p2.set_user_table(7, table(&shapes));
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (words.len() + 1)).collect();
        bounds.push(0);
        bounds.push(words.len());
        bounds.sort_unstable();
        for w in bounds.windows(2) {
            p2.push_words(&words[w[0]..w[1]], &mut many);
        }
        p2.finish(&mut many);

        prop_assert_eq!(p1.stats.errors, 0);
        prop_assert_eq!(p2.stats.errors, 0);
        prop_assert_eq!(one.irefs, many.irefs);
        prop_assert_eq!(one.drefs, many.drefs);
    }
}
