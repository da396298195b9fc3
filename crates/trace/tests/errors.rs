//! Deterministic classification tests for every defensive check the
//! parser performs (§4.3: "when trace data is damaged... the damage
//! is reported, the simulator state for the afflicted process is
//! discarded, and analysis continues").

use std::sync::Arc;
use wrl_isa::Width;
use wrl_trace::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
use wrl_trace::format::{ctl, CtlOp};
use wrl_trace::parser::ParseError;
use wrl_trace::{EventVec, RefEvent, TraceParser};

const UBB: u32 = 0x0050_0000;
const KBB: u32 = 0x8003_0000;

fn tables() -> (Arc<BbTable>, Arc<BbTable>) {
    let mut ut = BbTable::new();
    ut.insert(
        UBB,
        BbInfo {
            orig_vaddr: 0x0040_0000,
            n_insts: 3,
            ops: vec![MemOp {
                index: 1,
                store: true,
                width: Width::Word,
            }],
            flags: BbTraceFlags::default(),
        },
    );
    let mut kt = BbTable::new();
    kt.insert(
        KBB,
        BbInfo {
            orig_vaddr: 0x8000_0400,
            n_insts: 2,
            ops: vec![],
            flags: BbTraceFlags::default(),
        },
    );
    (Arc::new(kt), Arc::new(ut))
}

fn parse(words: &[u32]) -> (TraceParser, EventVec) {
    let (kt, ut) = tables();
    let mut p = TraceParser::new(kt);
    p.set_user_table(7, ut);
    let mut sink = EventVec::default();
    p.parse_all(words, &mut sink);
    (p, sink)
}

/// Data references in a parse.
fn drefs(sink: &EventVec) -> usize {
    let is_dref = |e: &&RefEvent| matches!(e, RefEvent::Dref { .. });
    sink.0.iter().filter(is_dref).count()
}

#[test]
fn unknown_block_id_is_reported_and_parsing_continues() {
    // A bogus block id, then a healthy block: the error is localized.
    let words = [ctl(CtlOp::CtxSwitch, 7), 0x0077_0000, UBB, 0x0100_0000];
    let (p, sink) = parse(&words);
    assert_eq!(p.stats.errors, 1);
    assert!(matches!(
        p.errors[0],
        ParseError::UnknownBb {
            word: 0x0077_0000,
            ..
        }
    ));
    assert_eq!(sink.fetches().count(), 3, "the healthy block still parses");
}

#[test]
fn kernel_block_in_user_context_is_wrong_space() {
    let words = [ctl(CtlOp::CtxSwitch, 7), KBB];
    let (p, _) = parse(&words);
    assert!(p
        .errors
        .iter()
        .any(|e| matches!(e, ParseError::WrongSpace { word, .. } if *word == KBB)));
}

#[test]
fn junk_control_word_is_bad_control() {
    // Control range is < 0x10000; opcode 0x3f is unassigned.
    let words = [ctl(CtlOp::CtxSwitch, 7), 0x0000_3f00 | 0x3f];
    let (p, _) = parse(&words);
    assert!(p
        .errors
        .iter()
        .any(|e| matches!(e, ParseError::BadControl { .. })));
}

#[test]
fn stream_ending_mid_block_is_truncation() {
    // UBB owes one memory word that never arrives.
    let words = [ctl(CtlOp::CtxSwitch, 7), UBB];
    let (p, sink) = parse(&words);
    assert!(p.errors.iter().any(|e| matches!(
        e,
        ParseError::Truncated { bb_id, missing: 1 } if *bb_id == UBB
    )));
    // The block's instructions before the missing op were still usable.
    assert!(sink.fetches().next().is_some());
}

#[test]
fn kexit_without_kenter_is_unbalanced() {
    let words = [ctl(CtlOp::CtxSwitch, 7), ctl(CtlOp::KExit, 0)];
    let (p, _) = parse(&words);
    assert!(p
        .errors
        .iter()
        .any(|e| matches!(e, ParseError::UnbalancedKExit { .. })));
}

#[test]
fn missing_user_table_is_reported_once_per_asid() {
    let words = [ctl(CtlOp::CtxSwitch, 9), UBB, UBB];
    let (p, _) = parse(&words);
    let n = p
        .errors
        .iter()
        .filter(|e| matches!(e, ParseError::NoTableForAsid { asid: 9 }))
        .count();
    assert!(n >= 1, "missing table must be reported");
}

/// One targeted corruption per defensive-check kind, each asserting
/// that exactly the corresponding `trace.parse.error.*` tally (and no
/// other) increments exactly once. A single test function: the
/// tallies are process-global counters, and splitting the cases
/// across parallel tests would race the before/after reads.
#[test]
fn each_defensive_check_tallies_its_counter_exactly_once() {
    let obs = wrl_trace::ParserObs::register();
    let all = [
        "trace.parse.error.unknown_bb",
        "trace.parse.error.wrong_space",
        "trace.parse.error.bad_control",
        "trace.parse.error.truncated",
        "trace.parse.error.unbalanced_kexit",
        "trace.parse.error.no_table_for_asid",
    ];
    let counters = || -> Vec<u64> {
        let snap = wrl_obs::global().snapshot();
        all.iter()
            .map(|name| {
                snap.metrics
                    .iter()
                    .find(|m| m.desc.name == *name)
                    .and_then(|m| match m.value {
                        wrl_obs::ValueSnap::Counter(v) => Some(v),
                        _ => None,
                    })
                    .expect("tally registered")
            })
            .collect()
    };
    let cases: [(&str, Vec<u32>); 6] = [
        // A user block id with no table entry.
        (all[0], vec![ctl(CtlOp::CtxSwitch, 7), 0x0077_0000]),
        // A kernel-range block id in a user context.
        (all[1], vec![ctl(CtlOp::CtxSwitch, 7), KBB]),
        // A control-range word with an unassigned opcode.
        (all[2], vec![ctl(CtlOp::CtxSwitch, 7), 0x0000_3f3f]),
        // A block still owed a memory word at end of stream.
        (all[3], vec![ctl(CtlOp::CtxSwitch, 7), UBB]),
        // A KExit with no matching KEnter.
        (all[4], vec![ctl(CtlOp::CtxSwitch, 7), ctl(CtlOp::KExit, 0)]),
        // A context switch to an ASID with no registered table (the
        // check fires on the switch itself; a block id after it would
        // additionally tally as unknown).
        (all[5], vec![ctl(CtlOp::CtxSwitch, 9)]),
    ];
    for (name, words) in cases {
        let before = counters();
        let (kt, ut) = tables();
        let mut p = TraceParser::new(kt);
        p.set_user_table(7, ut);
        p.attach_obs(obs.clone());
        p.parse_all(&words, &mut ());
        assert!(p.stats.errors >= 1, "{name}: corruption must be reported");
        let after = counters();
        for (i, tally) in all.iter().enumerate() {
            let want = u64::from(*tally == name);
            assert_eq!(
                after[i] - before[i],
                want,
                "{name}: tally {tally} moved by {} (want {want})",
                after[i] - before[i]
            );
        }
    }
}

#[test]
fn damage_in_one_process_does_not_poison_another() {
    // ASID 9 has no table (damage), ASID 7 is healthy; the healthy
    // stream parses in full despite the interleaved afflicted one.
    let words = [
        ctl(CtlOp::CtxSwitch, 9),
        0x0123_4567,
        ctl(CtlOp::CtxSwitch, 7),
        UBB,
        0x0100_0000,
        ctl(CtlOp::CtxSwitch, 9),
        0x0222_2222,
        ctl(CtlOp::CtxSwitch, 7),
        UBB,
        0x0100_0004,
    ];
    let (p, sink) = parse(&words);
    assert!(p.stats.errors > 0);
    assert_eq!(sink.fetches().count(), 6, "both healthy blocks parse fully");
    assert_eq!(drefs(&sink), 2);
}

fn bb(orig_vaddr: u32, n_insts: u16, indices: &[u16]) -> BbInfo {
    BbInfo {
        orig_vaddr,
        n_insts,
        ops: indices
            .iter()
            .map(|&index| MemOp {
                index,
                store: false,
                width: Width::Word,
            })
            .collect(),
        flags: BbTraceFlags::default(),
    }
}

fn one_block(id: u32, info: BbInfo) -> Arc<BbTable> {
    let mut t = BbTable::new();
    t.insert(id, info);
    Arc::new(t)
}

#[test]
fn end_of_stream_flushes_kernel_activations_then_users_in_asid_order() {
    use wrl_trace::Space;
    // Every block owes a memory word when the stream ends: three user
    // address spaces, switched to in the order 9, 2, 200, and two
    // nested kernel activations.
    let mut kt = BbTable::new();
    kt.insert(0x8003_0100, bb(0x8003_0000, 2, &[0, 1]));
    kt.insert(0x8004_0100, bb(0x8004_0000, 3, &[2]));
    let mut p = TraceParser::new(Arc::new(kt));
    p.set_user_table(9, one_block(0x0059_0000, bb(0x0049_0000, 2, &[1])));
    p.set_user_table(2, one_block(0x0052_0000, bb(0x0042_0000, 3, &[0, 2])));
    p.set_user_table(200, one_block(0x005c_0000, bb(0x004c_0000, 1, &[0])));
    let words = [
        ctl(CtlOp::CtxSwitch, 9),
        0x0059_0000,
        ctl(CtlOp::CtxSwitch, 2),
        0x0052_0000,
        0x0100_0000, // ASID 2's first load; its second never arrives
        ctl(CtlOp::CtxSwitch, 200),
        0x005c_0000,
        ctl(CtlOp::KEnter, 0),
        0x8003_0100,
        ctl(CtlOp::KEnter, 0),
        0x8004_0100,
    ];
    let mut sink = EventVec::default();
    p.parse_all(&words, &mut sink);
    let irefs = |vaddr, n, space| RefEvent::Iref {
        vaddr,
        n,
        space,
        idle: false,
    };
    let tail = [
        // Innermost activation, then the one it interrupted.
        irefs(0x8004_0000, 3, Space::Kernel),
        irefs(0x8003_0000, 2, Space::Kernel),
        // Then the user spaces by ASID, not by arrival.
        irefs(0x0042_0004, 2, Space::User(2)),
        irefs(0x0049_0000, 2, Space::User(9)),
        irefs(0x004c_0000, 1, Space::User(200)),
    ];
    assert_eq!(sink.0[sink.0.len() - tail.len()..], tail);
    let truncated = |bb_id, missing| ParseError::Truncated { bb_id, missing };
    assert_eq!(
        p.errors,
        [
            // Activations outermost first, then ASIDs ascending.
            truncated(0x8003_0100, 2),
            truncated(0x8004_0100, 1),
            truncated(0x0052_0000, 1),
            truncated(0x0059_0000, 1),
            truncated(0x005c_0000, 1),
        ]
    );
}

/// Table fields arrive from archive files unvalidated (`decode_table`
/// takes any `u16` op index and any `u32` `orig_vaddr`); the parser's
/// arithmetic on them must not overflow.
#[test]
fn op_index_at_u16_max_does_not_overflow() {
    let mut p = TraceParser::new(Arc::new(BbTable::new()));
    p.set_user_table(7, one_block(UBB, bb(0x0040_0000, 3, &[u16::MAX])));
    let mut sink = EventVec::default();
    p.parse_all(&[ctl(CtlOp::CtxSwitch, 7), UBB, 0x0100_0000], &mut sink);
    assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
    // The op sits past the block's end: every instruction precedes it.
    assert_eq!(sink.fetches().count(), 3);
    assert_eq!(drefs(&sink), 1);
}

#[test]
fn block_at_the_top_of_the_address_space_wraps() {
    let mut p = TraceParser::new(Arc::new(BbTable::new()));
    p.set_user_table(7, one_block(UBB, bb(0xffff_fffc, 3, &[])));
    let mut sink = EventVec::default();
    p.parse_all(&[ctl(CtlOp::CtxSwitch, 7), UBB], &mut sink);
    assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
    let vaddrs: Vec<u32> = sink.fetches().map(|r| r.0).collect();
    assert_eq!(vaddrs, [0xffff_fffc, 0, 4]);
}

/// An open block is held as a position in the table its address
/// space had when the block opened, so `set_user_table` over that
/// table abandons the block: the next address word is a block id of
/// the new table, not the memory word the old block owed, and the
/// stale position is never used.
#[test]
fn replacing_a_table_mid_stream_abandons_the_open_block() {
    let mut old = BbTable::new();
    old.insert(0x0051_0000, bb(0x0041_0000, 1, &[]));
    old.insert(UBB, bb(0x0040_0000, 3, &[1])); // position 1
    let mut p = TraceParser::new(Arc::new(BbTable::new()));
    p.set_user_table(7, Arc::new(old));
    let mut sink = EventVec::default();
    p.push_words(&[ctl(CtlOp::CtxSwitch, 7), UBB], &mut sink);
    // The new table has no position 1.
    p.set_user_table(7, one_block(0x0060_0000, bb(0x0044_0000, 2, &[])));
    p.push_words(&[0x0060_0000], &mut sink);
    p.finish(&mut sink);
    assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
    let vaddrs: Vec<u32> = sink.fetches().map(|r| r.0).collect();
    assert_eq!(vaddrs, [0x0044_0000, 0x0044_0004]);
    assert_eq!(drefs(&sink), 0);
}
