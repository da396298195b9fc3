//! Property-based tests of the block codec and container: compression
//! is lossless on arbitrary word sequences — including page-zero
//! control words, ASID switches and adversarial values the trace path
//! would reject — and decode is total on arbitrary bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use wrl_store::{
    compress_block, crc32_bytes, crc32_words, decompress_block, filter_stream, BlockCache,
    BlockFormat, BlockMeta, Predicate, QueryResult, TraceStore, STORE_VERSION_V4,
};
use wrl_trace::{ctl, CtlOp, TraceArchive};

/// Block sizes exercised everywhere: degenerate (1 word/block), prime
/// and misaligned (7), and the production default (4096).
const BLOCK_SIZES: [usize; 3] = [1, 7, 4096];

/// Trace-shaped words: mostly addresses with recurring structure,
/// salted with control words (context switches to arbitrary ASIDs,
/// kernel crossings, mode transitions) and raw arbitrary values.
fn word_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Kernel text/data addresses with loop-like low entropy.
        (0u32..4096).prop_map(|i| 0x8003_0000 + i * 4),
        // User addresses.
        (0u32..4096).prop_map(|i| 0x0040_0000 + i * 4),
        // Control words: every opcode, arbitrary payload (CtxSwitch
        // payload is the ASID, so this covers ASID switches).
        (0u8..6, any::<u8>()).prop_map(|(op, payload)| {
            let op = match op {
                0 => CtlOp::CtxSwitch,
                1 => CtlOp::KEnter,
                2 => CtlOp::KExit,
                3 => CtlOp::TraceOn,
                4 => CtlOp::TraceOff,
                _ => CtlOp::Eof,
            };
            ctl(op, payload)
        }),
        // Fully arbitrary words, including page-zero junk the parser
        // would flag — the codec must round-trip them regardless.
        any::<u32>(),
    ]
}

/// The ASIDs the query properties draw from — for the switches in
/// the trace and for the query alike, so a drawn query meets a drawn
/// switch (drawn apart over 0..=255 they met about once in 256 and
/// the ASID-hit path went all but unexercised). 3 and 67 share a v4
/// zonemap bit.
const QUERY_ASIDS: [u8; 4] = [0, 3, 67, 255];

/// [`word_strategy`] with a third of the words switches among
/// [`QUERY_ASIDS`].
fn query_word_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        word_strategy(),
        word_strategy(),
        (0usize..4).prop_map(|i| ctl(CtlOp::CtxSwitch, QUERY_ASIDS[i])),
    ]
}

/// Answers `pred` twice through one cache with a slot per block —
/// cold, then warm, which must decode nothing and answer the same.
fn query_cold_then_warm(store: &TraceStore, pred: &Predicate) -> QueryResult {
    let mut cache = BlockCache::new(store.n_blocks().max(1));
    let cold = store.query_cached(pred, &mut cache).expect("cold query");
    let warm = store.query_cached(pred, &mut cache).expect("warm query");
    assert_eq!(warm, cold, "warm answer differs from cold");
    assert!(
        cache.misses() <= store.n_blocks() as u64,
        "warm pass decoded"
    );
    cold
}

fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A v4 block's column sections, split at the lengths it declares.
fn columnar_sections(block: &[u8]) -> Vec<Vec<u8>> {
    let lens = wrl_store::column::section_lens(block).expect("own encoding splits");
    let mut at = 4;
    let mut prefix = Vec::new();
    lens.iter()
        .map(|&len| {
            prefix.clear();
            put_varint(&mut prefix, len);
            at += prefix.len() + len;
            block[at - len..at].to_vec()
        })
        .collect()
}

/// Lays `secs` out as a v4 block behind a freshly computed CRC.
fn seal_columnar(secs: &[Vec<u8>]) -> Vec<u8> {
    let mut out = vec![0; 4];
    for sec in secs {
        put_varint(&mut out, sec.len());
        out.extend_from_slice(sec);
    }
    let crc = crc32_bytes(&out[4..]);
    out[..4].copy_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #[test]
    fn codec_round_trip_is_identity(words in vec(word_strategy(), 0..2000)) {
        for bs in BLOCK_SIZES {
            for chunk in words.chunks(bs) {
                let bytes = compress_block(chunk);
                let back = decompress_block(&bytes, chunk.len()).expect("own encoding decodes");
                prop_assert_eq!(&back, chunk);
            }
        }
    }

    #[test]
    fn store_round_trip_is_identity_at_every_block_size(
        words in vec(word_strategy(), 0..2000),
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        for bs in BLOCK_SIZES {
            let store = TraceStore::from_archive(&a, bs);
            let decoded = TraceStore::decode(&store.encode()).expect("own encoding decodes");
            prop_assert_eq!(decoded.words().expect("all CRCs hold"), a.words.clone());
            prop_assert_eq!(decoded.n_words, a.words.len() as u64);
        }
    }

    #[test]
    fn index_summaries_round_trip_and_stay_sound_at_every_block_size(
        words in vec(word_strategy(), 0..2000),
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        for bs in BLOCK_SIZES {
            let store = TraceStore::from_archive(&a, bs);
            let decoded = TraceStore::decode(&store.encode()).expect("own encoding decodes");
            let mut first_word = 0u64;
            for i in 0..store.n_blocks() {
                let (m, d) = (store.block_meta(i), decoded.block_meta(i));
                // Summaries survive the encode/decode round trip
                // bit-for-bit.
                prop_assert_eq!(m, d, "block {} at bs {}", i, bs);
                prop_assert_ne!(m.flags & BlockMeta::FLAG_SUMMARY, 0);
                prop_assert_eq!(m.first_word, first_word);
                first_word += u64::from(m.words);
                // Soundness against the raw words: a block the index
                // declares switch-free must contain no CtxSwitch. The
                // writer parses nothing, so it bounds no data address.
                let r = m.word_range();
                let block = &a.words[r.start as usize..r.end as usize];
                let has_switch = block.iter().any(|&w| {
                    matches!(wrl_trace::classify(w),
                        wrl_trace::TraceWord::Ctl(c) if c.op == CtlOp::CtxSwitch)
                });
                if m.single_asid().is_some() {
                    prop_assert!(!has_switch, "block {} at bs {}", i, bs);
                }
                prop_assert_eq!(m.flags & BlockMeta::FLAG_DADDR, 0);
                prop_assert_eq!((m.min_daddr, m.max_daddr), (0, 0));
            }
            prop_assert_eq!(first_word, a.words.len() as u64);
        }
    }

    #[test]
    fn query_equals_filtered_stream_at_every_block_size(
        words in vec(query_word_strategy(), 0..1500),
        asid_on in any::<bool>(),
        asid_val in 0usize..4,
        lo in 0u64..1600,
        span in 0u64..1600,
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        let pred = wrl_store::Predicate {
            asid: asid_on.then_some(QUERY_ASIDS[asid_val]),
            window: Some((lo, lo + span)),
        };
        let want = wrl_store::filter_stream(&a.words, &pred);
        for bs in BLOCK_SIZES {
            let store = TraceStore::from_archive(&a, bs);
            let got = query_cold_then_warm(&store, &pred);
            prop_assert_eq!(&got.words, &want, "bs {}", bs);
            prop_assert_eq!(got.blocks_decoded + got.blocks_skipped,
                store.n_blocks() as u32);
        }
    }

    #[test]
    fn decompress_arbitrary_bytes_never_panics(
        bytes in vec(any::<u8>(), 0..400),
        n_words in 0usize..600,
    ) {
        // Decode must be total: junk either errors or yields exactly
        // n_words (whose CRC the container layer would then check).
        if let Ok(words) = decompress_block(&bytes, n_words) {
            assert_eq!(words.len(), n_words);
            let _ = crc32_words(&words);
        }
    }

    #[test]
    fn store_decode_arbitrary_bytes_never_panics(bytes in vec(any::<u8>(), 0..400)) {
        let _ = TraceStore::decode(&bytes);
    }

    #[test]
    fn truncated_stores_never_decode(words in vec(word_strategy(), 1..500)) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        let bytes = TraceStore::from_archive(&a, 64).encode();
        // The trailer pins the index position and the index pins every
        // block, so any proper prefix must be rejected.
        for cut in [1usize, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(TraceStore::decode(&bytes[..cut]).is_err(), "cut={}", cut);
        }
    }

    #[test]
    fn v4_store_round_trip_is_identity_at_every_block_size(
        words in vec(word_strategy(), 0..2000),
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        for bs in BLOCK_SIZES {
            let store = TraceStore::from_archive_with(&a, bs, BlockFormat::Columnar);
            let bytes = store.encode();
            prop_assert_eq!(
                u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
                STORE_VERSION_V4
            );
            let decoded = TraceStore::decode_any(&bytes).expect("own encoding decodes");
            prop_assert_eq!(decoded.format(), BlockFormat::Columnar);
            prop_assert_eq!(decoded.words().expect("all CRCs hold"), a.words.clone());
            prop_assert_eq!(decoded.n_words, a.words.len() as u64);
        }
    }

    #[test]
    fn v4_queries_answer_bit_identically_to_v3_and_the_stream_filter(
        words in vec(query_word_strategy(), 0..1500),
        asid_on in any::<bool>(),
        asid_val in 0usize..4,
        lo in 0u64..1600,
        span in 0u64..1600,
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        let pred = Predicate {
            asid: asid_on.then_some(QUERY_ASIDS[asid_val]),
            window: Some((lo, lo + span)),
        };
        let want = filter_stream(&a.words, &pred);
        for bs in BLOCK_SIZES {
            let v3 = TraceStore::from_archive(&a, bs);
            let v4 = TraceStore::from_archive_with(&a, bs, BlockFormat::Columnar);
            let q3 = query_cold_then_warm(&v3, &pred);
            let q4 = query_cold_then_warm(&v4, &pred);
            prop_assert_eq!(&q3.words, &want, "v3 bs {}", bs);
            prop_assert_eq!(&q4.words, &want, "v4 bs {}", bs);
            // The zonemap may only strengthen pruning, never weaken it.
            prop_assert!(q4.blocks_skipped >= q3.blocks_skipped, "bs {}", bs);
            prop_assert_eq!(q4.blocks_decoded + q4.blocks_skipped,
                v4.n_blocks() as u32);
        }
    }

    #[test]
    fn any_single_bit_flip_in_a_v4_store_is_a_typed_error(
        words in vec(word_strategy(), 1..800),
        flip_at in any::<usize>(),
        flip_bit in 0u32..8,
    ) {
        let a = TraceArchive { words, ..TraceArchive::default() };
        let mut bytes = TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar).encode();
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        // Every byte sits under a CRC (metadata, per-block encoded, or
        // decoded-words) or a structural check: the flip must surface
        // as a typed error from decode or from the word extraction —
        // never a panic, never silently different words.
        if let Ok(store) = TraceStore::decode_any(&bytes) {
            match store.words() {
                Err(_) => {}
                Ok(w) => prop_assert_eq!(w, a.words.clone(), "flip silently absorbed"),
            }
        }
    }

    #[test]
    fn columnar_lane_damage_behind_a_resealed_crc_never_panics(
        words in vec(word_strategy(), 0..300),
        at in any::<usize>(),
        bit in 0u32..8,
        extra in vec(any::<u8>(), 1..12),
    ) {
        // Arbitrary bytes never get past the leading CRC, so damage
        // one section of a valid block at a time — a bit flipped, a
        // cut, an extension — and re-seal the CRC: every lane reader
        // then runs on bytes no encoder wrote, ending anywhere.
        let secs = columnar_sections(&wrl_store::column::encode_block(&words));
        for (s, sec) in secs.iter().enumerate() {
            for how in 0..3 {
                let mut bad = secs.clone();
                let len = sec.len();
                match how {
                    0 if len > 0 => bad[s][at % len] ^= 1 << bit,
                    1 => bad[s].truncate(at % (len + 1)),
                    _ => bad[s].extend_from_slice(&extra),
                }
                let block = seal_columnar(&bad);
                prop_assert!(wrl_store::column::section_lens(&block).is_ok());
                for n_words in [words.len().saturating_sub(1), words.len(), words.len() + 1] {
                    if let Ok(got) = wrl_store::column::decode_block(&block, n_words) {
                        prop_assert_eq!(got.len(), n_words, "section {} how {}", s, how);
                    }
                }
            }
        }
    }

    #[test]
    fn columnar_decode_of_arbitrary_bytes_never_panics(
        bytes in vec(any::<u8>(), 0..400),
        n_words in 0usize..600,
    ) {
        if let Ok(words) = wrl_store::column::decode_block(&bytes, n_words) {
            assert_eq!(words.len(), n_words);
        }
        let _ = wrl_store::column::section_lens(&bytes);
    }
}
