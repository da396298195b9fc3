//! No-panic fuzzing of every decode entry point: seeded-random bytes
//! and mutated-golden bytes go into [`TraceArchive::decode`],
//! [`TraceStore::decode_any`], the block codec, and the reactor's
//! nonblocking frame reassembler, and the only acceptable reactions
//! are a typed error or a successful decode — never a panic, a hang,
//! or an unbounded allocation. Complements the chaos campaign
//! (`tests/chaos_campaign.rs`): the campaign classifies *outcomes*,
//! this suite hammers *totality* with far more inputs.

use proptest::collection::vec;
use proptest::prelude::*;
use systrace::serve::{wire, FrameDecoder, Request};
use systrace::store::{compress_block, decompress_block, Predicate, TraceStore};
use systrace::trace::TraceArchive;

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";

/// Golden bytes in both container versions: the committed v1 archive
/// and its v3 store re-encoding, so mutations attack both decoders.
fn golden_encodings() -> Vec<Vec<u8>> {
    let v1 = std::fs::read(GOLDEN_PATH).expect("golden archive must load");
    let archive = TraceArchive::decode(&v1).expect("golden archive decodes");
    let v3 = TraceStore::from_archive(&archive, 256).encode();
    vec![v1, v3]
}

/// Applies one seeded mutation: flip some bytes, then maybe truncate.
fn mutate(bytes: &mut Vec<u8>, flips: &[(usize, u8)], cut: Option<usize>) {
    for &(at, xor) in flips {
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] ^= xor.max(1);
        }
    }
    if let Some(cut) = cut {
        if !bytes.is_empty() {
            let keep = cut % bytes.len();
            bytes.truncate(keep);
        }
    }
}

/// Every decoder eats the bytes; success and typed errors are both
/// fine, panics are the only failure.
fn decode_everything(bytes: &[u8]) {
    let _ = TraceArchive::decode(bytes);
    let _ = TraceStore::decode_any(bytes);
    for n_words in [1usize, 7, 4096] {
        let _ = decompress_block(bytes, n_words);
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(bytes in vec(any::<u8>(), 0..512)) {
        decode_everything(&bytes);
    }

    #[test]
    fn mutated_golden_bytes_never_panic_any_decoder(
        flips in vec((any::<usize>(), any::<u8>()), 1..6),
        cut in prop_oneof![
            Just(None),
            any::<usize>().prop_map(Some),
        ],
    ) {
        for golden in golden_encodings() {
            let mut bytes = golden;
            mutate(&mut bytes, &flips, cut);
            decode_everything(&bytes);
        }
    }

    #[test]
    fn codec_round_trips_at_every_block_size(words in vec(any::<u32>(), 0..5000)) {
        // The codec itself must round-trip any word content at the
        // exercised block sizes, including the degenerate 1 and the
        // prime 7 (worst cases for context reuse).
        for block in [1usize, 7, 4096] {
            for chunk in words.chunks(block) {
                let comp = compress_block(chunk);
                let back = decompress_block(&comp, chunk.len()).expect("own encoding decodes");
                prop_assert_eq!(&back, &chunk.to_vec(), "block={}", block);
            }
        }
    }

    #[test]
    fn corrupted_compressed_blocks_error_or_decode_never_panic(
        words in vec(any::<u32>(), 1..2000),
        at in any::<usize>(),
        xor in 1u8..=255,
        n_words_lie in 0usize..5000,
    ) {
        let mut comp = compress_block(&words);
        let i = at % comp.len();
        comp[i] ^= xor;
        // With the true count and with a lying count: typed error or
        // clean decode, never a panic (the CRC layer above the codec
        // is what distinguishes wrong from right content).
        let _ = decompress_block(&comp, words.len());
        let _ = decompress_block(&comp, n_words_lie);
    }
}

/// How a framed byte stream ended, in terms both the blocking reader
/// and the nonblocking reassembler can express.
#[derive(Debug, PartialEq, Eq)]
enum StreamEnd {
    /// EOF exactly at a frame boundary.
    Clean,
    /// EOF mid-frame (inside a length prefix or a body).
    Truncated,
    /// A length prefix outside `MIN_BODY..=MAX_FRAME`.
    BadLength,
}

/// Drains `bytes` through the blocking one-shot reader
/// ([`wire::read_frame`] over a cursor), collecting every complete
/// body and classifying the stream's end.
fn one_shot_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, StreamEnd) {
    let mut r = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match wire::read_frame(&mut r, 0) {
            Ok(wire::FrameRead::Frame(b)) => frames.push(b),
            Ok(wire::FrameRead::Eof) => return (frames, StreamEnd::Clean),
            Ok(wire::FrameRead::Idle) => unreachable!("cursors never stall"),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return (frames, StreamEnd::Truncated)
            }
            Err(_) => return (frames, StreamEnd::BadLength),
        }
    }
}

/// Drains `bytes` through the reactor's incremental [`FrameDecoder`]
/// in chunks whose sizes cycle through `sizes` — the nonblocking
/// reassembly path, fragmented at arbitrary byte boundaries.
fn reassembled_frames(bytes: &[u8], sizes: &[usize]) -> (Vec<Vec<u8>>, StreamEnd) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut at = 0;
    for i in 0.. {
        if at >= bytes.len() {
            break;
        }
        let n = sizes[i % sizes.len()].max(1).min(bytes.len() - at);
        if dec.feed(&bytes[at..at + n], &mut frames).is_err() {
            return (frames, StreamEnd::BadLength);
        }
        at += n;
    }
    let end = if dec.mid_frame() {
        StreamEnd::Truncated
    } else {
        StreamEnd::Clean
    };
    (frames, end)
}

fn arb_archive() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| ["", "sed", "grr", "quite-a-long-archive-name"][i].to_string())
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Catalog),
        Just(Request::Metrics),
        (arb_archive(), any::<u32>(), any::<u32>()).prop_map(|(archive, first_block, n_blocks)| {
            Request::Fetch {
                archive,
                first_block,
                n_blocks,
            }
        }),
        (
            arb_archive(),
            any::<bool>(),
            any::<u8>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(archive, has_asid, asid, has_win, lo, hi)| {
                Request::Query {
                    archive,
                    pred: Predicate {
                        asid: has_asid.then_some(asid),
                        window: has_win.then_some((lo, hi)),
                    },
                }
            }),
    ]
}

fn encode_stream(reqs: &[Request]) -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        stream.extend_from_slice(&wire::encode_request(i as u64, r));
    }
    stream
}

proptest! {
    /// The reactor's frame reassembly, fed any chunking of a valid
    /// request stream — one byte at a time, prefixes split across
    /// reads, several frames in one read — produces exactly the
    /// frames the blocking reader produces, and every body decodes
    /// back to the request that encoded it.
    #[test]
    fn any_chunking_of_valid_frames_reassembles_identically(
        reqs in vec(arb_request(), 1..5),
        sizes in vec(1usize..64, 1..16),
    ) {
        let stream = encode_stream(&reqs);
        let (oneshot, end) = one_shot_frames(&stream);
        prop_assert_eq!(end, StreamEnd::Clean);
        let (chunked, cend) = reassembled_frames(&stream, &sizes);
        prop_assert_eq!(cend, StreamEnd::Clean);
        prop_assert_eq!(&chunked, &oneshot);
        for (i, body) in chunked.iter().enumerate() {
            let (rid, back) = wire::decode_request(body).expect("valid frames decode");
            prop_assert_eq!(rid, i as u64);
            prop_assert_eq!(&back, &reqs[i]);
        }
    }

    /// Mutated streams (bit flips, truncation) through any chunking:
    /// the reassembler never panics, and it agrees with the blocking
    /// reader on both the recovered frames and how the stream ended —
    /// damage surfaces as the *same* typed condition on both paths.
    #[test]
    fn mutated_frame_streams_agree_with_the_blocking_reader(
        reqs in vec(arb_request(), 1..4),
        sizes in vec(1usize..32, 1..16),
        flips in vec((any::<usize>(), any::<u8>()), 0..4),
        cut in prop_oneof![Just(None), any::<usize>().prop_map(Some)],
    ) {
        let mut stream = encode_stream(&reqs);
        mutate(&mut stream, &flips, cut);
        let (oneshot, oend) = one_shot_frames(&stream);
        let (chunked, cend) = reassembled_frames(&stream, &sizes);
        prop_assert_eq!(cend, oend);
        prop_assert_eq!(&chunked, &oneshot);
        // Whatever bodies survived framing, decode is total: a typed
        // result either way, never a panic (the CRC distinguishes
        // right from wrong content above this layer).
        for body in &chunked {
            let _ = wire::decode_request(body);
            let _ = wire::decode_response(body);
        }
    }
}

/// Characters a sink-spec or duty-cycle string plausibly contains —
/// digits with suffixes, separators, and a little junk, so the fuzz
/// walks both the accept and reject paths of the grammars.
fn arb_speclike_string(max: usize) -> impl Strategy<Value = String> {
    let c = prop_oneof![
        Just('0'),
        Just('1'),
        Just('4'),
        Just('7'),
        Just('9'),
        Just('k'),
        Just('K'),
        Just('m'),
        Just('M'),
        Just(':'),
        Just(','),
        Just('.'),
        Just('-'),
        Just('x'),
        Just('e'),
        Just(' '),
        Just('\u{7f}'),
    ];
    vec(c, 0..max).prop_map(|cs| cs.into_iter().collect())
}

/// A number that parses: small, odd or a power of two, now and then
/// with a `k` suffix.
fn arb_spec_number() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            0u32..40,
            (0u32..1024).prop_map(|n| 2 * n + 1),
            (0u32..24).prop_map(|s| 1 << s),
        ],
        prop_oneof![Just(""), Just(""), Just("k")],
    )
        .prop_map(|(n, k)| format!("{n}{k}"))
}

/// A spec item that is *almost* one of the real sink names, or junk —
/// or, half the time, a `cache:<size>:<ways>` whose numbers parse, so
/// that the geometry rule and not the number parser decides it (the
/// character soup almost never spells a number).
fn arb_spec_item() -> impl Strategy<Value = String> {
    let cache = (arb_spec_number(), arb_spec_number())
        .prop_map(|(size, ways)| format!("cache:{size}:{ways}"));
    let soup = (
        prop_oneof![
            Just("cache"),
            Just("tlb"),
            Just("dilation"),
            Just("pagemap"),
            Just("defense"),
            Just("sampled"),
            Just("wset"),
            Just("phase"),
            Just("cachex"),
            Just(""),
        ],
        arb_speclike_string(12),
    )
        .prop_map(|(name, tail)| format!("{name}{tail}"));
    prop_oneof![soup, cache]
}

proptest! {
    /// The `sampled` item of the sink-spec grammar is total: any
    /// argument string builds a stack or surfaces a typed
    /// `SinkSpecError`, never a panic, and the same one twice. Every
    /// sampled sink built has a live `on` window, a period that does
    /// not overflow and a phase inside it, and its name rebuilds the
    /// same sink.
    #[test]
    fn sampled_window_config_parsing_never_panics(s in arb_speclike_string(32)) {
        use systrace::memsim::{PageMap, Policy};
        use systrace::tracer::{build_stack, SampledCfg};
        let pagemap = PageMap::new(Policy::Identity);
        let build = |spec: &str| build_stack(spec, &pagemap).map(|stack| stack.names());
        let spec = format!("sampled:{s}");
        let names = build(&spec);
        prop_assert_eq!(&names, &build(&spec));
        if let Ok(names) = names {
            for name in names.iter().filter_map(|n| n.strip_prefix("sampled:")) {
                let f: Vec<u64> = name.split(':').map(|x| x.parse().unwrap()).collect();
                let cfg = SampledCfg { on: f[0], off: f[1], seed: f[2] };
                prop_assert!(cfg.on >= 1);
                prop_assert!(cfg.on.checked_add(cfg.off).is_some());
                prop_assert!(cfg.phase() < cfg.period());
            }
            prop_assert_eq!(build(&names.join(",")), Ok(names));
        }
    }

    /// The sink-spec grammar behind `tracedump analyze` is total too:
    /// any comma-joined item list builds a stack or surfaces a typed
    /// `SinkSpecError`, never a panic.
    #[test]
    fn sink_spec_parsing_never_panics(items in vec(arb_spec_item(), 0..5)) {
        use systrace::memsim::{PageMap, Policy};
        use systrace::tracer::build_stack;
        let spec = items.join(",");
        let pagemap = PageMap::new(Policy::Identity);
        match build_stack(&spec, &pagemap) {
            Ok(stack) => prop_assert!(!stack.is_empty()),
            Err(e) => {
                // The error renders (Display is part of the type's
                // contract for CLI surfacing).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// A virtual address from any of the four segments; a third of the
/// draws sit within a word of a segment edge.
fn arb_vaddr() -> impl Strategy<Value = u32> {
    let edge = (0usize..4, 0u32..8).prop_map(|(seg, near)| {
        [0, 0x8000_0000, 0xa000_0000, 0xc000_0000u32][seg]
            .wrapping_sub(4)
            .wrapping_add(near)
    });
    prop_oneof![any::<u32>(), any::<u32>(), edge]
}

proptest! {
    /// Past the parser the sinks are total too: every sink
    /// `build_stack` knows, fed arbitrary events — any ASID, any
    /// segment, context 0 included, which no kernel hands out but a
    /// file from outside can carry — never panics, and `finish`
    /// returns a report per sink. (An identity page map, as above: a
    /// `Random` pool is finite by design.)
    #[test]
    fn arbitrary_events_never_panic_any_sink(
        events in vec((0u8..8, arb_vaddr(), any::<u8>(), any::<bool>(), any::<bool>()), 0..400)
    ) {
        use systrace::isa::Width;
        use systrace::memsim::{PageMap, Policy};
        use systrace::trace::{ParseStats, Space, TraceSink};
        use systrace::tracer::build_stack;
        let spec = "cache:64k:1,tlb,dilation,pagemap,defense,sampled:4:4:1,wset:64,phase:64:0.1";
        let mut stack = build_stack(spec, &PageMap::new(Policy::Identity)).expect("spec builds");
        for (pos, &(kind, vaddr, asid, user, flag)) in events.iter().enumerate() {
            let space = if user { Space::User(asid) } else { Space::Kernel };
            stack.word(pos as u64);
            match kind {
                0..=2 => stack.irefs(vaddr, 1, space, flag),
                3..=5 => {
                    let width = [Width::Byte, Width::Half, Width::Word][kind as usize - 3];
                    stack.dref(vaddr, flag, width, space);
                }
                6 => stack.ctx_switch(asid),
                _ => stack.mode_transition(flag),
            }
        }
        let report = stack.finish(ParseStats::default(), events.len() as u64);
        prop_assert_eq!(report.reports.len(), 8);
    }
}

/// The alloc-bound hardening in one directed case each: an absurd
/// word count must fail fast without attempting the allocation.
#[test]
fn absurd_word_counts_error_without_allocating() {
    assert!(decompress_block(&[0u8; 16], usize::MAX).is_err());
    // A v3 trailer claiming 2^32-ish words for a tiny block area dies
    // on the words-vs-bytes bound during index validation.
    let golden = golden_encodings().remove(1);
    let store = TraceStore::decode_any(&golden).unwrap();
    assert!(store.n_words < u64::from(u32::MAX));
}
