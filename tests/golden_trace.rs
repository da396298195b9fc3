//! Golden-trace regression test.
//!
//! A small `W3KTRACE` archive — the first words of a real traced sed
//! run with its full basic-block tables — is committed under
//! `tests/data/`, and the parser's statistics plus a digest of the
//! full reference stream it emits are pinned here. Any change to the
//! archive codec, the parser's interleaving rules, or the trace
//! format shows up as a digest mismatch instead of silently shifting
//! every downstream prediction.
//!
//! To regenerate after an *intentional* format/parser change:
//!
//! ```text
//! cargo test --test golden_trace regenerate -- --ignored --nocapture
//! ```
//!
//! then update the pinned constants below with the printed values.

use systrace::store::{crc32_bytes, BlockFormat, TraceStore};
use systrace::trace::{CollectSink, ParseStats, Space, TraceArchive, CTL_LIMIT};

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";
/// Trace words kept in the golden archive.
const GOLDEN_WORDS: usize = 8192;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step per byte.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the parsed reference stream: order-sensitive, so any
/// reordering or dropped reference changes it.
fn digest(sink: &CollectSink) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| fnv(&mut h, bytes);
    let space_byte = |s: Space| match s {
        Space::Kernel => 0xffu8,
        Space::User(a) => a,
    };
    for &(vaddr, space, idle) in &sink.irefs {
        eat(&[1, space_byte(space), idle as u8]);
        eat(&vaddr.to_le_bytes());
    }
    for &(vaddr, store, space) in &sink.drefs {
        eat(&[2, space_byte(space), store as u8]);
        eat(&vaddr.to_le_bytes());
    }
    for &asid in &sink.switches {
        eat(&[3, asid]);
    }
    h
}

fn parse_golden() -> (ParseStats, CollectSink) {
    let archive = TraceArchive::load(GOLDEN_PATH).expect("golden archive must load");
    let mut parser = archive.parser();
    let mut sink = CollectSink::default();
    parser.parse_all(&archive.words, &mut sink);
    (parser.stats.clone(), sink)
}

// Pinned expectations. Regenerate (see module docs) only for
// intentional format or parser changes, and say why in the commit.
const PINNED_WORDS: u64 = 8192;
const PINNED_BB_RECORDS: u64 = 7524;
const PINNED_MEM_RECORDS: u64 = 646;
const PINNED_USER_IREFS: u64 = 44;
const PINNED_KERNEL_IREFS: u64 = 31917;
const PINNED_USER_DREFS: u64 = 11;
const PINNED_KERNEL_DREFS: u64 = 635;
const PINNED_KERNEL_ENTRIES: u64 = 8;
const PINNED_CTX_SWITCHES: u64 = 6;
const PINNED_ERRORS: u64 = 0;
const PINNED_DIGEST: u64 = 0xcca2_c05e_d043_5688;

#[test]
fn golden_trace_parses_to_pinned_stats() {
    let (stats, sink) = parse_golden();
    assert_eq!(stats.words, PINNED_WORDS);
    assert_eq!(stats.bb_records, PINNED_BB_RECORDS);
    assert_eq!(stats.mem_records, PINNED_MEM_RECORDS);
    assert_eq!(stats.user_irefs, PINNED_USER_IREFS);
    assert_eq!(stats.kernel_irefs, PINNED_KERNEL_IREFS);
    assert_eq!(stats.user_drefs, PINNED_USER_DREFS);
    assert_eq!(stats.kernel_drefs, PINNED_KERNEL_DREFS);
    assert_eq!(stats.kernel_entries, PINNED_KERNEL_ENTRIES);
    assert_eq!(stats.ctx_switches, PINNED_CTX_SWITCHES);
    assert_eq!(stats.errors, PINNED_ERRORS);
    assert_eq!(digest(&sink), PINNED_DIGEST, "reference stream changed");
}

#[test]
fn golden_trace_streams_to_pinned_stats() {
    // Fed to the driver in chunks, the trace must reproduce the same
    // pinned digest.
    let archive = TraceArchive::load(GOLDEN_PATH).expect("golden archive must load");
    let mut driver = systrace::trace::Driver::new(archive.parser(), CollectSink::default());
    for chunk in archive.words.chunks(512) {
        driver.feed(chunk);
    }
    let (report, sink) = driver.finish();
    assert_eq!(report.parse.words, PINNED_WORDS);
    assert_eq!(report.parse.errors, PINNED_ERRORS);
    assert_eq!(digest(&sink), PINNED_DIGEST);
}

/// The golden words damaged the `seed`th way: a cut, or up to eight
/// bit flips, dropped words or duplicated words at seeded positions.
fn damaged(words: &[u32], seed: u64) -> Vec<u32> {
    let mut rng = systrace::fault::SplitMix64::new(seed);
    let mut w = words.to_vec();
    let mut at = |len: usize| rng.below(len as u64) as usize;
    if seed % 4 == 3 {
        w.truncate(at(w.len()));
        return w;
    }
    for k in 0..=at(8) {
        let mut i = at(w.len());
        // Control words are few and drive the nesting and switch
        // paths: every other hit lands on the next one.
        if k % 2 == 1 {
            i = (i..w.len()).find(|&j| w[j] < CTL_LIMIT).unwrap_or(i);
        }
        match seed % 4 {
            0 => w[i] ^= 1 << at(32),
            1 => drop(w.remove(i)),
            _ => w.insert(i, w[i]),
        }
    }
    w
}

/// FNV-1a over what the parser makes of 64 damaged copies of the
/// golden trace: every event *in emitted order* (so the I/D
/// interleaving is pinned, which [`digest`] does not do), a run of
/// fetches one fetch at a time, then the statistics and the error
/// list of each parse.
fn damaged_digest() -> u64 {
    use systrace::trace::{EventVec, RefEvent};
    let archive = TraceArchive::load(GOLDEN_PATH).expect("golden archive must load");
    let mut h = FNV_OFFSET;
    for seed in 0..64 {
        let mut parser = archive.parser();
        let mut sink = EventVec::default();
        parser.parse_all(&damaged(&archive.words, seed), &mut sink);
        for ev in &sink.0 {
            match *ev {
                RefEvent::Iref {
                    vaddr,
                    n,
                    space,
                    idle,
                } => {
                    for i in 0..n {
                        let vaddr = vaddr + 4 * i;
                        let one =
                            format!("Iref {{ vaddr: {vaddr}, space: {space:?}, idle: {idle} }}");
                        fnv(&mut h, one.as_bytes());
                    }
                }
                _ => fnv(&mut h, format!("{ev:?}").as_bytes()),
            }
        }
        fnv(
            &mut h,
            format!("{:?}{:?}", parser.stats, parser.errors).as_bytes(),
        );
    }
    h
}

const PINNED_DAMAGED_DIGEST: u64 = 0x7bbe_ce88_1b90_6d89;

#[test]
fn damaged_golden_traces_parse_to_a_pinned_digest() {
    assert_eq!(
        damaged_digest(),
        PINNED_DAMAGED_DIGEST,
        "events, statistics or errors changed on a damaged stream"
    );
}

/// `(format, block words, encoded length, crc32_bytes, crc32_bytes
/// ahead of meta_crc)` of `TraceStore::encode()` over the golden
/// archive. Nothing else holds the stored bytes: `bytes_per_word` is
/// checked only to 1%, and a round trip passes for an encoder and
/// decoder that drift together. The whole-file CRC ends in the
/// resealed `meta_crc`, which makes it blind to the header, tables,
/// index and trailer; the last column covers those bytes.
const PINNED_STORE_BYTES: [(BlockFormat, usize, usize, u32, u32); 4] = [
    (BlockFormat::Row, 4096, 15049, 0x6fbd_3407, 0xc700_2f2e),
    (BlockFormat::Row, 64, 20704, 0x0d5a_62fa, 0x3110_eb53),
    (BlockFormat::Columnar, 4096, 7619, 0xac8a_fc90, 0x4f65_8d74),
    (BlockFormat::Columnar, 64, 17247, 0xa3fd_f50f, 0xf784_5ab0),
];

/// The trailer's `meta_crc` and tail magic: what the last pin column
/// leaves out.
const SEAL_BYTES: usize = 4 + 8;

#[test]
fn golden_words_encode_to_pinned_store_bytes() {
    let archive = TraceArchive::load(GOLDEN_PATH).expect("golden archive must load");
    for (format, block_words, len, crc, head_crc) in PINNED_STORE_BYTES {
        let bytes = TraceStore::from_archive_with(&archive, block_words, format).encode();
        assert_eq!(
            (bytes.len(), crc32_bytes(&bytes)),
            (len, crc),
            "{format:?} store at {block_words}-word blocks changed its bytes"
        );
        let head = crc32_bytes(&bytes[..bytes.len() - SEAL_BYTES]);
        assert_eq!(
            head, head_crc,
            "{format:?} store at {block_words}-word blocks changed its header, tables, \
             index or trailer ({head:#010x})"
        );
    }
}

/// Regenerates `tests/data/golden.w3kt` and prints the constants to
/// pin. Run manually; never part of the default suite.
#[test]
#[ignore = "regenerates the golden archive; run only for intentional format changes"]
fn regenerate_golden_archive() {
    use systrace::kernel::{build_system, KernelConfig};
    let w = systrace::workloads::by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(6_000_000_000);
    let mut archive = sys.archive(&run);
    archive.words.truncate(GOLDEN_WORDS);
    std::fs::create_dir_all("tests/data").unwrap();
    archive.save(GOLDEN_PATH).unwrap();

    let (stats, sink) = parse_golden();
    println!("golden archive: {} bytes", archive.encode().len());
    println!("const PINNED_WORDS: u64 = {};", stats.words);
    println!("const PINNED_BB_RECORDS: u64 = {};", stats.bb_records);
    println!("const PINNED_MEM_RECORDS: u64 = {};", stats.mem_records);
    println!("const PINNED_USER_IREFS: u64 = {};", stats.user_irefs);
    println!("const PINNED_KERNEL_IREFS: u64 = {};", stats.kernel_irefs);
    println!("const PINNED_USER_DREFS: u64 = {};", stats.user_drefs);
    println!("const PINNED_KERNEL_DREFS: u64 = {};", stats.kernel_drefs);
    println!(
        "const PINNED_KERNEL_ENTRIES: u64 = {};",
        stats.kernel_entries
    );
    println!("const PINNED_CTX_SWITCHES: u64 = {};", stats.ctx_switches);
    println!("const PINNED_ERRORS: u64 = {};", stats.errors);
    println!("const PINNED_DIGEST: u64 = {:#018x};", digest(&sink));
    println!(
        "const PINNED_DAMAGED_DIGEST: u64 = {:#018x};",
        damaged_digest()
    );
}
