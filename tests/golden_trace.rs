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

use systrace::trace::{CollectSink, ParseStats, Space, TraceArchive};

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";
/// Trace words kept in the golden archive.
const GOLDEN_WORDS: usize = 8192;

/// FNV-1a over the parsed reference stream: order-sensitive, so any
/// reordering or dropped reference changes it.
fn digest(sink: &CollectSink) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
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
}
