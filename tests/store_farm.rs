//! Store + worker-spread integration against the pinned golden trace:
//!
//! * the committed v1 archive keeps loading, both raw and through the
//!   store layer, and v3 compression is lossless on it;
//! * compression meets the ≥3x bar the store exists for;
//! * a fifteen-geometry cache sweep through `analyze_store` at 1, 2
//!   and 4 workers is exactly — field-for-field — equal to fifteen
//!   sequential passes;
//! * a corrupted block is detected and reported as a typed CRC/codec
//!   error by a 2-worker pass, and old tooling rejects a block-store
//!   file as an unsupported version rather than corruption.

use systrace::memsim::{AssocCache, PageMap, Policy, SpaceKey};
use systrace::store::{FarmCfg, StoreError, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{ArchiveError, Space, TraceArchive, TraceSink};
use systrace::tracer::{analyze_store, AnalysisSink, SinkError, SinkReport, Stack};

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";

/// The `cache_sweep` sink, reproduced here so spread-vs-sequential
/// equality is checked against an independent copy of the workhorse
/// analysis, not against `CacheSink` itself.
#[derive(Debug)]
struct CacheStudy {
    icache: AssocCache,
    dcache: AssocCache,
    pagemap: PageMap,
    cur_asid: u8,
}

impl CacheStudy {
    fn new(size: u32, ways: usize) -> CacheStudy {
        CacheStudy {
            icache: AssocCache::new(size, 16, ways),
            dcache: AssocCache::new(size, 16, ways),
            pagemap: PageMap::new(Policy::FirstFree { base_pfn: 0x2000 }),
            cur_asid: 1,
        }
    }

    fn translate(&mut self, vaddr: u32, space: Space) -> u32 {
        match vaddr {
            0x8000_0000..=0xbfff_ffff => vaddr & 0x1fff_ffff,
            _ => {
                let key = if vaddr >= 0xc000_0000 {
                    SpaceKey::Kernel
                } else {
                    match space {
                        Space::User(a) => SpaceKey::User(a),
                        Space::Kernel => SpaceKey::User(self.cur_asid),
                    }
                };
                self.pagemap.translate(key, vaddr)
            }
        }
    }
}

impl TraceSink for CacheStudy {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        for i in 0..n {
            let pa = self.translate(vaddr + 4 * i, space);
            self.icache.access(pa);
        }
    }
    fn dref(&mut self, vaddr: u32, _store: bool, _w: systrace::isa::Width, space: Space) {
        let pa = self.translate(vaddr, space);
        self.dcache.access(pa);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
}

impl AnalysisSink for CacheStudy {
    fn name(&self) -> String {
        "study".into()
    }
    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("iaccesses", self.icache.accesses);
        r.push("imisses", self.icache.misses);
        r.push("daccesses", self.dcache.accesses);
        r.push("dmisses", self.dcache.misses);
        r.push("final_asid", u64::from(self.cur_asid));
        Ok(r)
    }
}

/// The fifteen `cache_sweep` geometries.
fn geometries() -> Vec<(u32, usize)> {
    [16u32 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10]
        .into_iter()
        .flat_map(|size| [1usize, 2, 4].into_iter().map(move |ways| (size, ways)))
        .collect()
}

fn golden_store() -> TraceStore {
    TraceStore::load(GOLDEN_PATH).expect("golden archive loads through the store layer")
}

/// Fifteen independent sequential passes, one parse each.
fn sequential_baseline(a: &TraceArchive) -> Vec<SinkReport> {
    geometries()
        .into_iter()
        .map(|(size, ways)| {
            let mut study = CacheStudy::new(size, ways);
            a.parser().parse_all(&a.words, &mut study);
            study.finish().expect("a study never fails")
        })
        .collect()
}

/// A stack of the fifteen geometries, in sweep order.
fn sweep_stack() -> Stack {
    let mut stack = Stack::new();
    for (size, ways) in geometries() {
        stack.push(CacheStudy::new(size, ways));
    }
    stack
}

#[test]
fn golden_v1_loads_unchanged_and_v3_is_lossless() {
    let a = TraceArchive::load(GOLDEN_PATH).expect("raw v1 load must keep working");
    let store = golden_store();
    assert_eq!(store.n_words as usize, a.words.len());
    assert_eq!(store.words().expect("all CRCs hold"), a.words);
    // And a full v3 disk round-trip changes nothing.
    let back = TraceStore::decode(&store.encode()).expect("own v3 encoding decodes");
    let restored = back.to_archive().expect("v3 decompresses");
    assert_eq!(restored.words, a.words);
    assert_eq!(restored.kernel_table.len(), a.kernel_table.len());
}

#[test]
fn golden_compresses_at_least_3x() {
    let store = golden_store();
    let raw = store.raw_bytes();
    let comp = store.compressed_bytes();
    assert!(
        comp * 3 <= raw,
        "block area must be >=3x smaller than the raw words: {comp} vs {raw} bytes"
    );
}

#[test]
fn farm_sweep_is_bit_identical_for_1_2_4_workers() {
    let a = TraceArchive::load(GOLDEN_PATH).unwrap();
    let store = golden_store();
    let baseline = sequential_baseline(&a);
    for workers in [1usize, 2, 4] {
        let report = analyze_store(&store, sweep_stack(), FarmCfg { workers })
            .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(report.reports.len(), baseline.len());
        for (i, want) in baseline.iter().enumerate() {
            assert_eq!(report.ok(i), Some(want), "workers={workers} geometry {i}");
        }
        assert_eq!(report.words, store.n_words);
        assert_eq!(report.parse.words, store.n_words);
        assert_eq!(report.parse.errors, 0);
    }
}

#[test]
fn corrupted_block_is_detected_and_reported() {
    let store = golden_store();
    let mut bytes = store.encode();
    // Corrupt the middle of the block area, located via the trailer
    // (the index sits right after the blocks).
    let tail_at = bytes.len() - systrace::store::TRAILER_BYTES;
    let index_pos =
        u64::from_le_bytes(bytes[tail_at + 4..tail_at + 12].try_into().unwrap()) as usize;
    let blocks_len = store.compressed_bytes() as usize;
    bytes[index_pos - blocks_len / 2] ^= 0x40;
    let bad = TraceStore::decode(&bytes).expect("framing is still intact");
    let err = analyze_store(&bad, sweep_stack(), FarmCfg { workers: 2 })
        .expect_err("corruption must surface");
    match err {
        StoreError::CrcMismatch { block, want, got } => {
            assert!(block < bad.n_blocks());
            assert_ne!(want, got);
        }
        StoreError::BlockCodec { block, .. } => assert!(block < bad.n_blocks()),
        other => panic!("wrong error type: {other}"),
    }
}

#[test]
fn v1_tooling_rejects_store_encodings_as_unsupported_version() {
    let store = golden_store();
    let encoded = store.encode();
    match TraceArchive::decode(&encoded) {
        Err(ArchiveError::UnsupportedVersion(v)) => {
            assert_eq!(v, systrace::store::STORE_VERSION)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // The store layer reads every version.
    assert_eq!(
        TraceStore::decode_any(&encoded).unwrap().n_words,
        store.n_words
    );
    assert_eq!(store.block_words as usize, DEFAULT_BLOCK_WORDS);
}
