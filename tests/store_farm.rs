//! Store + farm integration against the pinned golden trace:
//!
//! * the committed v1 archive keeps loading, both raw and through the
//!   store layer, and v3 compression is lossless on it;
//! * compression meets the ≥3x bar the store exists for;
//! * a farm cache sweep at 1, 2 and 4 workers is
//!   exactly — field-for-field — equal to fifteen sequential passes;
//! * a corrupted block is detected and reported as a typed CRC/codec
//!   error, and old tooling rejects a block-store file as an
//!   unsupported version rather than corruption.

use systrace::memsim::{AssocCache, PageMap, Policy, SpaceKey};
use systrace::store::{replay, FarmCfg, StoreError, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{ArchiveError, SeamHooks, Space, TraceArchive, TraceSink};

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";

/// The `cache_sweep` sink, reproduced here so farm-vs-sequential
/// equality is checked on the real workhorse analysis.
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
    fn iref(&mut self, vaddr: u32, space: Space, _idle: bool) {
        let pa = self.translate(vaddr, space);
        self.icache.access(pa);
    }
    fn dref(&mut self, vaddr: u32, _store: bool, _w: systrace::isa::Width, space: Space) {
        let pa = self.translate(vaddr, space);
        self.dcache.access(pa);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
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

/// Fifteen independent sequential passes — the pre-farm behaviour.
fn sequential_baseline(a: &TraceArchive) -> Vec<CacheStudy> {
    geometries()
        .into_iter()
        .map(|(size, ways)| {
            let mut study = CacheStudy::new(size, ways);
            a.parser().parse_all(&a.words, &mut study);
            study
        })
        .collect()
}

fn assert_identical(farmed: &[CacheStudy], baseline: &[CacheStudy]) {
    assert_eq!(farmed.len(), baseline.len());
    for (i, (f, b)) in farmed.iter().zip(baseline).enumerate() {
        assert_eq!(
            f.icache.accesses, b.icache.accesses,
            "geometry {i} iaccesses"
        );
        assert_eq!(f.icache.misses, b.icache.misses, "geometry {i} imisses");
        assert_eq!(
            f.dcache.accesses, b.dcache.accesses,
            "geometry {i} daccesses"
        );
        assert_eq!(f.dcache.misses, b.dcache.misses, "geometry {i} dmisses");
        assert_eq!(f.cur_asid, b.cur_asid, "geometry {i} final asid");
    }
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
        let sinks = geometries()
            .into_iter()
            .map(|(size, ways)| CacheStudy::new(size, ways))
            .collect();
        let cfg = FarmCfg {
            workers,
            batch_events: 1000, // force many batches on 8k words
        };
        let (report, farmed) = replay(&store, sinks, cfg, &SeamHooks::default())
            .unwrap_or_else(|e| panic!("replay workers={workers}: {e}"));
        assert_identical(&farmed, &baseline);
        assert_eq!(report.workers, workers);
        assert_eq!(report.sinks, 15);
        assert_eq!(report.run.words, store.n_words);
        assert_eq!(report.run.lost_chunks, 0);
        assert_eq!(report.run.parse.errors, 0);
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
    let sinks = vec![CacheStudy::new(16 << 10, 1)];
    let err = replay(&bad, sinks, FarmCfg::default(), &SeamHooks::default())
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
