//! The shard planner and the `W3KSHARD` manifest.
//!
//! Splitting is deterministic: the same store, shard count and
//! [`PlanKind`] always produce the same assignment, the same shard
//! archives and the same manifest bytes. Each shard is a complete,
//! self-verifying `W3KTRACE` archive built by [`wrl_store::TraceStore::subset`]:
//! compressed block bytes, CRCs, ASID summaries and zonemaps are
//! copied verbatim from the source, while word offsets are re-tiled
//! to shard-local coordinates (the archive decoder demands tiling).
//! The manifest keeps the global picture: for every block, its owning
//! shard, its *global* word offset and the pruning proofs
//! (`first_asid`, summary flags, zonemap) — enough for a coordinator
//! to prune and scatter a query without touching any shard.
//!
//! Byte layout (all integers little-endian; see `docs/FORMATS.md`):
//!
//! ```text
//! "W3KSHARD" u32 version=1  u8 plan  u32 n_shards  u64 n_words
//! u32 n_blocks  u32 block_words  str16 archive
//! shard entry × n_shards:  str16 name  u32 n_blocks  u64 n_words  u64 asid_mask
//! block entry × n_blocks:  u32 shard  u32 words  u32 comp_len
//!                          u64 first_word  u64 asid_mask  u8 first_asid  u8 flags
//! u32 crc32 (over every preceding byte)
//! ```

use wrl_store::{matching_rows, Predicate, PruneRow, StoreError, TraceStore};
use wrl_trace::bytes::{put_str16, put_u32, put_u64, Cursor, ReadError};

/// Leading magic of a shard manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"W3KSHARD";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Fixed size of one per-block manifest entry.
pub const MANIFEST_BLOCK_ENTRY_BYTES: usize = 4 + 4 + 4 + 8 + 8 + 1 + 1;

/// How blocks are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// Contiguous block ranges, balanced by block count: shard `i`
    /// owns global blocks `i·n/k .. (i+1)·n/k`. Windowed queries
    /// touch few shards.
    BlockRange,
    /// Placement by a mixed hash of each block's entry ASID context
    /// (`first_asid`), so one ASID's blocks cluster on one shard and
    /// per-ASID queries touch few shards.
    AsidHash,
}

impl PlanKind {
    /// The wire/manifest code of this plan kind.
    pub fn code(self) -> u8 {
        match self {
            PlanKind::BlockRange => 0,
            PlanKind::AsidHash => 1,
        }
    }

    /// Decodes a plan-kind code.
    pub fn from_code(c: u8) -> Option<PlanKind> {
        match c {
            0 => Some(PlanKind::BlockRange),
            1 => Some(PlanKind::AsidHash),
            _ => None,
        }
    }

    /// The name used in manifests summaries and `tracedump` flags.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::BlockRange => "block_range",
            PlanKind::AsidHash => "asid_hash",
        }
    }
}

/// Why a manifest failed to build, encode or decode.
#[derive(Debug)]
pub enum ManifestError {
    /// Structural damage: bad magic, truncation, non-tiling offsets,
    /// aggregates that disagree with the block entries.
    Malformed(&'static str),
    /// The manifest's version is not [`MANIFEST_VERSION`].
    UnsupportedVersion(u32),
    /// The trailing CRC does not match the bytes.
    CrcMismatch {
        /// CRC recorded in the manifest.
        want: u32,
        /// CRC computed over the bytes.
        got: u32,
    },
    /// The split request itself was invalid (zero shards, shard count
    /// over the format's limit).
    BadPlan(&'static str),
    /// Extracting a shard archive from the source store failed.
    Store(StoreError),
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ManifestError::Malformed(what) => write!(f, "malformed manifest: {what}"),
            ManifestError::UnsupportedVersion(v) => write!(f, "unsupported manifest version {v}"),
            ManifestError::CrcMismatch { want, got } => {
                write!(
                    f,
                    "manifest crc mismatch: recorded {want:#010x}, computed {got:#010x}"
                )
            }
            ManifestError::BadPlan(what) => write!(f, "bad shard plan: {what}"),
            ManifestError::Store(e) => write!(f, "shard extraction: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<StoreError> for ManifestError {
    fn from(e: StoreError) -> Self {
        ManifestError::Store(e)
    }
}

impl From<ReadError> for ManifestError {
    fn from(e: ReadError) -> Self {
        ManifestError::Malformed(match e {
            ReadError::Truncated => "truncated",
            ReadError::NotUtf8 => "string is not utf-8",
        })
    }
}

/// One shard's aggregate row in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// The catalog name the shard's archive is served under
    /// (`<archive>.s<ordinal>`).
    pub name: String,
    /// Blocks assigned to this shard.
    pub n_blocks: u32,
    /// Trace words across this shard's blocks.
    pub n_words: u64,
    /// OR of the shard's per-block zonemaps; `0` when the source
    /// store carries no zonemaps (pre-v4).
    pub asid_mask: u64,
}

/// One block's row in the manifest: owner plus the global offset and
/// the pruning proofs copied from the source index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ManifestBlock {
    /// Owning shard ordinal.
    pub shard: u32,
    /// Decoded word count.
    pub words: u32,
    /// Compressed length in bytes (catalog aggregate; also sizes
    /// fetch frames coordinator-side).
    pub comp_len: u32,
    /// Global word offset of the block's first word.
    pub first_word: u64,
    /// Per-ASID zonemap (v4 sources; zero otherwise).
    pub asid_mask: u64,
    /// ASID context at the block's first word.
    pub first_asid: u8,
    /// Summary flags ([`wrl_store::BlockMeta::FLAG_SUMMARY`] and friends).
    pub flags: u8,
}

impl ManifestBlock {
    /// The half-open global word range this block covers.
    pub fn word_range(&self) -> core::ops::Range<u64> {
        self.first_word..self.first_word + u64::from(self.words)
    }

    /// The pruning facts copied from the source index, in the form
    /// the store's one prune predicate takes.
    pub fn prune_row(&self) -> PruneRow {
        PruneRow {
            first_word: self.first_word,
            words: self.words,
            first_asid: self.first_asid,
            flags: self.flags,
            asid_mask: self.asid_mask,
        }
    }
}

/// One sub-query of a scattered query: a maximal run of surviving
/// blocks owned by one shard, consecutive in surviving order. The
/// coordinator sends `pred` (window translated to shard-local word
/// coordinates) to the shard and concatenates unit answers in unit
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterUnit {
    /// Owning shard ordinal.
    pub shard: usize,
    /// The shard-local predicate: same ASID filter, window translated
    /// into the shard archive's word coordinates.
    pub pred: Predicate,
    /// First global block of the run (diagnostics).
    pub first_block: u32,
    /// Last global block of the run (diagnostics).
    pub last_block: u32,
    /// Surviving blocks in the run.
    pub blocks: u32,
}

/// A decoded (and validated) shard manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// How blocks were assigned to shards.
    pub plan: PlanKind,
    /// The source archive's catalog name — the name the coordinator
    /// serves the merged surface under.
    pub archive: String,
    /// Total trace words of the source store.
    pub n_words: u64,
    /// Block size the source store was built with.
    pub block_words: u32,
    /// Per-shard aggregates, in shard-ordinal order.
    pub shards: Vec<ShardEntry>,
    /// Per-block rows, in global block order.
    pub blocks: Vec<ManifestBlock>,
    /// Derived per block: (shard-local first word, shard-local block
    /// ordinal). Rebuilt by the constructors, never serialized.
    local: Vec<(u64, u32)>,
}

/// Maximum shard count the format admits.
pub const MAX_SHARDS: usize = 4096;

impl Manifest {
    /// Total blocks across all shards.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Compressed bytes across all shards (the catalog aggregate).
    pub fn compressed_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.comp_len)).sum()
    }

    /// The shard-local word offset and block ordinal of global block
    /// `i`.
    ///
    /// # Panics
    /// When `i` is out of range.
    pub fn local_of(&self, i: usize) -> (u64, u32) {
        self.local[i]
    }

    /// Builds a manifest for `store` split under `assignment` (shard
    /// → ascending global block ids, as produced by [`plan_shards`]).
    pub fn from_store(
        store: &TraceStore,
        archive: &str,
        assignment: &[Vec<usize>],
        plan: PlanKind,
    ) -> Result<Manifest, ManifestError> {
        let n_blocks = store.n_blocks();
        let mut blocks = vec![None; n_blocks];
        let mut shards = Vec::with_capacity(assignment.len());
        if assignment.is_empty() {
            return Err(ManifestError::BadPlan("no shards"));
        }
        if assignment.len() > MAX_SHARDS {
            return Err(ManifestError::BadPlan("shard count over format limit"));
        }
        for (s, ids) in assignment.iter().enumerate() {
            let mut entry = ShardEntry {
                name: format!("{archive}.s{s}"),
                n_blocks: ids.len() as u32,
                n_words: 0,
                asid_mask: 0,
            };
            for &i in ids {
                if i >= n_blocks {
                    return Err(ManifestError::BadPlan("assignment id out of range"));
                }
                let m = store.block_meta(i);
                if blocks[i].is_some() {
                    return Err(ManifestError::BadPlan("block assigned twice"));
                }
                blocks[i] = Some(ManifestBlock {
                    shard: s as u32,
                    words: m.words,
                    comp_len: m.comp_len,
                    first_word: m.first_word,
                    asid_mask: m.asid_mask,
                    first_asid: m.first_asid,
                    flags: m.flags,
                });
                entry.n_words += u64::from(m.words);
                entry.asid_mask |= m.asid_mask;
            }
            shards.push(entry);
        }
        let blocks = blocks
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(ManifestError::BadPlan("assignment misses a block"))?;
        let mut manifest = Manifest {
            plan,
            archive: archive.to_string(),
            n_words: store.n_words,
            block_words: store.block_words,
            shards,
            blocks,
            local: Vec::new(),
        };
        manifest.index_locals()?;
        Ok(manifest)
    }

    /// Recomputes the derived shard-local coordinates and validates
    /// every cross-field invariant. Used by both constructors, so a
    /// decoded manifest is exactly as trustworthy as a built one.
    fn index_locals(&mut self) -> Result<(), ManifestError> {
        let n_shards = self.shards.len();
        let mut words = vec![0u64; n_shards];
        let mut counts = vec![0u32; n_shards];
        let mut masks = vec![0u64; n_shards];
        let mut tiled = 0u64;
        self.local.clear();
        self.local.reserve(self.blocks.len());
        for b in &self.blocks {
            let s = b.shard as usize;
            if s >= n_shards {
                return Err(ManifestError::Malformed("block owned by unknown shard"));
            }
            if b.first_word != tiled {
                return Err(ManifestError::Malformed(
                    "block offsets do not tile the stream",
                ));
            }
            tiled += u64::from(b.words);
            self.local.push((words[s], counts[s]));
            words[s] += u64::from(b.words);
            counts[s] += 1;
            masks[s] |= b.asid_mask;
        }
        if tiled != self.n_words {
            return Err(ManifestError::Malformed("word total disagrees with blocks"));
        }
        if self.block_words == 0 {
            return Err(ManifestError::Malformed("zero block size"));
        }
        for (s, e) in self.shards.iter().enumerate() {
            if e.n_blocks != counts[s] || e.n_words != words[s] || e.asid_mask != masks[s] {
                return Err(ManifestError::Malformed(
                    "shard aggregates disagree with blocks",
                ));
            }
        }
        Ok(())
    }

    /// Serializes the manifest, CRC-sealed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.shards.len() * 40 + self.blocks.len() * MANIFEST_BLOCK_ENTRY_BYTES,
        );
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        out.push(self.plan.code());
        put_u32(&mut out, self.shards.len() as u32);
        put_u64(&mut out, self.n_words);
        put_u32(&mut out, self.blocks.len() as u32);
        put_u32(&mut out, self.block_words);
        put_str16(&mut out, &self.archive);
        for e in &self.shards {
            put_str16(&mut out, &e.name);
            put_u32(&mut out, e.n_blocks);
            put_u64(&mut out, e.n_words);
            put_u64(&mut out, e.asid_mask);
        }
        for b in &self.blocks {
            put_u32(&mut out, b.shard);
            put_u32(&mut out, b.words);
            put_u32(&mut out, b.comp_len);
            put_u64(&mut out, b.first_word);
            put_u64(&mut out, b.asid_mask);
            out.push(b.first_asid);
            out.push(b.flags);
        }
        let crc = wrl_store::crc32_bytes(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Parses and validates a manifest. The CRC is checked before any
    /// field is believed; every structural invariant the builder
    /// enforces is re-checked here.
    pub fn decode(buf: &[u8]) -> Result<Manifest, ManifestError> {
        if buf.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(ManifestError::Malformed("shorter than magic and version"));
        }
        if &buf[..8] != MANIFEST_MAGIC {
            return Err(ManifestError::Malformed("bad magic"));
        }
        let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        if version != MANIFEST_VERSION {
            return Err(ManifestError::UnsupportedVersion(version));
        }
        if buf.len() < 12 + 4 {
            return Err(ManifestError::Malformed("truncated before crc"));
        }
        let body = &buf[..buf.len() - 4];
        let want = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        let got = wrl_store::crc32_bytes(body);
        if want != got {
            return Err(ManifestError::CrcMismatch { want, got });
        }
        let mut cur = Cursor::at(body, 12);
        let plan =
            PlanKind::from_code(cur.u8()?).ok_or(ManifestError::Malformed("unknown plan kind"))?;
        let n_shards = cur.u32()? as usize;
        if n_shards == 0 || n_shards > MAX_SHARDS {
            return Err(ManifestError::Malformed("shard count out of range"));
        }
        let n_words = cur.u64()?;
        let n_blocks = cur.u32()? as usize;
        if n_blocks > body.len() / MANIFEST_BLOCK_ENTRY_BYTES {
            return Err(ManifestError::Malformed("block count exceeds buffer"));
        }
        let block_words = cur.u32()?;
        let archive = cur.str16()?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(ShardEntry {
                name: cur.str16()?,
                n_blocks: cur.u32()?,
                n_words: cur.u64()?,
                asid_mask: cur.u64()?,
            });
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            blocks.push(ManifestBlock {
                shard: cur.u32()?,
                words: cur.u32()?,
                comp_len: cur.u32()?,
                first_word: cur.u64()?,
                asid_mask: cur.u64()?,
                first_asid: cur.u8()?,
                flags: cur.u8()?,
            });
        }
        if cur.remaining() != 0 {
            return Err(ManifestError::Malformed(
                "trailing bytes after block entries",
            ));
        }
        let mut manifest = Manifest {
            plan,
            archive,
            n_words,
            block_words,
            shards,
            blocks,
            local: Vec::new(),
        };
        manifest.index_locals()?;
        Ok(manifest)
    }

    /// The global block ids a predicate cannot be proven to miss:
    /// the store's own [`matching_rows`] over manifest rows, so the
    /// coordinator prunes precisely the blocks a single node would.
    pub fn surviving(&self, pred: &Predicate) -> Vec<usize> {
        matching_rows(&self.blocks, ManifestBlock::prune_row, pred)
    }

    /// Splits a query into scatter units: maximal runs of surviving
    /// blocks owned by one shard, consecutive in surviving order,
    /// each with the window translated to that shard's local word
    /// coordinates. Concatenating unit answers in unit order yields
    /// exactly the single-node answer:
    ///
    /// * every block strictly inside a unit's global span is either
    ///   owned by another shard (outside this shard's local window)
    ///   or was pruned by an ASID proof the shard re-derives from
    ///   identical index metadata — so the shard decodes exactly the
    ///   unit's surviving blocks;
    /// * units are emitted in ascending global order and shards
    ///   preserve stream order, so the concatenation is the global
    ///   stream order.
    pub fn scatter(&self, pred: &Predicate) -> Vec<ScatterUnit> {
        let surv = self.surviving(pred);
        let (g_lo, g_hi) = pred.window.unwrap_or((0, self.n_words));
        let mut units = Vec::new();
        let mut k = 0usize;
        while k < surv.len() {
            let shard = self.blocks[surv[k]].shard;
            let mut j = k;
            while j + 1 < surv.len() && self.blocks[surv[j + 1]].shard == shard {
                j += 1;
            }
            let (b0, b1) = (surv[k], surv[j]);
            let first = &self.blocks[b0];
            let last = &self.blocks[b1];
            let lo = self.local[b0].0 + g_lo.max(first.first_word) - first.first_word;
            let hi = self.local[b1].0 + g_hi.min(last.word_range().end) - last.first_word;
            units.push(ScatterUnit {
                shard: shard as usize,
                pred: Predicate {
                    asid: pred.asid,
                    window: Some((lo, hi)),
                },
                first_block: b0 as u32,
                last_block: b1 as u32,
                blocks: (j - k + 1) as u32,
            });
            k = j + 1;
        }
        units
    }

    /// A human-readable summary (`tracedump info` prints this for
    /// `W3KSHARD` files).
    pub fn summary(&self) -> String {
        use core::fmt::Write as _;
        let mut s = format!(
            "shard manifest \"{}\": {} shards, plan {}, {} blocks / {} words / block size {}\n",
            self.archive,
            self.shards.len(),
            self.plan.name(),
            self.blocks.len(),
            self.n_words,
            self.block_words,
        );
        for (i, e) in self.shards.iter().enumerate() {
            let comp: u64 = self
                .blocks
                .iter()
                .filter(|b| b.shard as usize == i)
                .map(|b| u64::from(b.comp_len))
                .sum();
            let _ = writeln!(
                s,
                "  s{i} \"{}\": {} blocks, {} words, {} compressed bytes, zonemap {}",
                e.name,
                e.n_blocks,
                e.n_words,
                comp,
                if e.asid_mask == 0 {
                    "none".to_string()
                } else {
                    format!("{:#018x}", e.asid_mask)
                },
            );
        }
        s
    }
}

/// SplitMix64's finalizer — the deterministic ASID mixer behind
/// [`PlanKind::AsidHash`].
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministically assigns every block of `store` to one of
/// `n_shards` shards. Returns ascending global block ids per shard.
/// Shards may come back empty (a hash plan with few ASIDs); the
/// coordinator simply never scatters to them.
pub fn plan_shards(
    store: &TraceStore,
    n_shards: usize,
    kind: PlanKind,
) -> Result<Vec<Vec<usize>>, ManifestError> {
    if n_shards == 0 {
        return Err(ManifestError::BadPlan("no shards"));
    }
    if n_shards > MAX_SHARDS {
        return Err(ManifestError::BadPlan("shard count over format limit"));
    }
    let n = store.n_blocks();
    let mut out = vec![Vec::new(); n_shards];
    for i in 0..n {
        let s = match kind {
            // `i < n` here (loop bound), so the division is safe.
            PlanKind::BlockRange => i * n_shards / n,
            PlanKind::AsidHash => {
                (mix64(u64::from(store.block_meta(i).first_asid)) % n_shards as u64) as usize
            }
        };
        out[s].push(i);
    }
    Ok(out)
}

/// Plans, extracts and describes in one step: splits `store` into
/// `n_shards` shard archives plus the manifest that binds them. The
/// returned stores parallel the manifest's shard entries.
pub fn split_store(
    store: &TraceStore,
    archive: &str,
    n_shards: usize,
    kind: PlanKind,
) -> Result<(Manifest, Vec<TraceStore>), ManifestError> {
    let assignment = plan_shards(store, n_shards, kind)?;
    let manifest = Manifest::from_store(store, archive, &assignment, kind)?;
    let mut stores = Vec::with_capacity(n_shards);
    for ids in &assignment {
        stores.push(store.subset(ids)?);
    }
    Ok((manifest, stores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wrl_store::{filter_stream, BlockFormat};
    use wrl_trace::bbinfo::{BbInfo, BbTraceFlags};
    use wrl_trace::{ctl, BbTable, CtlOp, TraceArchive};

    /// A multi-ASID archive: four user contexts round-robin every 50
    /// words, so blocks at small sizes are ASID-pure and zonemaps
    /// and hash placement have something to bite on.
    fn sample_archive(n_words: usize) -> TraceArchive {
        let mut kt = BbTable::new();
        kt.insert(
            0x8003_0100,
            BbInfo {
                orig_vaddr: 0x8003_0000,
                n_insts: 4,
                ops: vec![],
                flags: BbTraceFlags::default(),
            },
        );
        let mut words = Vec::with_capacity(n_words + n_words / 50 + 2);
        let mut asid = 0u8;
        while words.len() < n_words {
            words.push(ctl(CtlOp::CtxSwitch, asid));
            let run = 50.min(n_words - words.len());
            words.extend(std::iter::repeat_n(0x8003_0100, run));
            asid = (asid + 1) % 4;
        }
        TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: (0..4).map(|a| (a, Arc::default())).collect(),
            words,
        }
    }

    fn stores() -> Vec<TraceStore> {
        let a = sample_archive(2000);
        vec![
            TraceStore::from_archive(&a, 64),
            TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar),
        ]
    }

    fn predicate_panel(n_words: u64) -> Vec<Predicate> {
        let mid = n_words / 2;
        let mut panel = vec![
            Predicate::default(),
            Predicate {
                window: Some((0, 100)),
                ..Predicate::default()
            },
            Predicate {
                window: Some((mid, mid + 333)),
                ..Predicate::default()
            },
            Predicate {
                window: Some((mid, mid)),
                ..Predicate::default()
            },
            Predicate {
                asid: Some(0xee),
                ..Predicate::default()
            },
        ];
        for asid in 0..4u8 {
            panel.push(Predicate {
                asid: Some(asid),
                ..Predicate::default()
            });
            panel.push(Predicate {
                asid: Some(asid),
                window: Some((mid / 2, mid + mid / 2)),
            });
        }
        panel
    }

    #[test]
    fn planning_is_deterministic_and_total() {
        for store in stores() {
            for kind in [PlanKind::BlockRange, PlanKind::AsidHash] {
                let a = plan_shards(&store, 4, kind).unwrap();
                let b = plan_shards(&store, 4, kind).unwrap();
                assert_eq!(a, b);
                let mut all: Vec<usize> = a.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..store.n_blocks()).collect::<Vec<_>>());
                for ids in &a {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
                }
            }
        }
        assert!(matches!(
            plan_shards(&stores()[0], 0, PlanKind::BlockRange),
            Err(ManifestError::BadPlan(_))
        ));
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        for store in stores() {
            for kind in [PlanKind::BlockRange, PlanKind::AsidHash] {
                let (m, shards) = split_store(&store, "golden", 3, kind).unwrap();
                assert_eq!(shards.len(), 3);
                assert_eq!(shards.iter().map(|s| s.n_words).sum::<u64>(), store.n_words);
                let bytes = m.encode();
                let back = Manifest::decode(&bytes).unwrap();
                assert_eq!(back, m);

                // One flipped bit anywhere is a CRC mismatch (or a
                // magic/version rejection for the leading bytes).
                for at in [3usize, 9, 20, bytes.len() / 2, bytes.len() - 1] {
                    let mut bad = bytes.clone();
                    bad[at] ^= 0x10;
                    assert!(
                        Manifest::decode(&bad).is_err(),
                        "flip at {at} must not decode"
                    );
                }
                let mut wrong_version = bytes.clone();
                wrong_version[8] = 9;
                // Version is checked before the CRC so readers can
                // say "too new" rather than "damaged"; re-seal.
                let body_len = wrong_version.len() - 4;
                let crc = wrl_store::crc32_bytes(&wrong_version[..body_len]);
                wrong_version[body_len..].copy_from_slice(&crc.to_le_bytes());
                assert!(matches!(
                    Manifest::decode(&wrong_version),
                    Err(ManifestError::UnsupportedVersion(9))
                ));
                assert!(matches!(
                    Manifest::decode(&bytes[..bytes.len() - 9]),
                    Err(ManifestError::CrcMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn scattered_queries_merge_bit_identical_to_single_node() {
        for store in stores() {
            let full = store.words().unwrap();
            for kind in [PlanKind::BlockRange, PlanKind::AsidHash] {
                for n_shards in [1usize, 2, 4] {
                    let (m, shards) = split_store(&store, "golden", n_shards, kind).unwrap();
                    for (i, pred) in predicate_panel(store.n_words).iter().enumerate() {
                        let single = store.query(pred).unwrap();
                        let mut merged = Vec::new();
                        let mut decoded = 0u32;
                        for u in m.scatter(pred) {
                            let q = shards[u.shard].query(&u.pred).unwrap();
                            assert_eq!(
                                q.blocks_decoded, u.blocks,
                                "{kind:?}/{n_shards} pred {i}: shard decodes the unit's blocks"
                            );
                            decoded += q.blocks_decoded;
                            merged.extend_from_slice(&q.words);
                        }
                        assert_eq!(
                            merged, single.words,
                            "{kind:?}/{n_shards} pred {i}: merged answer differs"
                        );
                        assert_eq!(merged, filter_stream(&full, pred));
                        assert_eq!(decoded, single.blocks_decoded);
                    }
                }
            }
        }
    }

    #[test]
    fn summary_names_every_shard() {
        let store = &stores()[1];
        let (m, _) = split_store(store, "golden", 2, PlanKind::AsidHash).unwrap();
        let s = m.summary();
        assert!(s.contains("plan asid_hash"));
        assert!(s.contains("golden.s0"));
        assert!(s.contains("golden.s1"));
    }
}
