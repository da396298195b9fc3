//! The block-structured, seekable trace container (archive formats
//! version 3 and the columnar version 4; version 1 still loads).
//!
//! A version-1 `W3KTRACE` archive stores raw words; this container
//! keeps the identical table section but chunks the word stream into
//! fixed-size blocks, compresses each ([`crate::codec`] for the v3
//! row layout, [`crate::column`] for the v4 columnar layout), and
//! appends a footer index so any block can be located and decoded
//! without touching the others:
//!
//! ```text
//! "W3KTRACE" magic, u32 version = 3 | 4, u32 block_words
//! table section (byte-identical to v1's)
//! u64 n_words
//! compressed blocks, concatenated
//! index: { u64 offset, u32 comp_len, u32 words, u32 crc32,
//!          u8 first_asid, u8 last_asid,
//!          u8 flags, u64 first_word, u32 min_daddr, u32 max_daddr
//!          [, u64 asid_mask — v4 only]
//!        }  × n_blocks
//! u32 n_blocks, u64 index_pos, u32 meta_crc, "W3KSIDX\0" tail magic
//! ```
//!
//! The trailer is fixed-size and at the very end, so a reader seeks
//! straight to the index, then decodes blocks independently (and in
//! parallel — see [`crate::farm`]). Each index entry carries the
//! block's CRC-32 over its *decoded* words (end-to-end: catches codec
//! bugs and at-rest corruption alike) and the ASID context at the
//! block's first and last word, maintained by scanning context-switch
//! control words at write time. `meta_crc` is a CRC-32 over every
//! byte *outside* the block area — header, tables, word count, index
//! and the trailer's first two fields — so corruption of the decoding
//! metadata is as detectable as corruption of the blocks themselves
//! (a flipped table byte would otherwise decode to silently wrong
//! events, the one outcome the §4.3 discipline forbids).
//!
//! Version 3 widens each index entry with query summaries, computed
//! at write time from the raw words alone: the block's global word
//! offset (`first_word`) and whether the block contains any
//! context-switch control word. These let a [`Predicate`] prove most
//! blocks irrelevant *from the index alone* — the predicate-pushdown
//! behind [`TraceStore::query`] and the `wrl-serve` trace service.
//! The entry also keeps two reserved data-address bounds
//! (`min_daddr`/`max_daddr`, meaningful only under
//! [`BlockMeta::FLAG_DADDR`]): this writer leaves them zero with the
//! flag clear, since no predicate reads them and only a parse can
//! tell a data word from a block id; readers still accept entries
//! that carry them ordered. (Version 2, the same container with
//! 22-byte entries and no summaries, is no longer read: nothing
//! writes it and no file of it exists.)
//!
//! Version 4 keeps the container framing and widens each entry once
//! more with a 64-bit **ASID zonemap** (`asid_mask`): bit `a & 63` is
//! set for every ASID context `a` occurring in the block. The map is
//! exact for ASIDs below 64 and sound above (a clear bit *proves*
//! absence; a set bit merely fails to prove it), so
//! [`TraceStore::matching_blocks`] prunes on the mask even for blocks
//! that do contain context switches — the case v3's single-ASID proof
//! cannot touch. Blocks are columnar ([`crate::column`]).
//!
//! Reading is one path whatever the block coding: a block the index
//! cannot rule out is decoded whole and CRC-checked
//! ([`decode_block_bytes`]), its words are cut into ASID runs by one
//! scanner (`asid_runs`), and a query hands on the runs its
//! predicate admits ([`TraceStore::filter_block_spans`]).

use std::io;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::codec::{compress_block, crc32_words, decompress_block_into, CodecError, Crc32};
use crate::column;
use wrl_trace::archive::{decode_table_section, encode_table_section, MAGIC};
use wrl_trace::bytes::{put_u32, put_u64, Cursor, ReadError};
use wrl_trace::format::ctx_switch;
use wrl_trace::{ArchiveError, BbTable, TraceArchive, TraceParser};

/// Store format version of the row-coded layout (within the
/// `W3KTRACE` magic).
pub const STORE_VERSION: u32 = 3;
/// Store format version of the columnar layout.
pub const STORE_VERSION_V4: u32 = 4;
/// Trailing magic closing the footer index.
pub const TAIL_MAGIC: &[u8; 8] = b"W3KSIDX\0";
/// Default words per block. 4096 words (16 KB raw) amortises per-block
/// model warm-up while keeping parallel decode granular.
pub const DEFAULT_BLOCK_WORDS: usize = 4096;

/// Encoded size of one v3 footer index entry.
pub const INDEX_ENTRY_BYTES: usize = 8 + 4 + 4 + 4 + 1 + 1 + 1 + 8 + 4 + 4;
/// Encoded size of one v4 footer index entry (v3's plus the ASID
/// zonemap).
pub const INDEX_ENTRY_BYTES_V4: usize = INDEX_ENTRY_BYTES + 8;
/// Encoded size of the fixed trailer: n_blocks, index_pos, meta_crc,
/// tail magic.
pub const TRAILER_BYTES: usize = 4 + 8 + 4 + 8;

/// Errors while reading or verifying a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The table section or v1 fallback failed to decode.
    Archive(ArchiveError),
    /// Structural damage to the container framing.
    Malformed(&'static str),
    /// The file is a `W3KTRACE` of a version this reader does not
    /// decode (the retired version 2 among them).
    UnsupportedVersion(u32),
    /// One block's compressed bytes failed to decode.
    BlockCodec {
        /// Index of the damaged block.
        block: usize,
        /// The codec's diagnosis.
        err: CodecError,
    },
    /// One block decoded but its words hash to the wrong CRC.
    CrcMismatch {
        /// Index of the damaged block.
        block: usize,
        /// CRC recorded in the index.
        want: u32,
        /// CRC of the decoded words.
        got: u32,
    },
    /// The container metadata (header, tables, index, trailer) hashes
    /// to the wrong CRC — the decoding tables or index cannot be
    /// trusted, even though the framing parsed.
    MetaCrcMismatch {
        /// CRC recorded in the trailer.
        want: u32,
        /// CRC of the metadata bytes as read.
        got: u32,
    },
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ArchiveError> for StoreError {
    fn from(e: ArchiveError) -> Self {
        StoreError::Archive(e)
    }
}

impl From<ReadError> for StoreError {
    fn from(_: ReadError) -> Self {
        StoreError::Malformed("truncated")
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o: {e}"),
            StoreError::Archive(e) => write!(f, "{e}"),
            StoreError::Malformed(what) => write!(f, "malformed store: {what}"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::BlockCodec { block, err } => {
                write!(f, "block {block}: {err}")
            }
            StoreError::CrcMismatch { block, want, got } => {
                write!(
                    f,
                    "block {block}: CRC mismatch (index {want:#010x}, decoded {got:#010x})"
                )
            }
            StoreError::MetaCrcMismatch { want, got } => {
                write!(
                    f,
                    "metadata CRC mismatch (trailer {want:#010x}, computed {got:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-block index entry (the footer's contents, decoded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the compressed block within the block area.
    pub offset: u64,
    /// Compressed length in bytes.
    pub comp_len: u32,
    /// Decoded word count.
    pub words: u32,
    /// CRC-32 over the decoded words (little-endian byte view).
    pub crc: u32,
    /// ASID context in effect at the block's first word.
    pub first_asid: u8,
    /// ASID context in effect after the block's last word.
    pub last_asid: u8,
    /// Summary flags ([`BlockMeta::FLAG_SUMMARY`] and friends).
    pub flags: u8,
    /// Global word offset of the block's first word — the block
    /// covers trace-word offsets `first_word .. first_word + words`.
    pub first_word: u64,
    /// Reserved: a lower bound on the block's data addresses, read
    /// only under [`BlockMeta::FLAG_DADDR`]. This writer stores zero.
    pub min_daddr: u32,
    /// Reserved: an upper bound on the block's data addresses, read
    /// only under [`BlockMeta::FLAG_DADDR`]. This writer stores zero.
    pub max_daddr: u32,
    /// Per-ASID zonemap (v4 entries only; zero otherwise): bit
    /// `a & 63` is set for every ASID context `a` of some word in the
    /// block. Meaningful only when [`BlockMeta::FLAG_COLUMNAR`] is
    /// set — a clear bit proves the ASID absent.
    pub asid_mask: u64,
}

impl BlockMeta {
    /// Summaries were computed at write time; without this flag a
    /// reader must assume nothing about the block's contents.
    pub const FLAG_SUMMARY: u8 = 1;
    /// The block contains at least one context-switch control word,
    /// so its words may belong to more than one ASID.
    pub const FLAG_CTX_SWITCH: u8 = 1 << 1;
    /// `min_daddr`/`max_daddr` bound the block's data addresses.
    /// Optional, and never set by this writer; a reader accepts it
    /// with ordered bounds and rejects it with inverted ones.
    pub const FLAG_DADDR: u8 = 1 << 2;
    /// The block's bytes are the columnar [`crate::column`] layout
    /// (v4), and `asid_mask` is a valid zonemap. v4 writers set this
    /// on every entry; a v3 reader never sees it (the decoder
    /// rejects the bit in v3 indexes rather than let a forged
    /// zonemap of zero prune every block).
    pub const FLAG_COLUMNAR: u8 = 1 << 3;

    /// The half-open range of global trace-word offsets this block
    /// covers.
    pub fn word_range(&self) -> core::ops::Range<u64> {
        self.first_word..self.first_word + u64::from(self.words)
    }

    /// `true` when the index *proves* every word in this block sits in
    /// the single ASID context `first_asid`. Requires write-time
    /// summaries; a block without them conservatively answers `None`.
    pub fn single_asid(&self) -> Option<u8> {
        (self.flags & Self::FLAG_SUMMARY != 0 && self.flags & Self::FLAG_CTX_SWITCH == 0)
            .then_some(self.first_asid)
    }
}

/// How a store's blocks are coded on disk and in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockFormat {
    /// Row layout: one interleaved token stream per block
    /// ([`crate::codec`], archive version 3).
    Row,
    /// Columnar layout: per-class column sections per block
    /// ([`crate::column`], archive version 4).
    Columnar,
}

impl BlockFormat {
    /// The `W3KTRACE` version number this block format encodes as.
    pub fn version(self) -> u32 {
        match self {
            BlockFormat::Row => STORE_VERSION,
            BlockFormat::Columnar => STORE_VERSION_V4,
        }
    }
}

/// A loaded trace store: decoding tables plus independently decodable
/// compressed blocks. Cheap to share across threads behind an [`Arc`]
/// — workers decode blocks concurrently with no coordination.
#[derive(Clone, Debug)]
pub struct TraceStore {
    /// The kernel's basic-block table, shared with the archive the
    /// store was built from and with every parser.
    pub kernel_table: Arc<BbTable>,
    /// Per-ASID user tables.
    pub user_tables: Vec<(u8, Arc<BbTable>)>,
    /// Total trace words across all blocks.
    pub n_words: u64,
    /// Nominal words per block (the last block may be short).
    pub block_words: u32,
    /// The footer index.
    index: Vec<BlockMeta>,
    /// The concatenated compressed block area.
    blocks: Arc<Vec<u8>>,
    /// The block coding in force for every block of this store.
    format: BlockFormat,
}

impl TraceStore {
    /// Compresses an archive's word stream into a store, chunking at
    /// `block_words` (clamped to ≥ 1) words per block.
    ///
    /// Besides compressing, this computes each block's index
    /// summaries from the words alone — CRC, word offset and the ASID
    /// context scanned from context-switch control words. It parses
    /// nothing, so the reserved data-address bounds stay zero.
    pub fn from_archive(a: &TraceArchive, block_words: usize) -> TraceStore {
        TraceStore::from_archive_with(a, block_words, BlockFormat::Row)
    }

    /// [`TraceStore::from_archive`] with an explicit block coding —
    /// [`BlockFormat::Columnar`] builds a v4 store with per-class
    /// columns and per-ASID zonemaps in the index.
    pub fn from_archive_with(
        a: &TraceArchive,
        block_words: usize,
        format: BlockFormat,
    ) -> TraceStore {
        let block_words = block_words.max(1);
        let mut index = Vec::new();
        let mut blocks = Vec::new();
        let mut asid = 0u8;
        let mut first_word = 0u64;
        for chunk in a.words.chunks(block_words) {
            let first_asid = asid;
            let mut flags = BlockMeta::FLAG_SUMMARY;
            let mut asid_mask = 0u64;
            for &w in chunk {
                if let Some(to) = ctx_switch(w) {
                    asid = to;
                    flags |= BlockMeta::FLAG_CTX_SWITCH;
                }
                // A word's context is the context after applying it
                // (the switch word belongs to its target ASID), so the
                // zonemap ORs the post-word context per word.
                asid_mask |= 1 << (asid & 63);
            }
            let comp = match format {
                BlockFormat::Row => compress_block(chunk),
                BlockFormat::Columnar => {
                    flags |= BlockMeta::FLAG_COLUMNAR;
                    column::encode_block(chunk)
                }
            };
            index.push(BlockMeta {
                offset: blocks.len() as u64,
                comp_len: comp.len() as u32,
                words: chunk.len() as u32,
                crc: crc32_words(chunk),
                first_asid,
                last_asid: asid,
                flags,
                first_word,
                min_daddr: 0,
                max_daddr: 0,
                asid_mask: if format == BlockFormat::Columnar {
                    asid_mask
                } else {
                    0
                },
            });
            blocks.extend_from_slice(&comp);
            first_word += chunk.len() as u64;
        }
        TraceStore {
            kernel_table: a.kernel_table.clone(),
            user_tables: a.user_tables.clone(),
            n_words: a.words.len() as u64,
            block_words: block_words as u32,
            index,
            blocks: Arc::new(blocks),
            format,
        }
    }

    /// The block coding of this store.
    pub fn format(&self) -> BlockFormat {
        self.format
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.len()
    }

    /// The index entry for one block.
    pub fn block_meta(&self, i: usize) -> &BlockMeta {
        &self.index[i]
    }

    /// Compressed size of the block area in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Raw (uncompressed) size of the word stream in bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.n_words * 4
    }

    /// The compressed bytes of one block, exactly as stored — the raw
    /// payload the `wrl-serve` block-range fetch ships over the wire
    /// (the client decompresses and checks the index CRC itself, so
    /// the end-to-end integrity guarantee survives the network hop).
    pub fn block_bytes(&self, i: usize) -> Result<&[u8], StoreError> {
        let m = self
            .index
            .get(i)
            .ok_or(StoreError::Malformed("block index out of range"))?;
        self.blocks
            .get(m.offset as usize..(m.offset + u64::from(m.comp_len)) as usize)
            .ok_or(StoreError::Malformed("block range outside block area"))
    }

    /// Decodes one block, verifying its CRC. Blocks decode
    /// independently, so this is safe to call from many threads at
    /// once.
    pub fn decode_block(&self, i: usize) -> Result<Vec<u32>, StoreError> {
        let mut out = Vec::new();
        self.decode_blocks_into(i..i + 1, &mut out)?;
        Ok(out)
    }

    /// Batch-decodes a run of consecutive blocks, appending their
    /// words onto `out` and verifying every CRC — the whole-file
    /// reading primitive: one output buffer, no per-block allocation,
    /// and (for v4) the codec's model tables reused across the run.
    pub fn decode_blocks_into(
        &self,
        range: core::ops::Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), StoreError> {
        for i in range {
            let m = *self
                .index
                .get(i)
                .ok_or(StoreError::Malformed("block index out of range"))?;
            decode_block_bytes(i, self.block_bytes(i)?, m.words, m.flags, m.crc, out)?;
        }
        Ok(())
    }

    /// A whole-file batch reader: yields each block's words in stream
    /// order from one reused buffer (see [`BlockReader`]).
    pub fn block_reader(&self) -> BlockReader<'_> {
        BlockReader {
            store: self,
            next: 0,
            buf: Vec::new(),
        }
    }

    /// Decompresses the whole word stream (verifying every CRC).
    pub fn words(&self) -> Result<Vec<u32>, StoreError> {
        // Valid blocks carry at most one word per compressed byte (v3)
        // or eight (v4, one tag bit per word), so the block area
        // bounds the preallocation for any input.
        let cap = match self.format {
            BlockFormat::Row => self.blocks.len(),
            BlockFormat::Columnar => self.blocks.len().saturating_mul(8),
        };
        let mut out = Vec::with_capacity((self.n_words as usize).min(cap));
        self.decode_blocks_into(0..self.n_blocks(), &mut out)?;
        Ok(out)
    }

    /// Per-column encoded-byte totals across every block — `None` for
    /// row-coded stores, which have no columns to account. The
    /// remainder of the block area (per-block CRCs and section length
    /// prefixes) is reported as `overhead`.
    pub fn column_stats(&self) -> Result<Option<ColumnStats>, StoreError> {
        if self.format != BlockFormat::Columnar {
            return Ok(None);
        }
        let mut stats = ColumnStats {
            section_bytes: [0; column::N_COLUMNS],
            overhead_bytes: 0,
        };
        for i in 0..self.n_blocks() {
            let bytes = self.block_bytes(i)?;
            let lens = column::section_lens(bytes)
                .map_err(|err| StoreError::BlockCodec { block: i, err })?;
            let mut body = 0u64;
            for (total, l) in stats.section_bytes.iter_mut().zip(lens) {
                *total += l as u64;
                body += l as u64;
            }
            stats.overhead_bytes += bytes.len() as u64 - body;
        }
        Ok(Some(stats))
    }

    /// Materialises a v1-style in-memory archive (tables + raw words).
    pub fn to_archive(&self) -> Result<TraceArchive, StoreError> {
        Ok(TraceArchive {
            kernel_table: self.kernel_table.clone(),
            user_tables: self.user_tables.clone(),
            words: self.words()?,
        })
    }

    /// Builds a parser sharing this store's tables.
    pub fn parser(&self) -> TraceParser {
        TraceParser::with_tables(self.kernel_table.clone(), self.user_tables.iter().cloned())
    }

    /// Encodes the store to bytes (a version-3 or version-4
    /// `W3KTRACE` file, per [`TraceStore::format`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blocks.len() + 4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.format.version());
        put_u32(&mut out, self.block_words);
        encode_table_section(&mut out, &self.kernel_table, &self.user_tables);
        put_u64(&mut out, self.n_words);
        let blocks_at = out.len();
        out.extend_from_slice(&self.blocks);
        let index_pos = out.len() as u64;
        for m in &self.index {
            put_u64(&mut out, m.offset);
            put_u32(&mut out, m.comp_len);
            put_u32(&mut out, m.words);
            put_u32(&mut out, m.crc);
            out.push(m.first_asid);
            out.push(m.last_asid);
            out.push(m.flags);
            put_u64(&mut out, m.first_word);
            put_u32(&mut out, m.min_daddr);
            put_u32(&mut out, m.max_daddr);
            if self.format == BlockFormat::Columnar {
                put_u64(&mut out, m.asid_mask);
            }
        }
        put_u32(&mut out, self.index.len() as u32);
        put_u64(&mut out, index_pos);
        // Metadata CRC: everything except the block area (whose
        // integrity the per-block CRCs already carry), up to and
        // including the trailer's n_blocks and index_pos fields.
        let mut crc = Crc32::new();
        crc.update(&out[..blocks_at])
            .update(&out[index_pos as usize..]);
        put_u32(&mut out, crc.finish());
        out.extend_from_slice(TAIL_MAGIC);
        out
    }

    /// Decodes a version-4 or version-3 store from bytes. For
    /// transparent loading of v1 archives too, use
    /// [`TraceStore::decode_any`].
    pub fn decode(buf: &[u8]) -> Result<TraceStore, StoreError> {
        if buf.len() < 16 || &buf[..8] != MAGIC {
            return Err(StoreError::Malformed("bad magic"));
        }
        let mut head = Cursor::at(buf, 8);
        let version = head.u32()?;
        let entry_bytes = match version {
            STORE_VERSION => INDEX_ENTRY_BYTES,
            STORE_VERSION_V4 => INDEX_ENTRY_BYTES_V4,
            _ => return Err(StoreError::UnsupportedVersion(version)),
        };
        let format = if version == STORE_VERSION_V4 {
            BlockFormat::Columnar
        } else {
            BlockFormat::Row
        };
        let block_words = head.u32()?;
        if block_words == 0 {
            return Err(StoreError::Malformed("zero block size"));
        }
        let (kernel_table, user_tables, used) = decode_table_section(&buf[16..])?;
        let body = 16 + used;
        let n_words = Cursor::at(buf, body).u64()?;
        let blocks_at = body + 8;

        // Seek to the fixed-size trailer for the index.
        if buf.len() < blocks_at + TRAILER_BYTES {
            return Err(StoreError::Malformed("truncated"));
        }
        let tail_at = buf.len() - TRAILER_BYTES;
        if &buf[buf.len() - 8..] != TAIL_MAGIC {
            return Err(StoreError::Malformed("bad tail magic"));
        }
        let mut tail = Cursor::at(buf, tail_at);
        let n_blocks = tail.u32()? as usize;
        let index_pos = tail.u64()? as usize;
        if index_pos < blocks_at
            || index_pos > tail_at
            || tail_at - index_pos != n_blocks * entry_bytes
        {
            return Err(StoreError::Malformed("index bounds disagree with trailer"));
        }
        // Verify the metadata CRC before trusting the index or the
        // already-decoded tables: the per-block CRCs cover only the
        // block area, so without this a metadata flip could decode to
        // silently wrong events.
        let meta_crc = tail.u32()?;
        let mut crc = Crc32::new();
        crc.update(&buf[..blocks_at])
            .update(&buf[index_pos..tail_at + 12]);
        let got = crc.finish();
        if got != meta_crc {
            return Err(StoreError::MetaCrcMismatch {
                want: meta_crc,
                got,
            });
        }
        let blocks_len = (index_pos - blocks_at) as u64;
        let mut index = Vec::with_capacity(n_blocks);
        let mut entries = Cursor::at(buf, index_pos);
        let mut total_words = 0u64;
        for _ in 0..n_blocks {
            let mut m = BlockMeta {
                offset: entries.u64()?,
                comp_len: entries.u32()?,
                words: entries.u32()?,
                crc: entries.u32()?,
                first_asid: entries.u8()?,
                last_asid: entries.u8()?,
                flags: entries.u8()?,
                first_word: entries.u64()?,
                min_daddr: entries.u32()?,
                max_daddr: entries.u32()?,
                asid_mask: 0,
            };
            // The word offsets must tile the stream exactly, or
            // window pushdown would skip the wrong blocks.
            if m.first_word != total_words {
                return Err(StoreError::Malformed(
                    "index word offsets do not tile the stream",
                ));
            }
            if m.flags & BlockMeta::FLAG_DADDR != 0 && m.min_daddr > m.max_daddr {
                return Err(StoreError::Malformed("inverted data-address summary"));
            }
            // Version-specific flag discipline: a v3 entry carrying
            // FLAG_COLUMNAR (with its implicit all-zero zonemap) would
            // silently prune every block from ASID queries, so pre-v4
            // readers *reject* the bit; a v4 entry must carry it, so
            // the block decoder and the zonemap agree on the layout.
            if version == STORE_VERSION_V4 {
                m.asid_mask = entries.u64()?;
                if m.flags & BlockMeta::FLAG_COLUMNAR == 0 {
                    return Err(StoreError::Malformed("v4 entry without columnar flag"));
                }
                if m.flags & !0x0f != 0 {
                    return Err(StoreError::Malformed("unknown flag bits in v4 entry"));
                }
            } else if m.flags & !0x07 != 0 {
                return Err(StoreError::Malformed("unknown flag bits in pre-v4 entry"));
            }
            match m.offset.checked_add(u64::from(m.comp_len)) {
                Some(end) if end <= blocks_len => {}
                _ => return Err(StoreError::Malformed("block range outside block area")),
            }
            // Bound the word count by the compressed length so every
            // decode allocation is bounded by the file size: a row
            // block costs at least one byte per word, a columnar block
            // at least one tag *bit* per word.
            let word_bound = match format {
                BlockFormat::Row => u64::from(m.comp_len),
                BlockFormat::Columnar => u64::from(m.comp_len) * 8,
            };
            if u64::from(m.words) > word_bound {
                return Err(StoreError::Malformed(
                    "block word count exceeds compressed bytes",
                ));
            }
            total_words += u64::from(m.words);
            index.push(m);
        }
        if total_words != n_words {
            return Err(StoreError::Malformed(
                "index word counts disagree with header",
            ));
        }
        Ok(TraceStore {
            kernel_table,
            user_tables,
            n_words,
            block_words,
            index,
            blocks: Arc::new(buf[blocks_at..index_pos].to_vec()),
            format,
        })
    }

    /// Decodes any archive version: v4 and v3 natively, v1 by decoding
    /// the raw words and compressing them in memory (so every caller
    /// gets a block-structured store regardless of the on-disk format,
    /// and `tests/data/golden.w3kt` keeps loading forever).
    pub fn decode_any(buf: &[u8]) -> Result<TraceStore, StoreError> {
        match TraceStore::decode(buf) {
            Ok(s) => Ok(s),
            Err(StoreError::UnsupportedVersion(1)) => Ok(TraceStore::from_archive(
                &TraceArchive::decode(buf)?,
                DEFAULT_BLOCK_WORDS,
            )),
            Err(e) => Err(e),
        }
    }

    /// Saves the store to a file, atomically (see
    /// [`wrl_trace::write_atomic`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        wrl_trace::write_atomic(path, &self.encode())
    }

    /// Loads a trace from a file, accepting v1 through v4 archives.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TraceStore, StoreError> {
        TraceStore::decode_any(&std::fs::read(path)?)
    }

    /// The blocks a predicate cannot prove irrelevant, in stream
    /// order — the pushdown step. A block is skipped only when its
    /// index entry alone proves no word of it matches: the word range
    /// misses the window, a write-time summary shows every word sits
    /// in a single non-matching ASID, or (v4) the ASID zonemap proves
    /// the ASID never occurs. Never decodes anything.
    ///
    /// The window filter binary-searches the index rather than
    /// scanning it: decoders enforce that `first_word` offsets tile
    /// the stream, so entries intersecting `lo..hi` form one
    /// contiguous run.
    pub fn matching_blocks(&self, pred: &Predicate) -> Vec<usize> {
        let index = &self.index;
        let range = match pred.window {
            None => 0..index.len(),
            Some((lo, hi)) => {
                if lo >= hi {
                    return Vec::new();
                }
                // First block whose range reaches past `lo`, then
                // first block starting at or past `hi`.
                let start = index.partition_point(|m| m.first_word + u64::from(m.words) <= lo);
                let end = index.partition_point(|m| m.first_word < hi);
                start..end
            }
        };
        range
            .filter(|&i| {
                let Some(a) = pred.asid else { return true };
                let m = &index[i];
                // The zonemap's clear bit proves absence (exact below
                // ASID 64, sound above — distinct ASIDs can share a
                // bit, never lose one).
                let zonemap_misses = m.flags & BlockMeta::FLAG_COLUMNAR != 0
                    && m.asid_mask & (1u64 << (a & 63)) == 0;
                m.single_asid().is_none_or(|only| only == a) && !zonemap_misses
            })
            .collect()
    }

    /// Hands `emit` the spans of block `i` that `pred` admits, in
    /// order, each borrowed straight from the block's `cache` slot;
    /// stops early, returning `Break`, once `emit` does. ASID context
    /// entering the block comes from the index (`first_asid`), so
    /// blocks filter independently. A block whose decoded words are
    /// already cached costs no decode, and a one-slot cache is the
    /// reused decode buffer of an uncached query.
    ///
    /// One body for every block coding and every predicate: the
    /// window is resolved to block-local rows from the index alone,
    /// the block comes out of its cache slot as verified words cut
    /// into ASID runs, and the rows handed over are the window's
    /// overlap with the runs the predicate admits. Nothing is
    /// answered — or dismissed — from bytes that have not passed the
    /// block's CRCs.
    pub fn filter_block_spans(
        &self,
        i: usize,
        pred: &Predicate,
        cache: &mut BlockCache,
        emit: &mut impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, StoreError> {
        let m = *self
            .index
            .get(i)
            .ok_or(StoreError::Malformed("block index out of range"))?;
        // The block-local row window the predicate admits.
        let (row_lo, row_hi) = match pred.window {
            None => (0, u64::from(m.words)),
            Some((lo, hi)) => {
                let r = m.word_range();
                let lo = lo.max(r.start) - r.start;
                let hi = hi.min(r.end).saturating_sub(r.start);
                if lo >= hi {
                    return Ok(ControlFlow::Continue(()));
                }
                (lo, hi)
            }
        };
        let (words, runs) = cache.block(self, i)?;
        for rows in admitted_spans(runs, pred.asid, row_lo, row_hi) {
            if emit(&words[rows.start as usize..rows.end as usize]).is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Runs a windowed, filtered query: decodes only the blocks the
    /// index cannot rule out and returns the matching words, exactly
    /// the sequence [`filter_stream`] selects from the full decoded
    /// stream. The block-skip counts are the pushdown's measure of
    /// merit (reported by `serve_bench` and the `serve.*` metrics).
    pub fn query(&self, pred: &Predicate) -> Result<QueryResult, StoreError> {
        self.query_cached(pred, &mut BlockCache::new(1))
    }

    /// [`TraceStore::query`] with block materialisation served by a
    /// caller-kept [`BlockCache`]: [`TraceStore::query_spans`]
    /// collected into one vector.
    pub fn query_cached(
        &self,
        pred: &Predicate,
        cache: &mut BlockCache,
    ) -> Result<QueryResult, StoreError> {
        let mut words = Vec::new();
        let (blocks_decoded, blocks_skipped) = self.query_spans(pred, cache, |span| {
            words.extend_from_slice(span);
            ControlFlow::Continue(())
        })?;
        Ok(QueryResult {
            blocks_decoded,
            blocks_skipped,
            words,
        })
    }

    /// The query's one filter loop: hands `emit` every span of
    /// matching words in stream order, each borrowed from its block's
    /// slot in the caller-kept `cache`, and returns the pushdown's
    /// `(blocks_decoded, blocks_skipped)`. Once `emit` returns `Break`
    /// no further span is produced and no further block decoded — how
    /// the trace service stops copying an answer that outgrows its
    /// frame.
    ///
    /// A block whose decoded words are already cached costs a
    /// row-range hand-over instead of a CRC-checked decode. This is
    /// the windowed-query hot path of the trace service — a served
    /// archive sees the same few thousand-word windows over and over,
    /// and re-decoding a 4096-word block to ship a slice of it
    /// dominates the request otherwise. `blocks_decoded` keeps its
    /// pushdown meaning (blocks the index could not rule out), cached
    /// or not.
    pub fn query_spans(
        &self,
        pred: &Predicate,
        cache: &mut BlockCache,
        mut emit: impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> Result<(u32, u32), StoreError> {
        let picked = self.matching_blocks(pred);
        for &i in &picked {
            if self
                .filter_block_spans(i, pred, cache, &mut emit)?
                .is_break()
            {
                break;
            }
        }
        Ok(self.pushdown(&picked))
    }

    /// `(blocks_decoded, blocks_skipped)` of a query that picked
    /// `picked` out of this store's blocks.
    pub(crate) fn pushdown(&self, picked: &[usize]) -> (u32, u32) {
        (picked.len() as u32, (self.n_blocks() - picked.len()) as u32)
    }
}

/// Per-column encoded-size totals for a columnar store, reported by
/// `tracedump info` — which columns carry the bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Total encoded bytes of each column section across all blocks,
    /// in [`column::COLUMN_NAMES`] order.
    pub section_bytes: [u64; column::N_COLUMNS],
    /// Bytes outside the sections: per-block encoded-CRC words and
    /// section length prefixes.
    pub overhead_bytes: u64,
}

/// Streams a store's blocks in order through one reused buffer —
/// the whole-file batch reader behind replay and `store_bench`'s
/// decode-throughput measurement. Each [`BlockReader::next_block`]
/// call yields the next block's verified words; the allocation is
/// made once and recycled.
#[derive(Debug)]
pub struct BlockReader<'a> {
    store: &'a TraceStore,
    next: usize,
    buf: Vec<u32>,
}

impl BlockReader<'_> {
    /// Decodes and verifies the next block, returning its words (or
    /// `None` past the last block). The slice borrows the reader's
    /// buffer and is valid until the next call.
    pub fn next_block(&mut self) -> Option<Result<&[u32], StoreError>> {
        if self.next >= self.store.n_blocks() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        self.buf.clear();
        match self.store.decode_blocks_into(i..i + 1, &mut self.buf) {
            Ok(()) => Some(Ok(&self.buf)),
            Err(e) => Some(Err(e)),
        }
    }
}

/// A bounded, direct-mapped cache of decoded blocks — the
/// [`BlockReader`]'s random-access sibling, through which every
/// query materialises its blocks
/// ([`TraceStore::filter_block_spans`]). Capacity is fixed at
/// construction and block `i` maps to slot `i % slots`, so a
/// scan-shaped workload degrades to plain per-block decode, never to
/// unbounded memory. A slot holds its block's verified words and,
/// beside them, the ASID runs those words make — scanned once
/// where the block is decoded, so an ASID filter over a warm slot is
/// run copies and nothing else (memory bound ≈ `slots ×
/// (block_words × 4 + runs × 24)` bytes; a block has one run more
/// than it has context-changing switches).
///
/// A slot is keyed by `(block index, stored CRC, entering ASID)`, so
/// a cache mistakenly shared between stores misses (and re-decodes)
/// rather than returning another archive's words — or the same words
/// cut into runs under another archive's entering context.
#[derive(Debug)]
pub struct BlockCache {
    slots: Vec<CachedBlock>,
    hits: u64,
    misses: u64,
}

/// One cached block. `key` is `None` while the slot is empty.
#[derive(Clone, Debug, Default)]
struct CachedBlock {
    key: Option<(usize, u32, u8)>,
    words: Vec<u32>,
    runs: Vec<AsidRun>,
}

impl BlockCache {
    /// A cache holding up to `slots` decoded blocks.
    ///
    /// # Panics
    ///
    /// `slots` must be nonzero.
    pub fn new(slots: usize) -> BlockCache {
        assert!(slots > 0, "a zero-slot cache cannot hold a block");
        BlockCache {
            slots: vec![CachedBlock::default(); slots],
            hits: 0,
            misses: 0,
        }
    }

    /// Blocks served from a slot without decoding, since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Blocks decoded on a slot miss, since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The verified words of block `i` of `store` and their ASID
    /// runs (block-local rows), decoding and scanning on miss.
    fn block(&mut self, store: &TraceStore, i: usize) -> Result<(&[u32], &[AsidRun]), StoreError> {
        let n = self.slots.len();
        let m = store.block_meta(i);
        let key = Some((i, m.crc, m.first_asid));
        let slot = &mut self.slots[i % n];
        if slot.key == key {
            self.hits += 1;
        } else {
            // Invalidate before decoding: a failed decode must not
            // leave the evicted block's words filed under `i`.
            slot.key = None;
            slot.words.clear();
            slot.runs.clear();
            store.decode_blocks_into(i..i + 1, &mut slot.words)?;
            asid_runs(&slot.words, m.first_asid, &mut slot.runs);
            slot.key = key;
            self.misses += 1;
        }
        Ok((&slot.words, &slot.runs))
    }
}

/// Which trace words a query selects. Both filters are optional and
/// conjunctive; the empty predicate selects every word.
///
/// A word's ASID context is the base context *after* applying the
/// word — a context-switch control word belongs to the ASID it
/// switches to, matching how [`TraceStore::from_archive`] attributes
/// `first_asid` at block boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Keep only words whose base ASID context equals this.
    pub asid: Option<u8>,
    /// Keep only words whose global offset lies in `lo..hi`.
    pub window: Option<(u64, u64)>,
}

impl Predicate {
    /// Whether a word at global offset `pos` in ASID context `asid`
    /// matches.
    pub fn admits(&self, pos: u64, asid: u8) -> bool {
        self.window.is_none_or(|(lo, hi)| pos >= lo && pos < hi)
            && self.asid.is_none_or(|a| a == asid)
    }
}

/// What one [`TraceStore::query`] returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Blocks the index could not rule out (decoded and filtered).
    pub blocks_decoded: u32,
    /// Blocks the index proved irrelevant (never decoded).
    pub blocks_skipped: u32,
    /// Every matching word, in stream order.
    pub words: Vec<u32>,
}

/// The reference semantics of a [`Predicate`] over a fully decoded
/// word stream: walk the words tracking the base ASID context and
/// keep each word the predicate admits. [`TraceStore::query`] must
/// return exactly this sequence — the differential the loopback
/// service tests and `serve_bench` assert. Deliberately per word:
/// every run-copying reader is compared against it.
pub fn filter_stream(words: &[u32], pred: &Predicate) -> Vec<u32> {
    let mut out = Vec::new();
    let mut asid = 0u8;
    for (pos, &w) in words.iter().enumerate() {
        asid = ctx_switch(w).unwrap_or(asid);
        if pred.admits(pos as u64, asid) {
            out.push(w);
        }
    }
    out
}

/// A maximal run of consecutive words sharing one ASID context: the
/// block-local rows `start..end` of a [`BlockCache`] slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AsidRun {
    /// Row of the run's first word.
    start: u64,
    /// Row one past the run's last word.
    end: u64,
    /// The ASID context of every word in the run.
    asid: u8,
}

/// The one ASID scanner over decoded words: cuts `words`, entered in
/// context `entering`, into runs appended onto `runs`. Attribution is
/// [`filter_stream`]'s: a word belongs to the context in force
/// *after* it (a switch word opens its target's run), and a switch to
/// the context already in force splits nothing.
fn asid_runs(words: &[u32], entering: u8, runs: &mut Vec<AsidRun>) {
    let mut close = |start: usize, end: usize, asid: u8| {
        if start < end {
            let (start, end) = (start as u64, end as u64);
            runs.push(AsidRun { start, end, asid });
        }
    };
    let (mut start, mut asid) = (0, entering);
    for (j, &w) in words.iter().enumerate() {
        if let Some(to) = ctx_switch(w).filter(|&to| to != asid) {
            close(start, j, asid);
            (start, asid) = (j, to);
        }
    }
    close(start, words.len(), asid);
}

/// The parts of rows `lo..hi` an ASID filter admits, in order: all
/// of it when there is no filter, else its overlap with each of
/// `runs` in that context. What a query copies out of a block.
fn admitted_spans(
    runs: &[AsidRun],
    asid: Option<u8>,
    lo: u64,
    hi: u64,
) -> impl Iterator<Item = core::ops::Range<u64>> + '_ {
    let whole = asid.is_none().then_some(lo..hi);
    let parts = runs
        .iter()
        .filter(move |r| asid == Some(r.asid))
        .map(move |r| r.start.max(lo)..r.end.min(hi));
    whole.into_iter().chain(parts).filter(|s| s.start < s.end)
}

/// Decodes one stored block's bytes onto `out` — the codec its
/// `flags` name ([`BlockMeta::FLAG_COLUMNAR`] or the row codec), then
/// the decoded words against `crc`. The one block decoder: a store
/// reads its own blocks through it and a `wrl-serve` client the
/// blocks it fetched, so the end-to-end check is spelled once.
/// `block` names the block in the error.
pub fn decode_block_bytes(
    block: usize,
    bytes: &[u8],
    words: u32,
    flags: u8,
    crc: u32,
    out: &mut Vec<u32>,
) -> Result<(), StoreError> {
    let start = out.len();
    if flags & BlockMeta::FLAG_COLUMNAR != 0 {
        column::decode_block_into(bytes, words as usize, out)
    } else {
        decompress_block_into(bytes, words as usize, out)
    }
    .map_err(|err| StoreError::BlockCodec { block, err })?;
    let got = crc32_words(&out[start..]);
    if got != crc {
        return Err(StoreError::CrcMismatch {
            block,
            want: crc,
            got,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::bbinfo::{BbInfo, BbTraceFlags};
    use wrl_trace::{ctl, CollectSink, CtlOp};

    fn sample_archive(n_words: u32) -> TraceArchive {
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
        let mut words = vec![ctl(CtlOp::CtxSwitch, 3), ctl(CtlOp::KEnter, 0)];
        words.extend(std::iter::repeat_n(0x8003_0100, n_words as usize));
        words.push(ctl(CtlOp::KExit, 0));
        TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: vec![(3, Arc::default())],
            words,
        }
    }

    /// Where the index of `bytes`, a store encoding, starts.
    fn index_pos(bytes: &[u8]) -> usize {
        let tail_at = bytes.len() - TRAILER_BYTES;
        u64::from_le_bytes(bytes[tail_at + 4..tail_at + 12].try_into().unwrap()) as usize
    }

    /// Re-seals the metadata CRC of `bytes`, an encoding of `store`
    /// whose index was patched, so only the entry checks can object.
    fn reseal(bytes: &mut [u8], store: &TraceStore) {
        let (tail_at, index_pos) = (bytes.len() - TRAILER_BYTES, index_pos(bytes));
        let blocks_at = index_pos - store.compressed_bytes() as usize;
        let mut crc = Crc32::new();
        crc.update(&bytes[..blocks_at])
            .update(&bytes[index_pos..tail_at + 12]);
        let fresh = crc.finish();
        bytes[tail_at + 12..tail_at + 16].copy_from_slice(&fresh.to_le_bytes());
    }

    #[test]
    fn v2_round_trips_and_is_seekable() {
        let a = sample_archive(1000);
        let store = TraceStore::from_archive(&a, 64);
        let bytes = store.encode();
        let back = TraceStore::decode(&bytes).unwrap();
        assert_eq!(back.n_blocks(), store.n_blocks());
        assert_eq!(back.words().unwrap(), a.words);
        // Blocks decode independently, in any order.
        let mut words = vec![Vec::new(); back.n_blocks()];
        for i in (0..back.n_blocks()).rev() {
            words[i] = back.decode_block(i).unwrap();
        }
        assert_eq!(words.concat(), a.words);
    }

    #[test]
    fn asid_context_is_tracked_per_block() {
        let a = sample_archive(100);
        let store = TraceStore::from_archive(&a, 10);
        // First block starts before any switch (ASID 0) and contains
        // the switch to 3; every later block starts at 3.
        assert_eq!(store.block_meta(0).first_asid, 0);
        assert_eq!(store.block_meta(0).last_asid, 3);
        assert_eq!(store.block_meta(1).first_asid, 3);
    }

    #[test]
    fn v1_loads_transparently() {
        let a = sample_archive(500);
        let store = TraceStore::decode_any(&a.encode()).unwrap();
        assert_eq!(store.words().unwrap(), a.words);
        assert_eq!(store.n_words, a.words.len() as u64);
    }

    #[test]
    fn corrupted_block_bytes_are_detected() {
        let a = sample_archive(4000);
        let store = TraceStore::from_archive(&a, 256);
        let mut bytes = store.encode();
        // Flip the last byte of the block area (located through the
        // trailer, like a real reader); decoding the block it lands in
        // must fail with a typed codec or CRC error.
        let index_pos = index_pos(&bytes);
        bytes[index_pos - 1] ^= 0x55;
        let back = TraceStore::decode(&bytes).expect("framing is intact");
        let err = (0..back.n_blocks())
            .find_map(|i| back.decode_block(i).err())
            .expect("some block must fail");
        assert!(matches!(
            err,
            StoreError::CrcMismatch { .. } | StoreError::BlockCodec { .. }
        ));
    }

    #[test]
    fn metadata_corruption_is_detected_by_the_meta_crc() {
        let a = sample_archive(1000);
        let store = TraceStore::from_archive(&a, 64);
        let bytes = store.encode();
        let index_pos = index_pos(&bytes);
        // A flip anywhere outside the block area — table section,
        // word-count header, index entries — must surface as a typed
        // error, never as silently different decode results.
        for at in [
            16,
            index_pos - 1 - store.compressed_bytes() as usize,
            index_pos + 3,
        ] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let err = TraceStore::decode(&bad).expect_err("metadata flip must be caught");
            assert!(
                matches!(
                    err,
                    StoreError::MetaCrcMismatch { .. }
                        | StoreError::Malformed(_)
                        | StoreError::Archive(_)
                ),
                "offset {at}: wrong error {err}"
            );
        }
    }

    #[test]
    fn out_of_range_block_index_is_a_typed_error() {
        let a = sample_archive(100);
        let store = TraceStore::from_archive(&a, 64);
        assert!(matches!(
            store.decode_block(store.n_blocks()),
            Err(StoreError::Malformed(_))
        ));
        let mut out = Vec::new();
        assert!(matches!(
            store.filter_block_spans(
                store.n_blocks(),
                &Predicate::default(),
                &mut BlockCache::new(1),
                &mut |span| {
                    out.extend_from_slice(span);
                    ControlFlow::Continue(())
                }
            ),
            Err(StoreError::Malformed("block index out of range"))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn garbage_and_truncation_error_cleanly() {
        assert!(TraceStore::decode(b"not a store").is_err());
        let a = sample_archive(100);
        let bytes = TraceStore::from_archive(&a, 64).encode();
        for cut in [1, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(TraceStore::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn a_v2_image_is_an_unsupported_version_not_a_malformed_store() {
        // A well-formed version-2 file, built by hand (nothing writes
        // one): version 2 header, the 22-byte index entries that stop
        // after `last_asid`, a fresh meta CRC.
        let a = sample_archive(1000);
        let store = TraceStore::from_archive(&a, 64);
        let v3 = store.encode();
        let index_pos = index_pos(&v3);
        let mut v2 = v3[..index_pos].to_vec();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        for i in 0..store.n_blocks() {
            let at = index_pos + i * INDEX_ENTRY_BYTES;
            v2.extend_from_slice(&v3[at..at + 22]);
        }
        put_u32(&mut v2, store.n_blocks() as u32);
        put_u64(&mut v2, index_pos as u64);
        let blocks_at = index_pos - store.compressed_bytes() as usize;
        let mut crc = Crc32::new();
        crc.update(&v2[..blocks_at]).update(&v2[index_pos..]);
        put_u32(&mut v2, crc.finish());
        v2.extend_from_slice(TAIL_MAGIC);
        for decode in [TraceStore::decode, TraceStore::decode_any] {
            assert!(matches!(
                decode(&v2),
                Err(StoreError::UnsupportedVersion(2))
            ));
        }
    }

    /// bb-id, data word pairs in the kernel, entered and left: the data
    /// words are 0x9000_0000 + 0x100 × i — positionally data, even
    /// though they look like addresses — and every word below
    /// 0x9000_0000 is not one.
    fn data_archive() -> TraceArchive {
        use wrl_isa::Width;
        use wrl_trace::bbinfo::MemOp;
        let mut kt = BbTable::new();
        kt.insert(
            0x8003_0100,
            BbInfo {
                orig_vaddr: 0x8003_0000,
                n_insts: 2,
                ops: vec![MemOp {
                    index: 0,
                    store: false,
                    width: Width::Word,
                }],
                flags: BbTraceFlags::default(),
            },
        );
        let mut words = vec![ctl(CtlOp::KEnter, 0)];
        for i in 0..20u32 {
            words.push(0x8003_0100);
            words.push(0x9000_0000 + i * 0x100);
        }
        words.push(ctl(CtlOp::KExit, 0));
        TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: vec![],
            words,
        }
    }

    #[test]
    fn index_summaries_are_exact() {
        let a = data_archive();
        // Memory records in every block, yet no entry of either format
        // bounds them: the writer parses nothing.
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(&a, 8, format);
            let mut first_word = 0u64;
            for i in 0..store.n_blocks() {
                let m = store.block_meta(i);
                assert_ne!(m.flags & BlockMeta::FLAG_SUMMARY, 0);
                assert_eq!(m.first_word, first_word);
                first_word += u64::from(m.words);
                assert_eq!(m.flags & BlockMeta::FLAG_DADDR, 0, "{format:?} block {i}");
                assert_eq!((m.min_daddr, m.max_daddr), (0, 0), "{format:?} block {i}");
            }
            assert_eq!(first_word, a.words.len() as u64);
            // The summaries round-trip through encode/decode.
            let back = TraceStore::decode(&store.encode()).unwrap();
            for i in 0..store.n_blocks() {
                assert_eq!(back.block_meta(i), store.block_meta(i));
            }
        }
    }

    #[test]
    fn entries_carrying_data_address_bounds_still_read() {
        // A parsing writer set FLAG_DADDR and stored each block's least
        // and greatest data word; a reader still takes such a file,
        // unless a pair of bounds is inverted.
        let a = data_archive();
        let preds = panel(&[0, 4], &[None, Some((3, 30)), Some((17, 18))]);
        let formats = [
            (BlockFormat::Row, INDEX_ENTRY_BYTES),
            (BlockFormat::Columnar, INDEX_ENTRY_BYTES_V4),
        ];
        for (format, entry_bytes) in formats {
            let store = TraceStore::from_archive_with(&a, 8, format);
            let with_bounds = |inverted: bool| {
                let mut bytes = store.encode();
                let index_pos = index_pos(&bytes);
                for i in 0..store.n_blocks() {
                    let r = store.block_meta(i).word_range();
                    let block = &a.words[r.start as usize..r.end as usize];
                    let data = || block.iter().filter(|&&w| w >= 0x9000_0000).copied();
                    let (lo, hi) = (data().min().unwrap(), data().max().unwrap());
                    let (lo, hi) = if inverted { (hi, lo) } else { (lo, hi) };
                    let at = index_pos + i * entry_bytes;
                    bytes[at + 22] |= BlockMeta::FLAG_DADDR;
                    bytes[at + 31..at + 35].copy_from_slice(&lo.to_le_bytes());
                    bytes[at + 35..at + 39].copy_from_slice(&hi.to_le_bytes());
                }
                reseal(&mut bytes, &store);
                TraceStore::decode(&bytes)
            };
            let old = with_bounds(false).expect("ordered bounds read");
            for i in 0..old.n_blocks() {
                assert_ne!(old.block_meta(i).flags & BlockMeta::FLAG_DADDR, 0);
            }
            for pred in &preds {
                let got = old.query(pred).unwrap().words;
                assert_eq!(got, filter_stream(&a.words, pred), "{format:?}/{pred:?}");
            }
            assert!(
                matches!(
                    with_bounds(true),
                    Err(StoreError::Malformed("inverted data-address summary"))
                ),
                "{format:?}"
            );
        }
    }

    #[test]
    fn query_matches_filter_stream_and_skips_blocks() {
        let a = sample_archive(1003);
        for block_words in [1, 7, 64] {
            let store = TraceStore::from_archive(&a, block_words);
            for pred in [
                Predicate::default(),
                Predicate {
                    asid: Some(3),
                    ..Predicate::default()
                },
                Predicate {
                    asid: Some(9), // matches no context in this trace
                    ..Predicate::default()
                },
                Predicate {
                    window: Some((5, 40)),
                    asid: None,
                },
                Predicate {
                    window: Some((0, 2)),
                    asid: Some(0),
                },
            ] {
                let q = store.query(&pred).unwrap();
                assert_eq!(
                    q.words,
                    filter_stream(&a.words, &pred),
                    "{block_words}/{pred:?}"
                );
                assert_eq!(q.blocks_decoded + q.blocks_skipped, store.n_blocks() as u32);
            }
            // A tight window proves most blocks irrelevant.
            if block_words == 1 {
                let q = store
                    .query(&Predicate {
                        window: Some((5, 40)),
                        asid: None,
                    })
                    .unwrap();
                assert_eq!(q.blocks_decoded, 35);
            }
        }
    }

    #[test]
    fn query_spans_stop_at_the_first_break() {
        let a = sample_archive(1003);
        let store = TraceStore::from_archive(&a, 7);
        let pred = Predicate {
            window: Some((5, 400)),
            asid: None,
        };
        let mut cache = BlockCache::new(4);
        let mut spans = Vec::new();
        let counts = store
            .query_spans(&pred, &mut cache, |s| {
                spans.push(s.to_vec());
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(spans.concat(), filter_stream(&a.words, &pred));
        let q = store.query(&pred).unwrap();
        assert_eq!(counts, (q.blocks_decoded, q.blocks_skipped));
        assert!(spans.len() > 3, "the window spans several blocks");
        // Breaking at the third span: no fourth is produced, and the
        // blocks past it are never decoded.
        let mut cache = BlockCache::new(1000);
        let mut seen = 0;
        let stopped = store
            .query_spans(&pred, &mut cache, |_| {
                seen += 1;
                if seen == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(seen, 3);
        assert_eq!(stopped, counts, "the pushdown counts stand");
        assert_eq!(cache.misses(), 3, "one block decoded per span");
    }

    #[test]
    fn asid_pushdown_skips_single_context_blocks() {
        // sample_archive switches to ASID 3 at word 0; with one word
        // per block, every block after the switch is provably ASID 3.
        let a = sample_archive(100);
        let store = TraceStore::from_archive(&a, 1);
        let pred = Predicate {
            asid: Some(7),
            ..Predicate::default()
        };
        let q = store.query(&pred).unwrap();
        assert!(q.words.is_empty());
        // Only the switch-carrying first block survives pushdown.
        assert_eq!(q.blocks_decoded, 1);
        assert_eq!(q.blocks_skipped, store.n_blocks() as u32 - 1);
    }

    #[test]
    fn store_parses_identically_to_archive() {
        let a = sample_archive(300);
        let store = TraceStore::from_archive(&a, 32);
        let mut direct = CollectSink::default();
        a.parser().parse_all(&a.words, &mut direct);
        let mut via_store = CollectSink::default();
        store
            .parser()
            .parse_all(&store.words().unwrap(), &mut via_store);
        assert_eq!(via_store.irefs, direct.irefs);
        assert_eq!(via_store.drefs, direct.drefs);
    }

    /// A multi-ASID archive: rotates context switches through several
    /// ASIDs with user- and kernel-looking address runs in between.
    fn multi_asid_archive(n: usize) -> TraceArchive {
        let mut words = Vec::new();
        for i in 0..n as u32 {
            if i % 37 == 0 {
                words.push(ctl(CtlOp::CtxSwitch, (i / 37 % 5) as u8));
            }
            words.push(if i % 3 == 0 {
                0x8003_0100 + i * 8
            } else {
                0x0040_0000 + i * 4
            });
        }
        TraceArchive {
            kernel_table: Arc::default(),
            user_tables: vec![],
            words,
        }
    }

    #[test]
    fn v4_round_trips_and_queries_identically_to_v3() {
        let a = multi_asid_archive(3000);
        for block_words in [1, 7, 64, 4096] {
            let v3 = TraceStore::from_archive(&a, block_words);
            let v4 = TraceStore::from_archive_with(&a, block_words, BlockFormat::Columnar);
            assert_eq!(v4.format(), BlockFormat::Columnar);
            let bytes = v4.encode();
            assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
            let back = TraceStore::decode(&bytes).unwrap();
            assert_eq!(back.format(), BlockFormat::Columnar);
            assert_eq!(back.words().unwrap(), a.words);
            for pred in [
                Predicate::default(),
                Predicate {
                    asid: Some(2),
                    ..Predicate::default()
                },
                Predicate {
                    asid: Some(63), // never occurs: zonemap prunes all
                    ..Predicate::default()
                },
                Predicate {
                    window: Some((11, 900)),
                    asid: None,
                },
                Predicate {
                    window: Some((100, 1500)),
                    asid: Some(1),
                },
            ] {
                let want = filter_stream(&a.words, &pred);
                let q3 = v3.query(&pred).unwrap();
                let q4 = back.query(&pred).unwrap();
                assert_eq!(q3.words, want, "v3 {block_words}/{pred:?}");
                assert_eq!(q4.words, want, "v4 {block_words}/{pred:?}");
                // v4's zonemap can only skip *more* blocks than v3's
                // single-ASID proof, never fewer.
                assert!(
                    q4.blocks_skipped >= q3.blocks_skipped,
                    "{block_words}/{pred:?}"
                );
            }
        }
    }

    #[test]
    fn cached_query_is_identical_to_query_across_formats() {
        let a = multi_asid_archive(3000);
        let preds = [
            Predicate::default(),
            Predicate {
                asid: Some(2),
                ..Predicate::default()
            },
            Predicate {
                window: Some((11, 900)),
                asid: None,
            },
            Predicate {
                window: Some((100, 1500)),
                asid: Some(1),
            },
        ];
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(&a, 64, format);
            // Two slots against ~47 blocks forces eviction and
            // reuse; the large cache exercises the all-hits path.
            for slots in [2, 1024] {
                let mut cache = BlockCache::new(slots);
                for pred in preds {
                    let plain = store.query(&pred).unwrap();
                    // Twice per predicate: cold slots, then warm.
                    for pass in 0..2 {
                        let cached = store.query_cached(&pred, &mut cache).unwrap();
                        assert_eq!(cached, plain, "{format:?}/{slots}/{pass}/{pred:?}");
                    }
                }
                assert!(cache.misses() > 0);
                // Sequential sweeps thrash a two-slot cache (every
                // access evicts); only the large cache must hit.
                if slots > 2 {
                    assert!(cache.hits() > 0);
                }
            }
        }
    }

    #[test]
    fn a_cache_shared_between_stores_re_decodes_instead_of_lying() {
        // The slot key includes the block's index CRC, so two stores
        // with different blockings of the same trace can (wrongly)
        // share one cache and still each get their own words back.
        let a = multi_asid_archive(1200);
        let s1 = TraceStore::from_archive(&a, 64);
        let s2 = TraceStore::from_archive_with(&a, 32, BlockFormat::Columnar);
        let pred = Predicate {
            window: Some((64, 256)),
            asid: None,
        };
        let want = filter_stream(&a.words, &pred);
        let mut cache = BlockCache::new(8);
        for _ in 0..2 {
            assert_eq!(s1.query_cached(&pred, &mut cache).unwrap().words, want);
            assert_eq!(s2.query_cached(&pred, &mut cache).unwrap().words, want);
        }

        // The key includes the entering ASID too: a slot's runs are
        // cut under it. Two stores whose block 1 holds the same words
        // (same index, same CRC) entered in contexts 3 and 5 must not
        // answer from each other's runs.
        let store = |entering: u8| {
            // Block 1 is words 64..120: sixteen in the entering
            // context, then the switch to 9.
            let a = trace_of(&[(entering, 80), (9, 40)]);
            let s = TraceStore::from_archive(&a, 64);
            (a, s)
        };
        let (a3, s3) = store(3);
        let (a5, s5) = store(5);
        assert_eq!(
            s3.decode_block(1).unwrap(),
            s5.decode_block(1).unwrap(),
            "the stores' block 1 words must be equal for the case to bite"
        );
        assert_eq!(
            (s3.block_meta(1).first_asid, s5.block_meta(1).first_asid),
            (3, 5)
        );
        let mut cache = BlockCache::new(4);
        for _ in 0..2 {
            for asid in [3, 5, 9] {
                // The window is block 1, and only block 1.
                let pred = Predicate {
                    asid: Some(asid),
                    window: Some((64, 128)),
                };
                for (a, s) in [(&a3, &s3), (&a5, &s5)] {
                    assert_eq!(
                        s.query_cached(&pred, &mut cache).unwrap().words,
                        filter_stream(&a.words, &pred),
                        "asid {asid}"
                    );
                }
            }
        }
    }

    #[test]
    fn v4_zonemap_prunes_blocks_the_v3_summary_cannot() {
        // Every block of this trace contains a context switch, so v3's
        // single-ASID proof never fires — but ASID 9 never occurs, so
        // the v4 zonemap proves every block irrelevant.
        let a = multi_asid_archive(2000);
        let v3 = TraceStore::from_archive(&a, 37);
        let v4 = TraceStore::from_archive_with(&a, 37, BlockFormat::Columnar);
        let pred = Predicate {
            asid: Some(9),
            ..Predicate::default()
        };
        // Switch spacing drifts against the block size, so v3's proof
        // fires on at most a couple of stragglers.
        assert!(v3.query(&pred).unwrap().blocks_decoded >= v3.n_blocks() as u32 - 2);
        let q4 = v4.query(&pred).unwrap();
        assert_eq!(q4.blocks_decoded, 0);
        assert!(q4.words.is_empty());
    }

    #[test]
    fn v4_window_pushdown_binary_search_agrees_with_scan() {
        let a = multi_asid_archive(1024);
        let store = TraceStore::from_archive_with(&a, 16, BlockFormat::Columnar);
        for (lo, hi) in [(0, 10), (5, 5), (100, 101), (1000, 5000), (17, 900)] {
            let pred = Predicate {
                window: Some((lo, hi)),
                asid: None,
            };
            let picked = store.matching_blocks(&pred);
            let scanned: Vec<usize> = (0..store.n_blocks())
                .filter(|&i| {
                    let r = store.block_meta(i).word_range();
                    lo < hi && r.start < hi && r.end > lo
                })
                .collect();
            assert_eq!(picked, scanned, "{lo}..{hi}");
        }
    }

    #[test]
    fn corrupted_v4_column_is_a_typed_error() {
        let a = multi_asid_archive(900);
        let store = TraceStore::from_archive_with(&a, 128, BlockFormat::Columnar);
        let mut bytes = store.encode();
        let index_pos = index_pos(&bytes);
        // Flip a byte in the middle of the block area — inside some
        // column section — and require a typed error from every read
        // path that reaches the damaged block.
        let blocks_at = index_pos - store.compressed_bytes() as usize;
        bytes[blocks_at + (index_pos - blocks_at) / 2] ^= 0x40;
        let back = TraceStore::decode(&bytes).expect("framing is intact");
        let err = (0..back.n_blocks())
            .find_map(|i| back.decode_block(i).err())
            .expect("some block must fail");
        assert!(matches!(
            err,
            StoreError::BlockCodec { .. } | StoreError::CrcMismatch { .. }
        ));
        let pred = Predicate {
            asid: Some(1),
            ..Predicate::default()
        };
        // The zonemap may prune the damaged block from this query;
        // what it may not do is answer wrongly.
        match back.query(&pred) {
            Err(StoreError::BlockCodec { .. } | StoreError::CrcMismatch { .. }) => {}
            Ok(q) => assert_eq!(q.words, filter_stream(&a.words, &pred)),
            Err(e) => panic!("untyped failure: {e}"),
        }
    }

    #[test]
    fn forged_columnar_flag_in_a_v3_index_is_rejected() {
        // A v3 entry carrying FLAG_COLUMNAR would pair an all-zero
        // zonemap with zonemap-trusting readers and prune everything;
        // the decoder must refuse the file, not the blocks.
        let a = sample_archive(200);
        let store = TraceStore::from_archive(&a, 64);
        let mut bytes = store.encode();
        let at = index_pos(&bytes) + 22;
        bytes[at] |= BlockMeta::FLAG_COLUMNAR;
        reseal(&mut bytes, &store);
        assert!(matches!(
            TraceStore::decode(&bytes),
            Err(StoreError::Malformed("unknown flag bits in pre-v4 entry"))
        ));
    }

    #[test]
    fn block_reader_streams_the_whole_file() {
        let a = multi_asid_archive(777);
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(&a, 50, format);
            let mut reader = store.block_reader();
            let mut all = Vec::new();
            while let Some(block) = reader.next_block() {
                all.extend_from_slice(block.unwrap());
            }
            assert_eq!(all, a.words, "{format:?}");
        }
    }

    #[test]
    fn column_stats_account_for_the_block_area() {
        let a = multi_asid_archive(2000);
        let v3 = TraceStore::from_archive(&a, 256);
        assert_eq!(v3.column_stats().unwrap(), None);
        let v4 = TraceStore::from_archive_with(&a, 256, BlockFormat::Columnar);
        let stats = v4.column_stats().unwrap().expect("columnar store");
        let total: u64 = stats.section_bytes.iter().sum::<u64>() + stats.overhead_bytes;
        assert_eq!(total, v4.compressed_bytes());
    }

    /// A trace of back-to-back contexts: each `(asid, len)` is a
    /// switch word to `asid` followed by `len - 1` address words, so
    /// the switches sit at the running sums of the lengths. Every
    /// address word encodes its own position, so a misplaced copy
    /// cannot compare equal.
    fn trace_of(contexts: &[(u8, usize)]) -> TraceArchive {
        let mut words = Vec::new();
        for &(asid, len) in contexts {
            words.push(ctl(CtlOp::CtxSwitch, asid));
            for _ in 1..len {
                words.push(0x0040_0000 + words.len() as u32 * 4);
            }
        }
        TraceArchive {
            kernel_table: Arc::default(),
            user_tables: vec![],
            words,
        }
    }

    /// Every pairing of `asids` with `windows` (`None` is no window).
    fn panel(asids: &[u8], windows: &[Option<(u64, u64)>]) -> Vec<Predicate> {
        let mut preds = Vec::new();
        for &asid in asids {
            for &window in windows {
                preds.push(Predicate {
                    asid: Some(asid),
                    window,
                });
            }
        }
        preds
    }

    /// Answers every predicate every way the one filter body is
    /// reached — both block codings, a one-slot cache and one holding
    /// every block, each asked cold and then warm — against the
    /// per-word reference.
    fn assert_answers_filter_stream(a: &TraceArchive, block_words: usize, preds: &[Predicate]) {
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(a, block_words, format);
            for slots in [1, store.n_blocks()] {
                let mut cache = BlockCache::new(slots);
                for pass in ["cold", "warm"] {
                    for pred in preds {
                        assert_eq!(
                            store.query_cached(pred, &mut cache).unwrap().words,
                            filter_stream(&a.words, pred),
                            "{format:?}/{slots} slots/{pass}/{pred:?}"
                        );
                    }
                }
                // A slot per block: the warm pass decoded nothing.
                if slots == store.n_blocks() {
                    assert!(cache.misses() <= slots as u64, "{format:?}");
                    assert!(cache.hits() > 0, "{format:?}");
                }
            }
        }
    }

    #[test]
    fn runs_equal_the_per_word_walk() {
        // Rotates through contexts 0..5; its first switch, to 0 while
        // 0 is in force, is one that splits nothing.
        let a = multi_asid_archive(400);
        let n = a.words.len() as u64;
        let mut whole = Vec::new();
        asid_runs(&a.words, 0, &mut whole);
        // Membership in a run is `filter_stream`'s attribution.
        for asid in 0..6 {
            let mut got = Vec::new();
            for s in admitted_spans(&whole, Some(asid), 0, n) {
                got.extend_from_slice(&a.words[s.start as usize..s.end as usize]);
            }
            let pred = Predicate {
                asid: Some(asid),
                window: None,
            };
            assert_eq!(got, filter_stream(&a.words, &pred), "asid {asid}");
        }
        // Runs are maximal and tile the words.
        assert_eq!((whole[0].start, whole.last().unwrap().end), (0, n));
        for pair in whole.windows(2) {
            assert_ne!(pair[0].asid, pair[1].asid);
            assert_eq!(pair[0].end, pair[1].start);
        }
        // No filter admits the whole span whatever the runs say.
        let mut unfiltered = admitted_spans(&whole, None, 5, 9);
        assert_eq!((unfiltered.next(), unfiltered.next()), (Some(5..9), None));
        assert_eq!(admitted_spans(&whole, None, 9, 9).count(), 0);
    }

    #[test]
    fn asids_sharing_a_zonemap_bit_are_told_apart_by_the_decode() {
        // 3 and 67 share zonemap bit 3. In blocks of 16, block 0 holds
        // only context 3 but opens with the switch to it, so neither
        // the single-ASID proof nor the zonemap can dismiss it for a
        // query on 67: the decode must, and must count it.
        let a = trace_of(&[(3, 40), (67, 30), (3, 26)]);
        let block_0 = Some((0, 16));
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(&a, 16, format);
            assert_eq!(store.block_meta(0).single_asid(), None);
            let q = store.query(&panel(&[67], &[block_0])[0]).unwrap();
            assert_eq!((q.words.len(), q.blocks_decoded), (0, 1), "{format:?}");
            let q = store.query(&panel(&[3], &[block_0])[0]).unwrap();
            assert_eq!((q.words.len(), q.blocks_decoded), (16, 1), "{format:?}");
        }
        // 131 = 67 + 64 shares the bit and occurs nowhere.
        let windows = [
            None,
            block_0,
            Some((16, 32)),
            Some((30, 75)),
            Some((48, 64)),
        ];
        assert_answers_filter_stream(&a, 16, &panel(&[3, 67, 131, 0, 255], &windows));
    }

    #[test]
    fn switch_words_on_block_and_window_edges_land_in_their_target_context() {
        // Blocks of 8; switches at 0 and 8 (row 0 of blocks 0 and 1),
        // 23 (the last row of block 2) and 24 (row 0 of block 3).
        let a = trace_of(&[(1, 8), (2, 15), (3, 1), (4, 16)]);
        assert_eq!(a.words.len(), 40);
        // Every window with both edges on, or one word off, a switch.
        let edges = [0, 1, 7, 8, 9, 22, 23, 24, 25, 39, 40];
        let mut windows = vec![None];
        for lo in edges {
            windows.extend(
                edges
                    .iter()
                    .filter(|&&hi| lo < hi)
                    .map(|&hi| Some((lo, hi))),
            );
        }
        assert_answers_filter_stream(&a, 8, &panel(&[0, 1, 2, 3, 4], &windows));
    }

    #[test]
    fn a_switch_to_the_context_in_force_splits_no_run_but_still_flags_its_block() {
        // Context 3 is entered at word 0 and re-asserted at 20 (inside
        // block 1) and at 32 (row 0 of block 2); 7 takes over at 48.
        let a = trace_of(&[(3, 20), (3, 12), (3, 16), (7, 16)]);
        let mut runs = Vec::new();
        asid_runs(&a.words, 0, &mut runs);
        let run = |start, end, asid| AsidRun { start, end, asid };
        assert_eq!(runs, [run(0, 48, 3), run(48, 64, 7)]);
        // `FLAG_CTX_SWITCH` means "a switch word occurs", which is not
        // "more than one run": block 2 is all context 3 and flagged.
        let store = TraceStore::from_archive(&a, 16);
        let m = store.block_meta(2);
        assert_ne!(m.flags & BlockMeta::FLAG_CTX_SWITCH, 0);
        assert_eq!((m.first_asid, m.last_asid, m.single_asid()), (3, 3, None));
        let windows = [
            None,
            Some((10, 40)),
            Some((20, 21)),
            Some((31, 33)),
            Some((32, 48)),
            Some((47, 49)),
        ];
        assert_answers_filter_stream(&a, 16, &panel(&[3, 7, 0], &windows));
    }

    #[test]
    fn a_window_inside_one_run_copies_only_the_window() {
        let a = trace_of(&[(2, 100), (6, 100)]);
        // Inside one block, across blocks of one run, and straddling
        // nothing but the run's own interior in the second context.
        let windows = [
            Some((5, 9)),
            Some((20, 90)),
            Some((120, 180)),
            Some((99, 101)),
        ];
        assert_answers_filter_stream(&a, 16, &panel(&[2, 6, 0], &windows));
        let store = TraceStore::from_archive_with(&a, 16, BlockFormat::Columnar);
        let q = store.query(&panel(&[2], &[Some((20, 90))])[0]).unwrap();
        assert_eq!(q.words, a.words[20..90]);
    }

    #[test]
    fn edge_blocks_holding_the_asid_only_outside_the_window_answer_nothing() {
        // Blocks of 16, contexts 5 | 1 | 5 | 1 | 5 switching at 0, 20,
        // 40, 72, 100. The window 20..100 has edge blocks 1 (16..32)
        // and 6 (96..112): both hold context 5 — the index cannot
        // rule them out — but only in rows the window excludes.
        let a = trace_of(&[(5, 20), (1, 20), (5, 32), (1, 28), (5, 28)]);
        let pred = panel(&[5], &[Some((20, 100))])[0];
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let store = TraceStore::from_archive_with(&a, 16, format);
            let picked = store.matching_blocks(&pred);
            assert!(picked.contains(&1) && picked.contains(&6), "{format:?}");
            let q = store.query(&pred).unwrap();
            assert_eq!(q.words, a.words[40..72], "{format:?}");
            assert_eq!(q.blocks_decoded as usize, picked.len(), "{format:?}");
        }
        let windows = [
            Some((20, 100)),
            Some((16, 112)),
            Some((21, 99)),
            Some((32, 96)),
        ];
        assert_answers_filter_stream(&a, 16, &panel(&[5, 1, 0], &windows));
    }
}
