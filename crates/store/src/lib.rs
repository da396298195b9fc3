//! `wrl-store`: a compressed, seekable trace container, read as one
//! continuous stream or queried in parallel.
//!
//! The paper's central bind is that system traces are too large to
//! store (§3.1–§3.2: on-the-fly analysis exists *because* raw traces
//! outrun any disk of the day), yet every stored trace is worth many
//! analysis runs — the WRL traces were distributed to the community on
//! tape (§3.4) precisely so others could re-run them. This crate
//! resolves the bind for the modern repo:
//!
//! * [`codec`] — a dependency-free delta + finite-context compressor
//!   exploiting the trace word regularities of §3.3; loop-dominated
//!   traces approach one byte per four-byte word.
//! * [`column`](mod@column) — the v4 columnar block coding: per-class columns
//!   (control / user / kernel words) with 1-bit predictor-hit flags,
//!   each population under its own predictors.
//! * [`container`] — archive formats v3 (row blocks) and v4 (columnar
//!   blocks + per-ASID zonemaps): fixed-size blocks compressed
//!   independently, with a footer index (offset, word count, CRC-32,
//!   ASID bounds and query summaries per block) so any block is
//!   seekable and decodable on its own, and most blocks are provably
//!   skippable from the index alone. A query copies ASID runs out of
//!   whole decoded blocks, whichever the coding. Version-1 archives
//!   still load transparently.
//! * [`farm`] — the store as a source for the one `wrl_trace::Driver`
//!   ([`drive`]), bit-identical to a sequential parse, and
//!   [`query_parallel_spans`], the block-parallel query. A pass
//!   spread over workers (`wrl_tracer::analyze_store`) is one `drive`
//!   per worker, each over its own share of the sinks.
//! * [`obs`] — `wrl-obs` wiring: store-shape gauges and §4.3-style
//!   integrity-failure tallies (see `docs/METRICS.md`).

#![deny(missing_docs)]

pub mod codec;
pub mod column;
pub mod container;
pub mod farm;
pub mod obs;

pub use codec::{compress_block, crc32_bytes, crc32_words, decompress_block, CodecError, Crc32};
pub use container::{
    decode_block_bytes, filter_stream, BlockCache, BlockFormat, BlockMeta, BlockReader,
    ColumnStats, Predicate, QueryResult, StoreError, TraceStore, DEFAULT_BLOCK_WORDS,
    INDEX_ENTRY_BYTES, INDEX_ENTRY_BYTES_V4, STORE_VERSION, STORE_VERSION_V4, TRAILER_BYTES,
};
pub use farm::{drive, query_parallel_spans, FarmCfg};
pub use obs::StoreObs;
