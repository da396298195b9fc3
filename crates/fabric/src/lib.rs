//! `wrl-fabric`: a sharded scatter-gather trace fabric.
//!
//! One archive on one `wrl-serve` process is not millions of users.
//! This crate scales the query surface horizontally while keeping the
//! stack's load-bearing guarantee intact — a windowed query answered
//! by the fabric is bit-identical to decoding the whole archive
//! locally and filtering with [`wrl_store::filter_stream`]:
//!
//! * [`manifest`] — the deterministic shard planner and the
//!   CRC-sealed `W3KSHARD` manifest. A store splits into N shards by
//!   block range or ASID hash; each shard is itself a valid v3/v4
//!   archive (compressed bytes, CRCs, ASID summaries and zonemaps
//!   copied verbatim, word offsets re-tiled to shard-local
//!   coordinates), so any stock `wrl-serve` node can serve it. The
//!   manifest records every block's owner, global word offset and
//!   pruning proofs — everything the coordinator needs to scatter.
//! * [`coord`] — the coordinator: speaks `wrl-wire/v1` downstream to
//!   the shard nodes (reusing the [`wrl_serve::Client`] machinery)
//!   and presents a single merged catalog/fetch/query/metrics/shards
//!   surface upstream on the same protocol — as a
//!   [`wrl_serve::Backend`] of the one `wrl-serve` reactor, not a
//!   second server. Windowed queries scatter
//!   only to shards whose manifest zonemaps can match; sub-results
//!   merge in global stream order. Each shard may list replica
//!   endpoints: a mid-query shard loss transparently retries the
//!   failed sub-query on the next endpoint with no duplicated or
//!   dropped rows (a sub-query either returns a complete frame or a
//!   typed error — there is no partial answer to double-count).
//! * [`obs`] — the `fabric.*` metric family (see `docs/METRICS.md`).
//!
//! Shard-side failures stay typed end-to-end: a store CRC mismatch on
//! a shard surfaces upstream as the same `error` code with the shard
//! named in the message, never as a severed connection.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coord;
pub mod manifest;
pub mod obs;

pub use coord::Coordinator;
pub use manifest::{
    plan_shards, split_store, Manifest, ManifestBlock, ManifestError, PlanKind, ScatterUnit,
    ShardEntry, MANIFEST_BLOCK_ENTRY_BYTES, MANIFEST_MAGIC, MANIFEST_VERSION, MAX_SHARDS,
};
pub use obs::FabricObs;
