//! `wrl-fault`: seeded, deterministic fault injection and chaos
//! campaigns for the decode/analysis stack.
//!
//! The paper's §4.3 discipline is that a tracing system must *count
//! the dirt*: every anomaly is either detected and tallied or
//! demonstrably harmless, because an analysis that silently digests
//! corrupt input produces numbers nobody can trust. This crate turns
//! that discipline into an executable contract. It injects faults at
//! every boundary of the stack — raw trace words before the parser,
//! container bytes under the store, chunks at the driver's source
//! seam, response frames on the trace service's wire — and classifies
//! what the stack did about each one:
//!
//! * [`plan`] — a [`FaultPlan`] is `(site, seed, intensity)`, round-
//!   trippable through a one-line `site:seed:intensity` spec, so any
//!   campaign failure replays from the line a CI log prints.
//! * [`inject`] — the corruption primitives: seeded bit flips,
//!   truncations/short reads, and a structural region map of an
//!   encoded store so plans aim at header, blocks, index or trailer.
//! * [`chaos`] — runs plans against a golden trace and classifies
//!   each outcome detected / harmless / absorbed / forbidden; the
//!   campaign invariant is an empty forbidden set.
//! * [`obs`] — the `fault.*` counter family (see `docs/METRICS.md`);
//!   `fault.forbidden = 0` is the pass criterion, exported.
//!
//! Everything is deterministic: the only random source is a fixed
//! [`SplitMix64`] seeded from the plan, so one `(base_seed, n)` pair
//! reproduces an entire campaign on any machine.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod inject;
pub mod obs;
pub mod plan;
pub mod rng;

pub use chaos::{run_campaign, run_plan, CampaignReport, ChaosInput, Outcome};
pub use inject::{
    flip_byte_bits_in, flip_word_bits, short_read, store_regions, truncate_words, StoreRegions,
};
pub use obs::FaultObs;
pub use plan::{campaign, BadPlanSpec, FaultPlan, FaultSite, Layer, ALL_SITES};
pub use rng::SplitMix64;
