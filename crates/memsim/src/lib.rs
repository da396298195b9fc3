//! The trace-driven memory-system simulator — the paper's "analysis
//! program".
//!
//! Consumes parsed address traces and models caches, write buffer and
//! TLB ([`sim`]), applies a virtual-to-physical page-mapping policy
//! ([`pagemap`]) and produces the four-component execution-time
//! predictions of §5.1 ([`mod@predict`]). The simulator intentionally
//! shares the paper's model deficiencies (no pipeline, no FP/memory
//! overlap, no exception entry cycles, no knowledge of explicit TLB
//! writes) so that the validation errors of Tables 2 and 3 arise from
//! the same mechanisms.

#![forbid(unsafe_code)]

pub mod assoc;
pub mod obs;
pub mod pagemap;
pub mod predict;
pub mod sim;

pub use assoc::AssocCache;
pub use obs::SimObs;
pub use pagemap::{PageMap, Policy, PAGE_SIZE};
pub use predict::{percent_error, predict, Prediction, IDLE_DILATION};
pub use sim::{utlb, MemSim, SimStats, SpaceKey};
