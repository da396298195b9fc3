//! `wrl-tracer`: the composable analysis-sink framework.
//!
//! The paper's central claim is that software tracing makes
//! *analysis* cheap once the address stream exists (§3.1: the
//! analysis program runs on the fly, over traces too large to ever
//! store raw). This crate makes that claim structural: any number of
//! analyses run **composed over one decode+parse pass** instead of
//! each owning its own pipeline.
//!
//! * [`sink`] — the [`AnalysisSink`] trait: a `wrl_trace::TraceSink`
//!   (six methods: four event hooks, `wants` and one word hook; its
//!   one instruction hook, `irefs`, takes a run of fetches on one page,
//!   and each sink here does per run what it would do per fetch) plus
//!   `name()` and `finish() -> Result<SinkReport, SinkError>`;
//! * [`driver`] — the [`Stack`] of boxed sinks, counting each event
//!   once (a `TraceSink` for the one `wrl_trace::Driver`), and the
//!   one-pass entry points [`analyze_words`] / [`analyze_store`]
//!   (inline, or one driver per worker over its share of the sinks);
//! * [`analyses`] — the five repo analyses as sinks (cache study,
//!   full memory-system/TLB simulation — `wrl_memsim::MemSim` itself,
//!   named `tlb` — dilation, pagemap, defensive checks);
//! * [`windows`] — the three sinks the framework makes cheap:
//!   sampled tracing windows, per-ASID working-set curves, and a
//!   phase detector;
//! * [`spec`] — the `cache:65536:2,wset,phase` stack-spec grammar
//!   behind `tracedump analyze`, and [`build_stack`], its one parser;
//! * [`obs`] — the `tracer.*` metrics.
//!
//! Error handling is per sink. No hook can fail, so no sink can abort
//! a pass: a sink that hits a fault latches it and returns the typed
//! [`SinkError`] from `finish`, which lands in its own entry of the
//! [`StackReport`]. Sinks share no state, so sibling sinks see the
//! full event stream and their reports are unaffected (the
//! `tracer.sink` chaos site holds this under seeded fault injection).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyses;
pub mod driver;
pub mod obs;
pub mod sink;
pub mod spec;
pub mod windows;

pub use analyses::{CacheSink, DefenseSink, DilationSink, PagemapSink};
pub use driver::{analyze_store, analyze_words, Stack, StackReport};
pub use obs::TracerObs;
pub use sink::{AnalysisSink, SinkError, SinkReport, Value};
pub use spec::{build_stack, SinkSpecError};
pub use windows::{PhaseSink, SampledCfg, SampledWindowSink, WorkingSetSink};
