//! systrace: a full reproduction of *Software Methods for System
//! Address Tracing* (Chen, Wall & Borg; HOTOS '93 / WRL 94/6).
//!
//! This facade crate re-exports the whole stack and provides the
//! [`harness`] that runs the paper's measured-vs-predicted validation
//! methodology end to end:
//!
//! * [`isa`] — the W3K (MIPS-I-like) instruction set, assembler,
//!   object format and linker;
//! * [`machine`] — the DECstation-5000/200-style whole-machine
//!   simulator with hardware event counters (the "measured" side);
//! * [`epoxie`] — the link-time instrumenter, its bbtrace/memtrace
//!   runtime, and the pixie baseline;
//! * [`trace`] — the one-word-per-entry trace format, static
//!   basic-block tables, the parsing library and the one driver
//!   (source → parse → sinks) every analysis rides;
//! * [`kernel`] — the Ultrix-like and Mach-like operating systems,
//!   written in W3K assembly, with the in-kernel trace-control
//!   subsystem;
//! * [`memsim`] — the trace-driven memory-system simulator and the
//!   §5.1 execution-time predictor (the "predicted" side);
//! * [`workloads`] — the twelve Table-1 workloads;
//! * [`store`] — the compressed, seekable trace store (row blocks in
//!   archive v3, columnar blocks in v4; the raw v1 archive still
//!   loads, v2 is refused as `UnsupportedVersion`) and the
//!   block-parallel query;
//! * [`tracer`] — the composable analysis-sink framework: N analyses
//!   fed from one decode+parse pass over a run or an archive,
//!   optionally spread over workers that each drive the archive into
//!   their own share of the analyses;
//! * [`fault`] — seeded deterministic fault injection and the chaos
//!   campaign classifying every injected fault detected / harmless /
//!   absorbed (never forbidden);
//! * [`obs`] — the `wrl-obs` metrics facade (registry, exports and
//!   [`obs::register_all`]; see `docs/METRICS.md`).

#![forbid(unsafe_code)]

pub use wrl_epoxie as epoxie;
pub use wrl_fault as fault;
pub use wrl_isa as isa;
pub use wrl_kernel as kernel;
pub use wrl_machine as machine;
pub use wrl_memsim as memsim;
pub use wrl_serve as serve;
pub use wrl_store as store;
pub use wrl_trace as trace;
pub use wrl_tracer as tracer;
pub use wrl_workloads as workloads;

pub mod harness;
pub mod obs;

pub use harness::{
    pixie_arith_stalls, run_analyzed, run_measured, validate, AnalyzeCfg, AnalyzedRun, HarnessObs,
    Measured, Predicted, ValidationRow, SYSTEM_BUDGET,
};
