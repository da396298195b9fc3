//! epoxie: link-time address-tracing instrumentation.
//!
//! The paper's primary tool, reimplemented for W3K: rewrites object
//! modules at link time, inserting the Figure-2 trace-collecting code
//! at the start of every basic block and before every memory
//! instruction, with static address correction, register stealing and
//! delay-slot hazard handling. Also provides the bbtrace/memtrace
//! [`runtime`], the end-to-end [`build`] pipeline that produces the
//! trace-parsing tables, a bare-machine [`harness`], and the
//! executable-level [`mod@pixie`] baseline the paper compares against.

#![forbid(unsafe_code)]

pub mod bbscan;
pub mod build;
pub mod harness;
pub mod instrument;
pub mod pixie;

pub mod runtime;
pub mod subst;

pub use bbscan::{scan, BbRange};
pub use build::{build_traced, BuildError, TracedProgram};
pub use harness::{drain_buffer, init_trace_regs, prepare_machine, run_traced, TracedRun};
pub use instrument::{
    instrument_object, BbRecord, Expansion, InstrumentError, InstrumentedObject, Mode, RuntimeSyms,
};
pub use pixie::{pixie, PixieError, PixieProgram};
pub use runtime::{runtime_object, FullPolicy};
