//! The trace format, static tables, runtime ABI and parsing library.
//!
//! Everything the WRL tracing systems' *trace path* needs, shared by
//! the instrumentation tool (which emits the static basic-block
//! tables), the kernels (which write control words and copy
//! per-process buffers) and the analysis programs (which parse the
//! in-kernel buffer back into an interleaved reference stream):
//!
//! * [`mod@format`] — the one-word-per-entry trace format of §3.3;
//! * [`bbinfo`] — the static basic-block lookup tables of §3.5;
//! * [`layout`] — the stolen-register and bookkeeping-area ABI that
//!   epoxie-generated code and the kernels must agree on;
//! * [`parser`] — the trace-parsing library, including the nested
//!   interrupt handling of §3.3 and the defensive redundancy checks
//!   of §4.3, and [`TraceSink`], what it feeds: four event hooks,
//!   [`TraceSink::wants`] and one word hook. Instruction fetches
//!   arrive as runs, [`TraceSink::irefs`] once per straight-line run
//!   between two memory operations on one 4 KB page, since the trace
//!   holds one word per block and the table implies the rest (§3.5);
//!   a sink whose unit is the raw word asks for [`Wants::Words`] and
//!   gets [`TraceSink::word`] before each word is parsed;
//! * [`stream`] — the [`Driver`]: the one incremental
//!   source → parse → sink loop every analysis rides;
//! * [`archive`] — a bundle format for distributing traces together
//!   with their decoding tables (the paper's traces went to the
//!   community on tape, §3.4), and [`write_atomic`], the one way a
//!   trace file reaches disk;
//! * [`obs`] — `wrl-obs` wiring: live §4.3 error tallies and
//!   end-of-run parse-statistics exports (see `docs/METRICS.md`).

#![forbid(unsafe_code)]

pub mod archive;
pub mod bbinfo;
pub mod bytes;
pub mod format;
pub mod layout;
pub mod obs;
pub mod parser;
pub mod stream;

pub use archive::{write_atomic, ArchiveError, TraceArchive};
pub use bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
pub use format::{classify, ctl, is_kernel_addr, Ctl, CtlOp, TraceWord, CTL_LIMIT};
pub use obs::{ParseStatsObs, ParserObs};
pub use parser::{ParseError, ParseStats, Space, TraceParser, TraceSink, Wants};
pub use stream::{ChunkFate, DriveReport, Driver, EventVec, RefEvent, SeamHooks};
