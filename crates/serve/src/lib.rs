//! `wrl-serve`: a TCP trace-query service with predicate-pushdown
//! block skipping.
//!
//! The paper's trace system ends at a 64 MB in-kernel buffer drained
//! by a single analysis client (§3.3), and its traces reached other
//! researchers on tape (§3.4). This crate is the modern end of that
//! line: the compressed seekable store (`wrl-store`) already gives
//! every block an index entry — offset, CRC, ASID bounds, and (since
//! format v3) word-offset and data-address summaries — so serving
//! *windowed queries* to many concurrent clients costs only the
//! blocks a query actually touches. The pieces:
//!
//! * [`wire`] — the `wrl-wire/v1` framing: length-prefixed,
//!   CRC-framed binary messages (catalog, raw block-range fetch,
//!   windowed query, metrics snapshot). A flipped bit anywhere is a
//!   typed error, never a different message.
//! * [`conn`] — the per-connection state machine (Reading →
//!   Dispatching → Writing → Draining) over a deterministic
//!   [`Transport`] seam, honest about partial reads and writes at
//!   every byte boundary. Tests drive it byte-by-byte with scripted
//!   transports; the reactor drives it with nonblocking sockets —
//!   the same code either way.
//! * [`reactor`] — the readiness layer: `poll(2)` over nonblocking
//!   sockets (declared `extern "C"`, no `libc` crate) and a
//!   cross-thread [`Waker`]. The crate builds only on unix.
//! * [`backend`] — what admitted requests are answered from: the
//!   [`Catalog`] of stores a server holds, and the checks on what a
//!   request asks.
//! * [`server`] — the event loops on top: a few event threads
//!   multiplex every connection, a max-inflight admission gate
//!   answers `Busy` instead of queueing, the event thread answers
//!   every admitted request but a scan, which a small executor pool
//!   runs, stall budgets sever wedged peers,
//!   graceful shutdown drains in-flight requests, and the `serve.*`
//!   metric family (with `serve.reactor.*`) stays accurate
//!   throughout. Every [`ServeCfg`] value is a size — two threads of
//!   each kind by default, on any host — and none of them switches a
//!   mechanism off. The server answers requests and sends nothing
//!   unasked; on-the-fly analysis of a running machine happens in
//!   the harness's drain callback, not over the wire.
//! * [`client`] — the synchronous client library `tracedump` and the
//!   tests use; every network failure mode is a typed [`ServeError`].
//! * [`obs`] — the `serve.*` metrics (see `docs/METRICS.md`).
//!
//! The load-bearing guarantee, extended from the store: a windowed
//! query answered over the wire is bit-identical to decoding the
//! archive locally and filtering ([`wrl_store::filter_stream`]) —
//! the loopback differential suite asserts it for every (block size
//! × predicate) combination, and the chaos campaign's wire faults
//! must all land detected or harmless.

#![deny(missing_docs)]

pub mod backend;
pub mod client;
pub mod conn;
pub mod obs;
pub mod reactor;
pub mod server;
pub mod wire;

pub use backend::Catalog;
pub use client::{Client, ClientCfg, ServeError};
pub use conn::{
    Conn, ConnState, FrameDecoder, IoTally, ReadEvent, TickVerdict, Transport, WriteShape,
};
pub use obs::ServeObs;
pub use reactor::{Interest, Poller, Ready, Waker};
pub use server::{ServeCfg, ServeHooks, Server, WireFate};
pub use wire::{CatalogEntry, RawBlock, Request, Response, WireError, MAX_FRAME, WIRE_SCHEMA};
