//! The W3K whole-machine simulator.
//!
//! This crate is the "real hardware" substrate for the reproduction of
//! *Software Methods for System Address Tracing* (WRL 94/6): a
//! DECstation 5000/200-style machine with an R3000-like CPU ([`Machine`]),
//! software-managed [`tlb::Tlb`], physically-indexed [`cache`]s, a write
//! buffer, a line clock and a disk controller ([`dev`]), and hardware
//! event [`counters`] that provide the *measured* columns of the
//! paper's Tables 2 and 3. The machine's numbers — geometries,
//! penalties, latencies, clock — are the constants of [`dec5000`].

#![forbid(unsafe_code)]

pub mod cache;
pub mod counters;
pub mod cp0;
pub mod dec5000;
pub mod dev;
pub mod machine;
pub mod mem;
pub mod tlb;

pub use cache::{Cache, CacheCfg, WriteBuffer};
pub use counters::{Counters, CountersObs, RefCounter};
pub use cp0::{Cp0, ExcCode, Exception};
pub use dev::{DevAction, Devices, DISK_BLOCK_SIZE};
pub use machine::{Config, Cpu, Machine, RefEvent, RefTracer, StopEvent};
pub use mem::Mem;
pub use tlb::{Tlb, TlbEntry, TlbLookup, TLB_ENTRIES, TLB_WIRED};
