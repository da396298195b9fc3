//! The W3K operating systems: an Ultrix-like monolithic kernel and a
//! Mach-like microkernel + user-level UNIX server, both written in
//! W3K assembly and instrumentable with epoxie.
//!
//! The kernels implement everything the paper's traced systems needed:
//! exception vectors with the nine-instruction UTLB refill handler,
//! nested-interrupt frames, a round-robin scheduler with an
//! idle-counted idle loop, system calls (including the added
//! `trace_ctl`), a file system with a buffer cache, disk driver and
//! read-ahead (Ultrix) or a user-level server reached by IPC (Mach),
//! and the in-kernel trace-control subsystem of §3.1/§3.3.

#![forbid(unsafe_code)]

pub mod build;
pub mod kdata;
pub mod kdataobj;
pub mod kmain;
pub mod layout;
pub mod server;
pub mod vectors;

pub use build::{build_system, KernelConfig, ProcMeta, System, SystemRun};
pub use kmain::{KmainCfg, Variant};
