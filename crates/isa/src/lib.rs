//! The W3K instruction-set architecture.
//!
//! W3K is a MIPS-I-like 32-bit RISC ISA — the substrate on which this
//! reproduction of *Software Methods for System Address Tracing*
//! (Chen, Wall & Borg, WRL 94/6) runs. The crate provides:
//!
//! * [`inst`] / [`mod@encode`] — the instruction set and its 32-bit binary
//!   encoding, including the partial-decode helpers the `memtrace`
//!   runtime uses on delay-slot instructions;
//! * [`asm`] — an embedded assembler producing relocatable [`obj`]
//!   modules with the symbol, relocation and basic-block side tables
//!   that link-time instrumentation depends on;
//! * [`mod@link`] — the linker that lays out executables and applies all
//!   address correction statically;
//! * [`disasm`] — a disassembler for diagnostics and the Figure-2
//!   reproduction;
//! * [`seg`] — the kseg0/kseg1 address map, stated once for the
//!   machine and every simulator of it.

#![forbid(unsafe_code)]

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod inst;
pub mod link;
pub mod obj;
pub mod reg;
pub mod seg;

pub use asm::Asm;
pub use encode::{decode, encode, DecodeError};
pub use inst::{Inst, MemClass, Width};
pub use link::{link, Executable, Layout, LinkError, Linked, Placement};
pub use obj::{BbFlags, Object, Reloc, RelocKind, SecId, Symbol, TextRange};
pub use reg::{FReg, Reg};
