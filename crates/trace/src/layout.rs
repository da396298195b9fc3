//! The tracing-system runtime ABI.
//!
//! These constants are shared between three parties that must agree
//! exactly: the epoxie-generated instrumentation code, the
//! bbtrace/memtrace runtime routines, and the kernels' trace-control
//! subsystem. They define which registers are stolen, the layout of
//! the per-context bookkeeping area, and the fixed user-space
//! addresses of the trace pages.

use wrl_isa::reg::{Reg, S5, S6, S7};

/// `xreg1`: the current trace-buffer pointer. Instrumented code
/// stores trace entries through this register and bumps it.
pub const XREG1: Reg = S5;
/// `xreg2`: scratch for the bbtrace/memtrace runtime.
pub const XREG2: Reg = S6;
/// `xreg3`: pointer to the bookkeeping area.
pub const XREG3: Reg = S7;

/// The three stolen registers, in shadow-slot order.
pub const XREGS: [Reg; 3] = [XREG1, XREG2, XREG3];

/// Bookkeeping-area offsets (from `xreg3`).
pub mod bk {
    /// End of the trace buffer (exclusive); bbtrace's fullness check.
    pub const BUF_END: i16 = 0;
    /// Scratch slot used by memtrace.
    pub const SCRATCH: i16 = 4;
    /// Second scratch slot (return-address of the runtime itself).
    pub const SCRATCH2: i16 = 8;
    /// Hard end of the buffer including the slack region (kernel
    /// runtime only): when the soft [`BUF_END`] is exceeded, tracing
    /// continues into the slack until a safe point is reached
    /// ("provisions must be made for critical system operations to
    /// complete before tracing is suspended", §3.3).
    pub const HARD_END: i16 = 12;
    /// Flag set by the kernel runtime when the buffer needs analysis.
    pub const NEED_FLUSH: i16 = 16;
    /// Saved `ra` of the current basic block — the paper's
    /// `sw ra,124(xreg3)` slot (Figure 2).
    pub const RA_SAVE: i16 = 124;
    /// Shadow slot for the original program's `xreg1` value.
    pub const XREG1_SHADOW: i16 = 128;
    /// Shadow slot for the original program's `xreg2` value.
    pub const XREG2_SHADOW: i16 = 132;
    /// Shadow slot for the original program's `xreg3` value.
    pub const XREG3_SHADOW: i16 = 136;
    /// Size of the bookkeeping area in bytes.
    pub const SIZE: u32 = 160;
}

/// Fixed user-space virtual addresses of the tracing area.
///
/// Kept below 32 MB so bare (kernel-less) runs can identity-map them
/// into default-sized physical memory; under the kernels these pages
/// are mapped per-process (per-thread under Mach, §3.6).
pub mod user {
    /// The per-process (or per-thread, under Mach) bookkeeping page.
    pub const BOOKKEEPING: u32 = 0x01e0_0000;
    /// First trace-buffer page.
    pub const TRACE_BUF: u32 = 0x01e0_1000;
    /// Default per-process trace buffer size in bytes.
    pub const TRACE_BUF_BYTES: u32 = 16 * 4096;
}

/// Syscall-instruction code fields (the `code` operand of `syscall`).
pub mod trapcode {
    /// Ordinary ABI system call (number in `v0`).
    pub const SYSCALL_ABI: u32 = 0;
    /// Trace-buffer-full trap from bbtrace.
    pub const TRACE_FLUSH: u32 = 1;
}

/// System-call numbers of the W3K Unix ABI (in `v0`; arguments in
/// `a0..a2`, result in `v0`). Shared by the kernels, the workloads
/// and the bare-machine host emulation.
pub mod sys {
    /// `exit(code)` — never returns.
    pub const EXIT: u32 = 1;
    /// `open(path) -> fd` (read/write; -1 on failure).
    pub const OPEN: u32 = 2;
    /// `read(fd, buf, len) -> n`.
    pub const READ: u32 = 3;
    /// `write(fd, buf, len) -> n` (fd 1 is the console).
    pub const WRITE: u32 = 4;
    /// `close(fd)`.
    pub const CLOSE: u32 = 5;
    /// `sbrk(n) -> old_brk`.
    pub const SBRK: u32 = 6;
    /// `getpid() -> pid`.
    pub const GETPID: u32 = 7;
    /// `trace_ctl(cmd, arg) -> v` — the kernel call the paper added
    /// "to provide a mechanism for user-level analysis programs to
    /// control tracing" (§3.1).
    pub const TRACE_CTL: u32 = 8;
    /// `creat(path) -> fd` (truncate/create for writing).
    pub const CREAT: u32 = 9;
    /// `yield()` — give up the CPU (client-server workloads).
    pub const YIELD: u32 = 10;
    /// Mach: server receive — blocks until an IPC request arrives,
    /// returning the operation code.
    pub const RECV: u32 = 11;
    /// Mach: server reply to the pending client; `a0` is the result.
    pub const REPLY: u32 = 12;
    /// Mach: raw block read into a page-aligned server buffer.
    pub const BREAD: u32 = 13;
    /// Mach: raw block write from a page-aligned server buffer.
    pub const BWRITE: u32 = 14;
    /// `spawn(entry, stack_top, arg) -> token` — create a thread in
    /// the caller's address space with its own trace pages (§3.6).
    pub const SPAWN: u32 = 15;
}

/// `trace_ctl` command codes.
pub mod trace_ctl {
    /// Start tracing (argument: in-kernel buffer budget in words).
    pub const START: u32 = 1;
    /// Stop tracing.
    pub const STOP: u32 = 2;
    /// Resume trace generation after an analysis phase.
    pub const RESUME: u32 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_slots_are_consecutive() {
        assert_eq!(bk::XREG2_SHADOW, bk::XREG1_SHADOW + 4);
        assert_eq!(bk::XREG3_SHADOW, bk::XREG2_SHADOW + 4);
        assert!(bk::XREG3_SHADOW as u32 + 4 <= bk::SIZE);
    }

    #[test]
    fn ra_slot_matches_paper() {
        assert_eq!(bk::RA_SAVE, 124);
    }
}
