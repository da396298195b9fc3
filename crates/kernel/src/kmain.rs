//! The instrumentable kernel body: cause dispatch, interrupt
//! handlers, the scheduler and idle loop, the system-call layer, the
//! Ultrix-style in-kernel file system (buffer cache, disk driver,
//! read-ahead, write policy) and the Mach-style IPC layer.
//!
//! Everything here is rewritten by epoxie when building a traced
//! kernel ("all relevant parts of the kernel are traced", §3.3); only
//! the console output loop is instrumented by hand, as the paper's
//! showcase for special basic-block records (§3.5).

use wrl_isa::asm::Asm;
use wrl_isa::reg::*;
use wrl_isa::Object;
use wrl_machine::cp0::reg as c0;
use wrl_machine::dev::{regs as devregs, DEV_BASE_K1};
use wrl_trace::layout::{sys, trapcode};

use crate::build::KernelConfig;
use crate::kdata::{bc_off, dir_off, fd_off, msg_off, proc_off};
use crate::layout::{self, uvm};

/// Which operating-system personality to build (§3.5 vs §3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Monolithic: file services in the kernel.
    Ultrix,
    /// Microkernel: file services in the user-level UNIX server,
    /// reached through IPC.
    Mach,
}

/// End of the fixed user trace-buffer window.
const fn utrace_buf_end() -> u32 {
    wrl_trace::layout::user::TRACE_BUF + wrl_trace::layout::user::TRACE_BUF_BYTES
}

const DEV_CLOCK_ACK: i32 = (DEV_BASE_K1 + devregs::CLOCK_ACK) as i32;
const DEV_DISK_STAT: i32 = (DEV_BASE_K1 + devregs::DISK_STAT) as i32;
const DEV_DISK_BLOCK: i32 = (DEV_BASE_K1 + devregs::DISK_BLOCK) as i32;
const DEV_DISK_ADDR: i32 = (DEV_BASE_K1 + devregs::DISK_ADDR) as i32;
const DEV_DISK_CMD: i32 = (DEV_BASE_K1 + devregs::DISK_CMD) as i32;
const DEV_CONSOLE: i32 = (DEV_BASE_K1 + devregs::CONSOLE_TX) as i32;

/// Emits `dst = k_proc + idx*SIZE` (SIZE = 208 = 128+64+16).
fn emit_proc_base(a: &mut Asm, dst: Reg, idx: Reg, scratch: Reg) {
    a.sll(dst, idx, 7);
    a.sll(scratch, idx, 6);
    a.addu(dst, dst, scratch);
    a.sll(scratch, idx, 4);
    a.addu(dst, dst, scratch);
    a.la(scratch, "k_proc");
    a.addu(dst, dst, scratch);
}

/// Builds the kernel body object.
pub fn object(cfg: &KernelConfig) -> Object {
    let mut a = Asm::new("kmain");

    emit_dispatch(&mut a);
    emit_interrupts(&mut a);
    emit_sched_idle(&mut a);
    emit_syscalls(&mut a, cfg);
    match cfg.variant {
        Variant::Ultrix => emit_fs(&mut a, cfg),
        Variant::Mach => {
            emit_ipc(&mut a);
            emit_blockio(&mut a);
        }
    }
    emit_util(&mut a, cfg);

    a.finish()
}

// =====================================================================
// Cause dispatch
// =====================================================================
fn emit_dispatch(a: &mut Asm) {
    a.global_label("gv_dispatch");
    // A kernel stack for this nesting depth.
    a.la(T0, "k_kstack_ptr");
    a.lw(T0, 0, T0);
    a.la(T1, "k_kstack");
    a.subu(T0, T0, T1);
    a.sll(T2, T0, 3); // 140-byte frames -> 1120-byte C stacks
    a.la(SP, "k_cstack_top");
    a.subu(SP, SP, T2);

    // Cause was captured into s1 by the entry stub (live CP0 Cause
    // may be stale after nested refills during the trace copy).
    a.andi(T4, S1, 0x7c);
    a.srl(T4, T4, 2);
    a.beq(T4, ZERO, "h_interrupt");
    a.nop();
    a.li(T5, 8);
    a.beq(T4, T5, "h_syscall");
    a.nop();
    a.li(T5, 2);
    a.beq(T4, T5, "h_tlb_fault");
    a.nop();
    a.li(T5, 3);
    a.beq(T4, T5, "h_tlb_fault");
    a.nop();
    a.li(T5, 9);
    a.beq(T4, T5, "h_break");
    a.nop();
    // Anything else is fatal.
    a.li(A0, 0xdead);
    a.j("khalt");
    a.nop();

    // ---- KTLB refill: misses on the mapped kernel segment "are
    // handled through the general exception mechanism, which is much
    // slower (several hundred instructions)" (§4.1). ----
    a.label("h_tlb_fault");
    a.move_(T0, S2); // BadVAddr captured by the entry stub
    a.lui(T1, 0xc000);
    a.sltu(T2, T0, T1);
    a.bne(T2, ZERO, "h_fault_fatal");
    a.nop();
    a.subu(T3, T0, T1);
    a.srl(T3, T3, 12);
    // Bounds: MAX_PROCS * 512 directory slots.
    a.li(T4, (layout::MAX_PROCS as i32) * 512);
    a.sltu(T5, T3, T4);
    a.beq(T5, ZERO, "h_fault_fatal");
    a.nop();
    a.sll(T4, T3, 2);
    a.la(T5, "k_ktlb_dir");
    a.addu(T5, T5, T4);
    a.lw(T6, 0, T5);
    a.beq(T6, ZERO, "h_fault_fatal");
    a.nop();
    a.mtc0(T6, c0::ENTRYLO);
    a.inst(wrl_isa::Inst::Tlbwr);
    // This KTLB miss usually nests inside the UTLB refill handler,
    // whose EntryHi (the *user* VPN) we just clobbered. The faulting
    // kseg2 address is the Context value, which encodes that user VPN
    // in bits 20:2 — reconstruct and restore EntryHi so the
    // interrupted handler's tlbwr installs the right mapping.
    a.sll(T7, T0, 11);
    a.srl(T7, T7, 13); // user VPN
    a.sll(T7, T7, 12);
    a.mfc0(T8, c0::ENTRYHI);
    a.andi(T8, T8, 0xfff); // keep the ASID
    a.or(T7, T7, T8);
    a.mtc0(T7, c0::ENTRYHI);
    // The interrupted refill handler cannot be resumed: the entry
    // stub consumed its k0 (the PTE address). Instead, finish its
    // job here — read the user PTE through kseg0 (we know the PTE
    // page's frame from the directory entry) and install the user
    // mapping — and let the exit path return straight to the
    // original faulting context.
    a.srl(T9, T6, 12);
    a.sll(T9, T9, 12); // PTE page frame
    a.lui(T8, 0x8000);
    a.or(T9, T9, T8); // kseg0 view
    a.andi(T8, T0, 0xfff); // offset of the PTE within its page
    a.addu(T9, T9, T8);
    a.lw(T9, 0, T9); // the user PTE
    a.mtc0(T9, c0::ENTRYLO);
    a.inst(wrl_isa::Inst::Tlbwr);
    a.j("gv_exit");
    a.nop();
    a.label("h_fault_fatal");
    a.li(A0, 0xbad1);
    a.j("khalt");
    a.nop();

    // ---- Breakpoint: kill the offending process. ----
    a.label("h_break");
    a.la(S0, "k_cur_save");
    a.lw(S0, 0, S0);
    a.li(A0, 0xbb);
    a.j("sys_exit");
    a.nop();
}

// =====================================================================
// Interrupts
// =====================================================================
fn emit_interrupts(a: &mut Asm) {
    a.global_label("h_interrupt");
    a.mfc0(T0, c0::CAUSE);
    a.andi(T1, T0, 0x2000); // IP5: line clock
    a.beq(T1, ZERO, "hi_disk");
    a.nop();
    a.li(T2, DEV_CLOCK_ACK);
    a.sw(ZERO, 0, T2);
    a.la(T3, "k_ticks");
    a.lw(T4, 0, T3);
    a.addiu(T4, T4, 1);
    a.sw(T4, 0, T3);
    a.la(T5, "k_resched");
    a.li(T6, 1);
    a.sw(T6, 0, T5);
    a.label("hi_disk");
    a.mfc0(T0, c0::CAUSE);
    a.andi(T1, T0, 0x1000); // IP4: disk
    a.beq(T1, ZERO, "hi_done");
    a.nop();
    a.li(T2, DEV_DISK_STAT);
    a.sw(ZERO, 0, T2); // acknowledge
    a.jal("disk_complete");
    a.nop();
    a.label("hi_done");
    a.j("gv_exit");
    a.nop();

    // disk_complete: retire the finished operation, wake every
    // disk-blocked process (they restart their system call and
    // re-check the cache), and start any queued operation.
    a.global_label("disk_complete");
    a.addiu(SP, SP, -8);
    a.sw(RA, 4, SP);
    a.la(T0, "k_disk_cur_entry");
    a.lw(T1, 0, T0);
    a.beq(T1, ZERO, "dc_noentry");
    a.nop();
    a.sw(ZERO, bc_off::IN_FLIGHT, T1);
    a.sw(ZERO, bc_off::DIRTY, T1);
    a.label("dc_noentry");
    a.sw(ZERO, 0, T0);
    a.la(T0, "k_disk_busy");
    a.sw(ZERO, 0, T0);
    // Raw-bread completion marker.
    a.la(T0, "k_bread_done");
    a.li(T1, 1);
    a.sw(T1, 0, T0);
    // Wake all disk-blocked processes.
    a.li(T2, 0); // index
    a.label("dc_wake");
    emit_proc_base(a, T3, T2, T4);
    a.lw(T5, proc_off::STATE, T3);
    a.li(T6, 3);
    a.bne(T5, T6, "dc_next");
    a.nop();
    a.li(T6, 1);
    a.sw(T6, proc_off::STATE, T3);
    a.label("dc_next");
    a.addiu(T2, T2, 1);
    a.li(T7, layout::MAX_PROCS as i32);
    a.bne(T2, T7, "dc_wake");
    a.nop();
    a.la(T0, "k_resched");
    a.li(T1, 1);
    a.sw(T1, 0, T0);
    // Start a queued operation, if any.
    a.la(T0, "k_dpend_valid");
    a.lw(T1, 0, T0);
    a.beq(T1, ZERO, "dc_out");
    a.nop();
    a.sw(ZERO, 0, T0);
    a.la(T2, "k_dpend_cmd");
    a.lw(A0, 0, T2);
    a.la(T2, "k_dpend_block");
    a.lw(A1, 0, T2);
    a.la(T2, "k_dpend_addr");
    a.lw(A2, 0, T2);
    a.la(T2, "k_dpend_entry");
    a.lw(A3, 0, T2);
    a.jal("disk_start");
    a.nop();
    a.label("dc_out");
    a.lw(RA, 4, SP);
    a.jr(RA);
    a.addiu(SP, SP, 8);

    // disk_start(a0 = cmd, a1 = block, a2 = paddr, a3 = entry or 0):
    // programs the controller or queues the request. v0 = 1 if the
    // request was accepted (started or queued), 0 if dropped.
    a.global_label("disk_start");
    a.la(T0, "k_disk_busy");
    a.lw(T1, 0, T0);
    a.bne(T1, ZERO, "ds_queue");
    a.nop();
    a.li(T2, 1);
    a.sw(T2, 0, T0);
    a.la(T3, "k_disk_cur_entry");
    a.sw(A3, 0, T3);
    a.li(T4, DEV_DISK_BLOCK);
    a.sw(A1, 0, T4);
    a.li(T4, DEV_DISK_ADDR);
    a.sw(A2, 0, T4);
    a.li(T4, DEV_DISK_CMD);
    a.sw(A0, 0, T4);
    a.jr(RA);
    a.li(V0, 1);
    a.label("ds_queue");
    a.la(T0, "k_dpend_valid");
    a.lw(T1, 0, T0);
    a.bne(T1, ZERO, "ds_drop");
    a.nop();
    a.li(T2, 1);
    a.sw(T2, 0, T0);
    a.la(T3, "k_dpend_cmd");
    a.sw(A0, 0, T3);
    a.la(T3, "k_dpend_block");
    a.sw(A1, 0, T3);
    a.la(T3, "k_dpend_addr");
    a.sw(A2, 0, T3);
    a.la(T3, "k_dpend_entry");
    a.sw(A3, 0, T3);
    a.jr(RA);
    a.li(V0, 1);
    a.label("ds_drop");
    a.jr(RA);
    a.li(V0, 0);
}

// =====================================================================
// Scheduler and idle loop
// =====================================================================
fn emit_sched_idle(a: &mut Asm) {
    a.global_label("sched_entry");
    a.la(T0, "k_cur_proc");
    a.lw(T1, 0, T0);
    a.bltz(T1, "sc_scan");
    a.nop();
    emit_proc_base(a, T6, T1, T7);
    a.lw(T8, proc_off::STATE, T6);
    a.li(T9, 2);
    a.bne(T8, T9, "sc_scan");
    a.nop();
    a.li(T9, 1);
    a.sw(T9, proc_off::STATE, T6);
    a.label("sc_scan");
    a.li(S1, 1); // round-robin distance
    a.label("sc_loop");
    a.li(T0, layout::MAX_PROCS as i32);
    a.slt(T1, T0, S1);
    a.bne(T1, ZERO, "sc_idle"); // distance > MAX: nothing ready
    a.nop();
    a.la(T2, "k_cur_proc");
    a.lw(T2, 0, T2);
    a.addu(T2, T2, S1);
    a.li(T3, layout::MAX_PROCS as i32);
    a.slt(T4, T2, T3);
    a.bne(T4, ZERO, "sc_mod_ok");
    a.nop();
    a.subu(T2, T2, T3);
    a.label("sc_mod_ok");
    emit_proc_base(a, T6, T2, T7);
    a.lw(T8, proc_off::STATE, T6);
    a.li(T9, 1);
    a.beq(T8, T9, "sc_found");
    a.nop();
    a.addiu(S1, S1, 1);
    a.b("sc_loop");
    a.nop();
    a.label("sc_found");
    a.la(T0, "k_cur_proc");
    a.sw(T2, 0, T0);
    a.la(T0, "k_cur_save");
    a.sw(T6, 0, T0);
    a.li(T9, 2);
    a.sw(T9, proc_off::STATE, T6);
    a.la(T0, "k_resched");
    a.sw(ZERO, 0, T0);
    // First dispatch of a newly loaded image flushes the I-cache.
    a.lw(T3, proc_off::NEED_IFLUSH, T6);
    a.beq(T3, ZERO, "sc_nofl");
    a.nop();
    a.sw(ZERO, proc_off::NEED_IFLUSH, T6);
    a.move_(S2, T6);
    a.jal("k_iflush");
    a.nop();
    a.move_(T6, S2);
    a.label("sc_nofl");
    a.move_(A0, T6);
    a.j("dispatch_tail");
    a.nop();
    a.label("sc_idle");
    a.j("k_idle");
    a.nop();

    // ---- Idle loop: its blocks are flagged so the trace parser's
    // instruction counters can measure idle time (§3.5, §5.1).
    //
    // Interrupts stay masked while polling; when a device raises an
    // interrupt line the loop opens a two-instruction window at a
    // *trace-safe* point — no bbtrace/memtrace store/bump pair is in
    // flight there, so the handler's own trace entries can never
    // interleave with a half-written one. This is the kernel-side
    // answer to §3.3's "no intermediate party is available to
    // maintain the kernel's tracing state when the kernel itself is
    // interrupted". ----
    a.global_label("k_idle");
    a.mark_idle_start();
    a.global_label("idle_loop");
    a.mfc0(T0, c0::CAUSE);
    a.andi(T1, T0, 0x3000); // any device line pending?
    a.bne(T1, ZERO, "idle_window");
    a.nop();
    a.b("idle_loop");
    a.nop();
    a.label("idle_window");
    a.mfc0(T0, c0::STATUS);
    a.ori(T0, T0, 1);
    a.mtc0(T0, c0::STATUS); // enable: the interrupt lands below
    a.nop();
    a.nop();
    a.mfc0(T0, c0::STATUS);
    a.li(T3, !1);
    a.and(T0, T0, T3);
    a.mtc0(T0, c0::STATUS); // masked again
    a.la(T1, "k_resched");
    a.lw(T2, 0, T1);
    a.beq(T2, ZERO, "idle_loop");
    a.nop();
    a.mark_idle_stop();
    a.global_label("idle_out");
    a.la(T1, "k_resched");
    a.sw(ZERO, 0, T1);
    a.j("sched_entry");
    a.nop();
}

// =====================================================================
// System calls
// =====================================================================
fn emit_syscalls(a: &mut Asm, cfg: &KernelConfig) {
    a.global_label("h_syscall");
    a.la(S0, "k_cur_save");
    a.lw(S0, 0, S0);
    // Distinguish the bbtrace flush trap from ABI calls by the code
    // field of the syscall instruction itself.
    a.lw(T0, proc_off::EPC, S0);
    a.lw(T1, 0, T0); // user text word (through the TLB)
    a.srl(T2, T1, 6);
    a.li(T3, trapcode::TRACE_FLUSH as i32);
    a.bne(T2, T3, "hs_abi");
    a.nop();
    // Flush trap: the entry stub already copied and reset the buffer.
    a.addiu(T0, T0, 4);
    a.sw(T0, proc_off::EPC, S0);
    a.j("gv_exit");
    a.nop();

    a.label("hs_abi");
    a.addiu(T0, T0, 4);
    a.sw(T0, proc_off::EPC, S0); // blocking handlers undo this
    a.lw(S1, proc_off::reg(V0.0), S0);
    a.lw(A0, proc_off::reg(A0.0), S0);
    a.lw(A1, proc_off::reg(A1.0), S0);
    a.lw(A2, proc_off::reg(A2.0), S0);
    for (num, target) in [
        (sys::EXIT, "sys_exit"),
        (sys::SBRK, "sys_sbrk"),
        (sys::GETPID, "sys_getpid"),
        (sys::YIELD, "sys_yield"),
        (sys::WRITE, "sys_write"),
        (sys::TRACE_CTL, "sys_trace_ctl"),
        (sys::SPAWN, "sys_spawn"),
    ] {
        a.li(T4, num as i32);
        a.beq(S1, T4, target);
        a.nop();
    }
    match cfg.variant {
        Variant::Ultrix => {
            for (num, target) in [
                (sys::OPEN, "sys_open"),
                (sys::CREAT, "sys_creat"),
                (sys::READ, "sys_read"),
                (sys::CLOSE, "sys_close"),
            ] {
                a.li(T4, num as i32);
                a.beq(S1, T4, target);
                a.nop();
            }
        }
        Variant::Mach => {
            for (num, target) in [
                (sys::OPEN, "ipc_call"),
                (sys::CREAT, "ipc_call"),
                (sys::READ, "ipc_call"),
                (sys::CLOSE, "ipc_call"),
                (sys::RECV, "sys_recv"),
                (sys::REPLY, "sys_reply"),
                (sys::BREAD, "sys_bread"),
                (sys::BWRITE, "sys_bwrite"),
            ] {
                a.li(T4, num as i32);
                a.beq(S1, T4, target);
                a.nop();
            }
        }
    }
    a.li(V0, -1);
    a.label("hs_ret");
    a.sw(V0, proc_off::reg(V0.0), S0);
    a.j("gv_exit");
    a.nop();

    // Common blocking helper: undo the EPC advance (the call restarts
    // when the process wakes) and block on the disk.
    a.global_label("hs_block_restart");
    a.lw(T0, proc_off::EPC, S0);
    a.addiu(T0, T0, -4);
    a.sw(T0, proc_off::EPC, S0);
    a.li(T1, 3);
    a.sw(T1, proc_off::STATE, S0);
    a.j("gv_exit");
    a.nop();

    // ---- exit ----
    a.global_label("sys_exit");
    a.sw(A0, proc_off::EXIT_CODE, S0);
    a.li(T0, 4);
    a.sw(T0, proc_off::STATE, S0);
    a.lw(T1, proc_off::IS_SERVER, S0);
    a.bne(T1, ZERO, "se_out");
    a.nop();
    a.la(T2, "k_nlive");
    a.lw(T3, 0, T2);
    a.addiu(T3, T3, -1);
    a.sw(T3, 0, T2);
    a.bne(T3, ZERO, "se_out");
    a.nop();
    a.j("khalt"); // a0 = exit code of the last workload process
    a.nop();
    a.label("se_out");
    a.j("gv_exit");
    a.nop();

    // ---- sbrk ----
    a.global_label("sys_sbrk");
    a.lw(V0, proc_off::BRK, S0);
    a.addu(T0, V0, A0);
    a.li(T1, uvm::HEAP_MAX as i32);
    a.sltu(T2, T1, T0);
    a.beq(T2, ZERO, "sb_ok");
    a.nop();
    a.li(A0, 0xbad2);
    a.j("khalt");
    a.nop();
    a.label("sb_ok");
    a.sw(T0, proc_off::BRK, S0);
    a.j("hs_ret");
    a.nop();

    // ---- getpid ----
    a.global_label("sys_getpid");
    a.lw(V0, proc_off::ASID, S0);
    a.j("hs_ret");
    a.nop();

    // ---- yield ----
    a.global_label("sys_yield");
    a.li(V0, 0);
    a.j("hs_ret");
    a.nop();

    // ---- spawn(entry, stack_top, arg) -> token (§3.6) ----
    // Creates a thread in the caller's address space: same ASID and
    // page table, own register state, own trace-context token and —
    // when traced — its own trace pages from the loader-staged pool.
    a.global_label("sys_spawn");
    a.li(T0, 0);
    a.label("sp_scan");
    emit_proc_base(a, T1, T0, T2);
    a.lw(T2, proc_off::STATE, T1);
    a.beq(T2, ZERO, "sp_found");
    a.nop();
    a.addiu(T0, T0, 1);
    a.li(T3, layout::MAX_PROCS as i32);
    a.bne(T0, T3, "sp_scan");
    a.nop();
    a.li(V0, -1);
    a.j("hs_ret");
    a.nop();
    a.label("sp_found");
    // T1 = new entry, T0 = slot; parent is S0.
    a.lw(T2, proc_off::ASID, S0);
    a.sw(T2, proc_off::ASID, T1);
    a.lw(T2, proc_off::CONTEXT, S0);
    a.sw(T2, proc_off::CONTEXT, T1);
    a.lw(T2, proc_off::TRACED, S0);
    a.sw(T2, proc_off::TRACED, T1);
    a.lw(T2, proc_off::RT_START, S0);
    a.sw(T2, proc_off::RT_START, T1);
    a.lw(T2, proc_off::RT_END, S0);
    a.sw(T2, proc_off::RT_END, T1);
    a.lw(T2, proc_off::BRK, S0);
    a.sw(T2, proc_off::BRK, T1);
    a.addiu(T2, T0, 1);
    a.sw(T2, proc_off::TOKEN, T1);
    a.sw(A0, proc_off::EPC, T1);
    a.sw(A1, proc_off::reg(SP.0), T1);
    a.sw(A2, proc_off::reg(A0.0), T1);
    a.li(T2, -1);
    a.sw(T2, proc_off::WAIT_BLOCK, T1);
    a.sw(T2, proc_off::REPLY_TO, T1);
    a.sw(ZERO, proc_off::IS_SERVER, T1);
    a.sw(ZERO, proc_off::NEED_IFLUSH, T1);
    a.sw(ZERO, proc_off::EXIT_CODE, T1);
    a.lw(T2, proc_off::TRACED, T1);
    a.beq(T2, ZERO, "sp_notrace");
    a.nop();
    // Take the next 17-frame trace set from the pool.
    a.la(T3, "k_tpool_next");
    a.lw(T4, 0, T3);
    a.addiu(T5, T4, 1);
    a.sw(T5, 0, T3);
    // set base phys = THREAD_POOL + n * 17 * 4096 (= n<<16 + n<<12).
    a.sll(T5, T4, 16);
    a.sll(T6, T4, 12);
    a.addu(T5, T5, T6);
    a.li(T6, layout::THREAD_POOL_PHYS as i32);
    a.addu(T5, T5, T6); // set base (phys)
                        // Fill this slot's PTE list: pte = ((base>>12)+k)<<12 | D|V.
    a.sll(T6, T0, 6);
    a.sll(T7, T0, 2);
    a.addu(T6, T6, T7);
    a.la(T7, "k_tpte");
    a.addu(T6, T6, T7); // &k_tpte[slot]
    a.move_(T7, T5);
    a.li(T8, 17);
    a.label("sp_pte");
    a.li(T9, 0x600); // D|V
    a.or(T9, T9, T7);
    a.sw(T9, 0, T6);
    a.addiu(T6, T6, 4);
    a.li(T9, 4096);
    a.addu(T7, T7, T9);
    a.addiu(T8, T8, -1);
    a.bne(T8, ZERO, "sp_pte");
    a.nop();
    // Initialise the new bookkeeping frame (first frame of the set)
    // through kseg0.
    a.lui(T6, 0x8000);
    a.or(T6, T6, T5);
    a.li(T7, (utrace_buf_end() - 512) as i32);
    a.sw(T7, wrl_trace::layout::bk::BUF_END, T6);
    a.li(T7, utrace_buf_end() as i32);
    a.sw(T7, wrl_trace::layout::bk::HARD_END, T6);
    // Thread trace registers.
    a.li(T7, wrl_trace::layout::user::TRACE_BUF as i32);
    a.sw(T7, proc_off::reg(wrl_trace::layout::XREG1.0), T1);
    a.li(T7, wrl_trace::layout::user::BOOKKEEPING as i32);
    a.sw(T7, proc_off::reg(wrl_trace::layout::XREG3.0), T1);
    a.label("sp_notrace");
    a.li(T2, 1);
    a.sw(T2, proc_off::STATE, T1);
    a.la(T3, "k_nlive");
    a.lw(T4, 0, T3);
    a.addiu(T4, T4, 1);
    a.sw(T4, 0, T3);
    a.lw(V0, proc_off::TOKEN, T1);
    a.j("hs_ret");
    a.nop();

    // ---- trace_ctl(cmd) ----
    // Manipulates the live trace registers, so it must not itself be
    // rewritten by epoxie (stolen-register shadowing would redirect
    // the xreg writes to the shadow slots).
    {
        use wrl_trace::format::{ctl as mkctl, CtlOp};
        use wrl_trace::layout::{bk, trace_ctl, XREG1, XREG3};
        a.begin_uninstrumented();
        a.global_label("sys_trace_ctl");
        a.li(T0, trace_ctl::START as i32);
        a.bne(A0, T0, "tc_stop");
        a.nop();
        a.la(T1, "k_trace_on");
        a.li(T2, 1);
        a.sw(T2, 0, T1);
        a.la(T1, "k_cfg_buf_base");
        a.lw(XREG1, 0, T1); // xreg1 := main buffer
        a.la(T1, "k_cfg_soft_end");
        a.lw(T2, 0, T1);
        a.sw(T2, bk::BUF_END, XREG3);
        a.la(T1, "k_cfg_hard_end");
        a.lw(T2, 0, T1);
        a.sw(T2, bk::HARD_END, XREG3);
        a.sw(ZERO, bk::NEED_FLUSH, XREG3);
        a.li(T2, mkctl(CtlOp::TraceOn, 0) as i32);
        a.sw(T2, 0, XREG1);
        a.addiu(XREG1, XREG1, 4);
        // We are inside the kernel: re-open the kernel trace context
        // (its KExit comes from the eventual dispatch).
        a.li(T2, mkctl(CtlOp::KEnter, 8) as i32);
        a.sw(T2, 0, XREG1);
        a.addiu(XREG1, XREG1, 4);
        a.li(V0, 0);
        a.j("hs_ret");
        a.nop();
        a.label("tc_stop");
        a.li(T0, trace_ctl::STOP as i32);
        a.bne(A0, T0, "tc_bad");
        a.nop();
        // Close the current kernel trace context (its exit-path KExit
        // will be suppressed once tracing is off), then hand the
        // accumulated trace to the analysis program before abandoning
        // the buffer.
        a.li(T2, mkctl(CtlOp::KExit, 0) as i32);
        a.sw(T2, 0, XREG1);
        a.addiu(XREG1, XREG1, 4);
        a.jal("ktrace_flush_now");
        a.nop();
        a.la(T1, "k_trace_on");
        a.sw(ZERO, 0, T1);
        a.la(T1, "k_bb_base");
        a.lw(XREG1, 0, T1); // xreg1 := bit bucket
        a.la(T1, "k_bb_soft");
        a.lw(T2, 0, T1);
        a.sw(T2, bk::BUF_END, XREG3);
        a.la(T1, "k_bb_hard");
        a.lw(T2, 0, T1);
        a.sw(T2, bk::HARD_END, XREG3);
        a.sw(ZERO, bk::NEED_FLUSH, XREG3);
        a.li(V0, 0);
        a.j("hs_ret");
        a.nop();
        a.label("tc_bad");
        a.li(V0, -1);
        a.j("hs_ret");
        a.nop();
        a.end_uninstrumented();
    }

    // ---- write ----
    a.global_label("sys_write");
    a.li(T0, 1);
    a.bne(A0, T0, "wr_file");
    a.nop();
    a.j("cons_write");
    a.nop();
    a.label("wr_file");
    match cfg.variant {
        Variant::Ultrix => {
            a.j("fs_write");
            a.nop();
        }
        Variant::Mach => {
            a.j("ipc_call");
            a.nop();
        }
    }
}

// =====================================================================
// The Ultrix in-kernel file system
// =====================================================================
fn emit_fs(a: &mut Asm, cfg: &KernelConfig) {
    // dir_find(a0 = user path ptr) -> v0 = dir entry base or 0.
    a.global_label("dir_find");
    a.li(T9, 0); // index
    a.label("df_outer");
    a.li(T0, dir_off::COUNT as i32);
    a.beq(T9, T0, "df_fail");
    a.nop();
    a.sll(T1, T9, 5); // *32
    a.la(T2, "k_fs_dir");
    a.addu(T1, T2, T1); // entry base
    a.lbu(T3, dir_off::NAME, T1);
    a.beq(T3, ZERO, "df_next"); // empty slot
    a.nop();
    // Compare names byte by byte.
    a.li(T4, 0);
    a.label("df_cmp");
    a.addu(T5, A0, T4);
    a.lbu(T6, 0, T5); // user byte
    a.addu(T5, T1, T4);
    a.lbu(T7, dir_off::NAME, T5);
    a.bne(T6, T7, "df_next");
    a.nop();
    a.beq(T6, ZERO, "df_hit"); // both NUL: match
    a.nop();
    a.b("df_cmp");
    a.addiu(T4, T4, 1);
    a.label("df_hit");
    a.jr(RA);
    a.move_(V0, T1);
    a.label("df_next");
    a.b("df_outer");
    a.addiu(T9, T9, 1);
    a.label("df_fail");
    a.jr(RA);
    a.li(V0, 0);

    // fd_alloc(a0 = dir entry base) -> v0 = fd (or -1).
    a.global_label("fd_alloc");
    a.li(T0, 0);
    a.label("fa_loop");
    a.li(T1, fd_off::COUNT as i32);
    a.beq(T0, T1, "fa_fail");
    a.nop();
    a.sll(T2, T0, 3);
    a.la(T3, "k_fdtab");
    a.addu(T2, T3, T2);
    a.lw(T4, fd_off::DIR, T2);
    a.li(T5, -1);
    a.beq(T4, T5, "fa_hit");
    a.nop();
    a.b("fa_loop");
    a.addiu(T0, T0, 1);
    a.label("fa_hit");
    a.sw(A0, fd_off::DIR, T2); // store the dir entry ADDRESS
    a.sw(ZERO, fd_off::OFFSET, T2);
    a.jr(RA);
    a.addiu(V0, T0, 3);
    a.label("fa_fail");
    a.jr(RA);
    a.li(V0, -1);

    // ---- open(path) ----
    a.global_label("sys_open");
    a.jal("dir_find");
    a.nop();
    a.beq(V0, ZERO, "op_fail");
    a.nop();
    a.move_(A0, V0);
    a.jal("fd_alloc");
    a.nop();
    a.j("hs_ret");
    a.nop();
    a.label("op_fail");
    a.li(V0, -1);
    a.j("hs_ret");
    a.nop();

    // ---- creat(path) ----
    a.global_label("sys_creat");
    a.move_(S2, A0); // keep path
    a.jal("dir_find");
    a.nop();
    a.bne(V0, ZERO, "cr_have"); // existing: truncate
    a.nop();
    // Allocate a fresh directory slot.
    a.li(T9, 0);
    a.label("cr_scan");
    a.li(T0, dir_off::COUNT as i32);
    a.beq(T9, T0, "op_fail");
    a.nop();
    a.sll(T1, T9, 5);
    a.la(T2, "k_fs_dir");
    a.addu(T1, T2, T1);
    a.lbu(T3, dir_off::NAME, T1);
    a.beq(T3, ZERO, "cr_fresh");
    a.nop();
    a.b("cr_scan");
    a.addiu(T9, T9, 1);
    a.label("cr_fresh");
    // Copy the name (at most 19 bytes + NUL).
    a.li(T4, 0);
    a.label("cr_name");
    a.addu(T5, S2, T4);
    a.lbu(T6, 0, T5);
    a.addu(T5, T1, T4);
    a.sb(T6, dir_off::NAME, T5);
    a.beq(T6, ZERO, "cr_named");
    a.nop();
    a.li(T7, 19);
    a.beq(T4, T7, "cr_named");
    a.nop();
    a.b("cr_name");
    a.addiu(T4, T4, 1);
    a.label("cr_named");
    // Reserve 64 blocks of disk.
    a.la(T5, "k_fs_next_block");
    a.lw(T6, 0, T5);
    a.sw(T6, dir_off::START, T1);
    a.addiu(T7, T6, 64);
    a.sw(T7, 0, T5);
    a.sw(ZERO, dir_off::LEN, T1);
    a.move_(V0, T1);
    a.label("cr_have");
    a.sw(ZERO, dir_off::LEN, V0); // truncate
    a.move_(A0, V0);
    a.jal("fd_alloc");
    a.nop();
    a.j("hs_ret");
    a.nop();

    // ---- close(fd) ----
    a.global_label("sys_close");
    a.addiu(T0, A0, -3);
    a.bltz(T0, "cl_done");
    a.nop();
    a.sll(T1, T0, 3);
    a.la(T2, "k_fdtab");
    a.addu(T1, T2, T1);
    a.li(T3, -1);
    a.sw(T3, fd_off::DIR, T1);
    a.label("cl_done");
    a.li(V0, 0);
    a.j("hs_ret");
    a.nop();

    // ---- read(fd, buf, len) ----
    // s1 = fd entry, s2 = dir entry, s3 = block, s4 = chunk size.
    a.global_label("sys_read");
    a.addiu(T0, A0, -3);
    a.bltz(T0, "rd_fail");
    a.nop();
    a.sll(T1, T0, 3);
    a.la(T2, "k_fdtab");
    a.addu(S1, T2, T1);
    a.lw(S2, fd_off::DIR, S1);
    a.li(T3, -1);
    a.beq(S2, T3, "rd_fail");
    a.nop();
    a.lw(T3, dir_off::LEN, S2);
    a.lw(T4, fd_off::OFFSET, S1);
    a.subu(T5, T3, T4); // remaining
    a.bgtz(T5, "rd_some");
    a.nop();
    a.li(V0, 0); // EOF
    a.j("hs_ret");
    a.nop();
    a.label("rd_some");
    // chunk = min(len, remaining, 4096 - off%4096)
    a.move_(S4, A2);
    a.slt(T6, T5, S4);
    a.beq(T6, ZERO, "rd_m1");
    a.nop();
    a.move_(S4, T5);
    a.label("rd_m1");
    a.andi(T7, T4, 0xfff); // block offset
    a.li(T8, 4096);
    a.subu(T8, T8, T7);
    a.slt(T6, T8, S4);
    a.beq(T6, ZERO, "rd_m2");
    a.nop();
    a.move_(S4, T8);
    a.label("rd_m2");
    a.lw(T9, dir_off::START, S2);
    a.srl(T5, T4, 12);
    a.addu(S3, T9, T5); // block number
    a.move_(S2, A1); // from here s2 = user buffer
    a.move_(A0, S3);
    a.jal("bc_lookup");
    a.nop();
    a.beq(V0, ZERO, "rd_miss");
    a.nop();
    a.lw(T0, bc_off::IN_FLIGHT, V0);
    a.bne(T0, ZERO, "hs_block_restart");
    a.nop();
    // Hit: copy out, advance, read ahead.
    a.lw(T1, bc_off::FRAME, V0);
    a.lui(T2, 0x8000);
    a.addu(T1, T1, T2); // kseg0 view of the frame
    a.lw(T4, fd_off::OFFSET, S1);
    a.andi(T3, T4, 0xfff);
    a.addu(A1, T1, T3); // src
    a.move_(A0, S2); // dst (user)
    a.move_(A2, S4);
    a.jal("kcopy");
    a.nop();
    a.lw(T4, fd_off::OFFSET, S1);
    a.addu(T4, T4, S4);
    a.sw(T4, fd_off::OFFSET, S1);
    a.addiu(A0, S3, 1);
    a.lw(A1, fd_off::DIR, S1);
    a.jal("maybe_readahead");
    a.nop();
    a.move_(V0, S4);
    a.j("hs_ret");
    a.nop();
    a.label("rd_miss");
    a.move_(A0, S3);
    a.jal("bc_alloc");
    a.nop();
    a.beq(V0, ZERO, "hs_block_restart"); // no frame: wait and retry
    a.nop();
    a.lw(A2, bc_off::FRAME, V0);
    a.move_(A3, V0);
    a.li(A0, 1); // read
    a.move_(A1, S3);
    a.jal("disk_start");
    a.nop();
    a.j("hs_block_restart");
    a.nop();
    a.label("rd_fail");
    a.li(V0, -1);
    a.j("hs_ret");
    a.nop();

    // ---- fs_write(fd, buf, len): jumped from sys_write ----
    a.global_label("fs_write");
    a.addiu(T0, A0, -3);
    a.bltz(T0, "rd_fail");
    a.nop();
    a.sll(T1, T0, 3);
    a.la(T2, "k_fdtab");
    a.addu(S1, T2, T1); // fd entry
    a.lw(S2, fd_off::DIR, S1); // dir entry
    a.li(T3, -1);
    a.beq(S2, T3, "rd_fail");
    a.nop();
    a.lw(T4, fd_off::OFFSET, S1);
    // chunk = min(len, 4096 - off%4096)
    a.move_(S4, A2);
    a.andi(T7, T4, 0xfff);
    a.li(T8, 4096);
    a.subu(T8, T8, T7);
    a.slt(T6, T8, S4);
    a.beq(T6, ZERO, "wr_m1");
    a.nop();
    a.move_(S4, T8);
    a.label("wr_m1");
    a.lw(T9, dir_off::START, S2);
    a.srl(T5, T4, 12);
    a.addu(S3, T9, T5); // block
    a.move_(T9, A1); // user buffer
    a.move_(A0, S3);
    a.sw(T9, proc_off::IPC_BUF, S0); // stash buf across calls
    a.jal("bc_lookup");
    a.nop();
    a.bne(V0, ZERO, "wr_have");
    a.nop();
    a.move_(A0, S3);
    a.jal("bc_alloc");
    a.nop();
    a.beq(V0, ZERO, "hs_block_restart");
    a.nop();
    a.sw(ZERO, bc_off::IN_FLIGHT, V0); // fresh frame, no disk read
    a.label("wr_have");
    a.lw(T0, bc_off::IN_FLIGHT, V0);
    a.bne(T0, ZERO, "hs_block_restart"); // write-back in progress
    a.nop();
    a.move_(S2, V0); // cache entry
                     // Copy user data into the frame.
    a.lw(T1, bc_off::FRAME, S2);
    a.lui(T2, 0x8000);
    a.addu(T1, T1, T2);
    a.lw(T4, fd_off::OFFSET, S1);
    a.andi(T3, T4, 0xfff);
    a.addu(A0, T1, T3); // dst (kseg0 frame)
    a.lw(A1, proc_off::IPC_BUF, S0); // src (user)
    a.move_(A2, S4);
    a.jal("kcopy");
    a.nop();
    // Advance offset and file length.
    a.lw(T4, fd_off::OFFSET, S1);
    a.addu(T4, T4, S4);
    a.sw(T4, fd_off::OFFSET, S1);
    a.lw(T5, fd_off::DIR, S1);
    a.lw(T6, dir_off::LEN, T5);
    a.slt(T7, T6, T4);
    a.beq(T7, ZERO, "wr_len_ok");
    a.nop();
    a.sw(T4, dir_off::LEN, T5);
    a.label("wr_len_ok");
    if cfg.conservative_write {
        // Conservative policy: write through and sleep until the disk
        // acknowledges (§4.4's "greatly increased I/O delays").
        a.li(A0, 2);
        a.move_(A1, S3);
        a.lw(A2, bc_off::FRAME, S2);
        a.move_(A3, S2);
        a.li(T0, 1);
        a.sw(T0, bc_off::IN_FLIGHT, S2);
        a.jal("disk_start");
        a.nop();
        // Sleep-after-complete: the return value is already decided.
        a.sw(S4, proc_off::reg(V0.0), S0);
        a.li(T1, 3);
        a.sw(T1, proc_off::STATE, S0);
        a.j("gv_exit");
        a.nop();
    } else {
        a.li(T0, 1);
        a.sw(T0, bc_off::DIRTY, S2);
        a.move_(V0, S4);
        a.j("hs_ret");
        a.nop();
    }

    // bc_lookup(a0 = block) -> v0 = entry base or 0.
    a.global_label("bc_lookup");
    a.li(T0, 0);
    a.label("bl_loop");
    a.li(T1, layout::BCACHE_ENTRIES as i32);
    a.beq(T0, T1, "bl_fail");
    a.nop();
    a.sll(T2, T0, 4);
    a.la(T3, "k_bcache");
    a.addu(T2, T3, T2);
    a.lw(T4, bc_off::BLOCK, T2);
    a.beq(T4, A0, "bl_hit");
    a.nop();
    a.b("bl_loop");
    a.addiu(T0, T0, 1);
    a.label("bl_hit");
    a.jr(RA);
    a.move_(V0, T2);
    a.label("bl_fail");
    a.jr(RA);
    a.li(V0, 0);

    // bc_alloc(a0 = block) -> v0 = entry base (marked in-flight for
    // the caller's disk read) or 0 when no victim is available.
    a.global_label("bc_alloc");
    a.li(T0, 0); // tries
    a.label("ba_loop");
    a.li(T1, layout::BCACHE_ENTRIES as i32);
    a.beq(T0, T1, "ba_fail");
    a.nop();
    a.la(T2, "k_bc_hand");
    a.lw(T3, 0, T2);
    a.addiu(T4, T3, 1);
    a.li(T5, layout::BCACHE_ENTRIES as i32);
    a.slt(T6, T4, T5);
    a.bne(T6, ZERO, "ba_wrap_ok");
    a.nop();
    a.li(T4, 0);
    a.label("ba_wrap_ok");
    a.sw(T4, 0, T2);
    a.sll(T7, T3, 4);
    a.la(T8, "k_bcache");
    a.addu(T7, T8, T7); // candidate entry
    a.lw(T9, bc_off::IN_FLIGHT, T7);
    a.bne(T9, ZERO, "ba_next");
    a.nop();
    a.lw(T9, bc_off::DIRTY, T7);
    a.bne(T9, ZERO, "ba_next"); // prefer clean victims
    a.nop();
    a.sw(A0, bc_off::BLOCK, T7);
    a.li(T9, 1);
    a.sw(T9, bc_off::IN_FLIGHT, T7);
    a.sw(ZERO, bc_off::DIRTY, T7);
    a.jr(RA);
    a.move_(V0, T7);
    a.label("ba_next");
    a.b("ba_loop");
    a.addiu(T0, T0, 1);
    a.label("ba_fail");
    a.jr(RA);
    a.li(V0, 0);

    // maybe_readahead(a0 = block, a1 = dir entry): start an
    // asynchronous read of the next block when the disk is free
    // (§5.1: "tracing changes the behavior of disk read ahead").
    a.global_label("maybe_readahead");
    a.addiu(SP, SP, -16);
    a.sw(RA, 12, SP);
    a.sw(S2, 8, SP);
    a.move_(S2, A0);
    // Within the file?
    a.lw(T0, dir_off::START, A1);
    a.lw(T1, dir_off::LEN, A1);
    a.addiu(T1, T1, 4095);
    a.srl(T1, T1, 12);
    a.addu(T1, T0, T1); // one past last block
    a.slt(T2, S2, T1);
    a.beq(T2, ZERO, "ra_out");
    a.nop();
    // Disk already busy? Skip (read-ahead is opportunistic).
    a.la(T3, "k_disk_busy");
    a.lw(T3, 0, T3);
    a.bne(T3, ZERO, "ra_out");
    a.nop();
    a.move_(A0, S2);
    a.jal("bc_lookup");
    a.nop();
    a.bne(V0, ZERO, "ra_out"); // already cached
    a.nop();
    a.move_(A0, S2);
    a.jal("bc_alloc");
    a.nop();
    a.beq(V0, ZERO, "ra_out");
    a.nop();
    a.li(A0, 1);
    a.move_(A1, S2);
    a.lw(A2, bc_off::FRAME, V0);
    a.move_(A3, V0);
    a.jal("disk_start");
    a.nop();
    a.label("ra_out");
    a.lw(RA, 12, SP);
    a.lw(S2, 8, SP);
    a.jr(RA);
    a.addiu(SP, SP, 16);
}

// =====================================================================
// Mach IPC and raw block I/O
// =====================================================================
fn emit_ipc(a: &mut Asm) {
    // ipc_call: forward the current syscall (s1 = number, a0..a2) to
    // the UNIX server. The request is staged in the *client's*
    // mailbox frame and queued; delivery copies it into the server's
    // mailbox when the server receives.
    a.global_label("ipc_call");
    // mb = kseg0 view of the client's mailbox frame.
    a.lw(T0, proc_off::MAILBOX_PHYS, S0);
    a.lui(T1, 0x8000);
    a.addu(T0, T0, T1);
    a.sw(S1, msg_off::OP, T0);
    a.sw(A0, msg_off::A1, T0);
    a.sw(A1, proc_off::IPC_BUF, S0); // reply data destination
                                     // Data staging by operation.
    a.li(T2, sys::OPEN as i32);
    a.beq(S1, T2, "ic_path");
    a.nop();
    a.li(T2, sys::CREAT as i32);
    a.beq(S1, T2, "ic_path");
    a.nop();
    a.li(T2, sys::WRITE as i32);
    a.beq(S1, T2, "ic_wdata");
    a.nop();
    // read/close: clamp the length.
    a.li(T3, msg_off::DATA_MAX as i32);
    a.slt(T4, T3, A2);
    a.beq(T4, ZERO, "ic_lenok");
    a.nop();
    a.move_(A2, T3);
    a.label("ic_lenok");
    a.sw(A2, msg_off::A2, T0);
    a.j("ic_enqueue");
    a.nop();
    // Copy the user path string into the message data area.
    a.label("ic_path");
    a.li(T4, 0);
    a.label("ic_pcopy");
    a.addu(T5, A0, T4);
    a.lbu(T6, 0, T5);
    a.addu(T5, T0, T4);
    a.sb(T6, msg_off::DATA, T5);
    a.beq(T6, ZERO, "ic_pdone");
    a.nop();
    a.li(T7, 60);
    a.beq(T4, T7, "ic_pdone");
    a.nop();
    a.b("ic_pcopy");
    a.addiu(T4, T4, 1);
    a.label("ic_pdone");
    // Path messages carry the string in DATA; record its extent so
    // delivery copies it.
    a.li(T4, 64);
    a.sw(T4, msg_off::A2, T0);
    a.j("ic_enqueue");
    a.nop();
    // Copy write data (clamped) into the message.
    a.label("ic_wdata");
    a.li(T3, msg_off::DATA_MAX as i32);
    a.slt(T4, T3, A2);
    a.beq(T4, ZERO, "ic_wlenok");
    a.nop();
    a.move_(A2, T3);
    a.label("ic_wlenok");
    a.sw(A2, msg_off::A2, T0);
    a.li(T4, 0);
    a.label("ic_wcopy");
    a.beq(T4, A2, "ic_enqueue");
    a.nop();
    a.addu(T5, A1, T4);
    a.lbu(T6, 0, T5); // user byte (client mapping is current)
    a.addu(T5, T0, T4);
    a.sb(T6, msg_off::DATA, T5);
    a.b("ic_wcopy");
    a.addiu(T4, T4, 1);
    a.label("ic_enqueue");
    // Queue the client and block it in ipc-wait.
    a.la(T0, "k_cur_proc");
    a.lw(T1, 0, T0);
    a.la(T2, "k_ipcq");
    a.la(T3, "k_ipcq_tail");
    a.lw(T4, 0, T3);
    a.sll(T5, T4, 2);
    a.addu(T5, T2, T5);
    a.sw(T1, 0, T5);
    a.addiu(T4, T4, 1);
    a.andi(T4, T4, 7); // 8-deep ring
    a.sw(T4, 0, T3);
    a.li(T6, 5);
    a.sw(T6, proc_off::STATE, S0);
    // Wake the server if it is parked in receive.
    a.la(T7, "k_server_idx");
    a.lw(T7, 0, T7);
    emit_proc_base(a, T8, T7, T9);
    a.lw(T9, proc_off::STATE, T8);
    a.li(T0, 6);
    a.bne(T9, T0, "ic_nowake");
    a.nop();
    a.li(T0, 1);
    a.sw(T0, proc_off::STATE, T8);
    a.label("ic_nowake");
    a.la(T1, "k_resched");
    a.li(T2, 1);
    a.sw(T2, 0, T1);
    a.j("gv_exit");
    a.nop();

    // ---- recv (server): deliver the next queued request ----
    a.global_label("sys_recv");
    a.la(T0, "k_ipcq_head");
    a.lw(T1, 0, T0);
    a.la(T2, "k_ipcq_tail");
    a.lw(T3, 0, T2);
    a.bne(T1, T3, "rv_have");
    a.nop();
    // Queue empty: park in receive-wait (restart on wake).
    a.lw(T4, proc_off::EPC, S0);
    a.addiu(T4, T4, -4);
    a.sw(T4, proc_off::EPC, S0);
    a.li(T5, 6);
    a.sw(T5, proc_off::STATE, S0);
    a.j("gv_exit");
    a.nop();
    a.label("rv_have");
    a.la(T4, "k_ipcq");
    a.sll(T5, T1, 2);
    a.addu(T5, T4, T5);
    a.lw(S2, 0, T5); // client index
    a.addiu(T1, T1, 1);
    a.andi(T1, T1, 7);
    a.sw(T1, 0, T0);
    a.sw(S2, proc_off::REPLY_TO, S0);
    // Copy client mailbox -> server mailbox (kseg0 both sides).
    emit_proc_base(a, T6, S2, T7);
    a.lw(A1, proc_off::MAILBOX_PHYS, T6);
    a.lui(T7, 0x8000);
    a.addu(A1, A1, T7);
    a.lw(A0, proc_off::MAILBOX_PHYS, S0);
    a.addu(A0, A0, T7);
    // length = header + data bytes (A2 field, clamped at build).
    a.lw(T8, msg_off::A2, A1);
    a.addiu(A2, T8, msg_off::DATA);
    a.jal("kcopy");
    a.nop();
    a.lw(A1, proc_off::MAILBOX_PHYS, S0);
    a.lui(T7, 0x8000);
    a.addu(A1, A1, T7);
    a.lw(V0, msg_off::OP, A1);
    a.j("hs_ret");
    a.nop();

    // ---- reply (server, a0 = result): finish the client's call ----
    a.global_label("sys_reply");
    a.lw(S2, proc_off::REPLY_TO, S0);
    a.bltz(S2, "rp_done");
    a.nop();
    emit_proc_base(a, S3, S2, T0);
    a.sw(A0, proc_off::reg(V0.0), S3); // client's return value
                                       // If the finished op was a read, copy data server->client.
    a.lw(T1, proc_off::MAILBOX_PHYS, S0);
    a.lui(T2, 0x8000);
    a.addu(T1, T1, T2); // server mailbox
    a.lw(T3, msg_off::OP, T1);
    a.li(T4, sys::READ as i32);
    a.bne(T3, T4, "rp_nodata");
    a.nop();
    a.blez(A0, "rp_nodata");
    a.nop();
    // kcopy_cross(client, dst uvaddr, src kseg0, n)
    a.move_(A2, A0); // n
    a.addiu(A1, T1, msg_off::DATA); // src
    a.lw(A0, proc_off::IPC_BUF, S3); // client buffer vaddr
    a.move_(A3, S2); // client index
    a.jal("kcopy_cross");
    a.nop();
    a.label("rp_nodata");
    a.li(T5, 1);
    a.sw(T5, proc_off::STATE, S3); // client ready
    a.li(T6, -1);
    a.sw(T6, proc_off::REPLY_TO, S0);
    a.la(T7, "k_resched");
    a.li(T8, 1);
    a.sw(T8, 0, T7);
    a.label("rp_done");
    a.li(V0, 0);
    a.j("hs_ret");
    a.nop();
}

fn emit_blockio(a: &mut Asm) {
    // sys_bread(a0 = block, a1 = page-aligned server vaddr) /
    // sys_bwrite: raw block transfer for the UNIX server. DMA goes
    // straight to the server's frame (the kernel walks the server's
    // page table in software).
    for (name, cmd) in [("sys_bread", 1i32), ("sys_bwrite", 2i32)] {
        let issue = format!("bi_issue_{cmd}");
        a.global_label(name);
        // Completed already?
        a.la(T0, "k_bread_done");
        a.lw(T1, 0, T0);
        a.beq(T1, ZERO, &issue);
        a.nop();
        a.la(T2, "k_bread_block");
        a.lw(T3, 0, T2);
        a.bne(T3, A0, &issue);
        a.nop();
        a.la(T2, "k_bread_cmd");
        a.lw(T3, 0, T2);
        a.li(T4, cmd);
        a.bne(T3, T4, &issue);
        a.nop();
        // Yes: consume the completion.
        a.sw(ZERO, 0, T0);
        a.li(V0, 0);
        a.j("hs_ret");
        a.nop();
        a.label(&issue);
        // Disk free?
        a.la(T5, "k_disk_busy");
        a.lw(T6, 0, T5);
        a.bne(T6, ZERO, "hs_block_restart");
        a.nop();
        // Translate the server buffer: walk our own page table in
        // kseg0 (pt_phys(cur) + vpn*4).
        a.la(T7, "k_cur_proc");
        a.lw(T7, 0, T7);
        a.li(T8, layout::PT_BYTES as i32);
        a.mult(T7, T8);
        a.mflo(T8);
        a.li(T9, (layout::PT_POOL_PHYS + layout::KSEG0) as i32);
        a.addu(T8, T8, T9); // table base (kseg0)
        a.srl(T9, A1, 12);
        a.sll(T9, T9, 2);
        a.addu(T8, T8, T9);
        a.lw(T9, 0, T8); // PTE
        a.srl(T9, T9, 12);
        a.sll(T9, T9, 12); // frame paddr
                           // Record and start.
        a.la(T0, "k_bread_block");
        a.sw(A0, 0, T0);
        a.la(T0, "k_bread_cmd");
        a.li(T1, cmd);
        a.sw(T1, 0, T0);
        a.la(T0, "k_bread_done");
        a.sw(ZERO, 0, T0);
        a.move_(A1, A0); // block
        a.li(A0, cmd);
        a.move_(A2, T9); // frame paddr
        a.li(A3, 0); // no cache entry
        a.jal("disk_start");
        a.nop();
        a.j("hs_block_restart");
        a.nop();
    }
}

// =====================================================================
// Utilities: kcopy, cross-space copy, console output, I-cache flush
// =====================================================================
fn emit_util(a: &mut Asm, cfg: &KernelConfig) {
    // kcopy(a0 = dst, a1 = src, a2 = n): word loop when everything is
    // aligned, byte loop otherwise.
    a.global_label("kcopy");
    a.or(T0, A0, A1);
    a.or(T0, T0, A2);
    a.andi(T0, T0, 3);
    a.bne(T0, ZERO, "kc_bytes");
    a.nop();
    a.li(T1, 0);
    a.label("kc_words");
    a.beq(T1, A2, "kc_done");
    a.nop();
    a.addu(T2, A1, T1);
    a.lw(T3, 0, T2);
    a.addu(T2, A0, T1);
    a.sw(T3, 0, T2);
    a.b("kc_words");
    a.addiu(T1, T1, 4);
    a.label("kc_bytes");
    a.li(T1, 0);
    a.label("kc_bloop");
    a.beq(T1, A2, "kc_done");
    a.nop();
    a.addu(T2, A1, T1);
    a.lbu(T3, 0, T2);
    a.addu(T2, A0, T1);
    a.sb(T3, 0, T2);
    a.b("kc_bloop");
    a.addiu(T1, T1, 1);
    a.label("kc_done");
    a.jr(RA);
    a.nop();

    // kcopy_cross(a0 = dst uvaddr in proc a3, a1 = src kseg0, a2 = n):
    // copies into another process's address space by walking its page
    // table through kseg0, page by page.
    a.global_label("kcopy_cross");
    a.li(T0, 0); // progress
    a.label("kx_loop");
    a.beq(T0, A2, "kx_done");
    a.nop();
    a.addu(T1, A0, T0); // dst vaddr
                        // PTE address: pt_phys(a3) + vpn*4, via kseg0.
    a.li(T2, layout::PT_BYTES as i32);
    a.mult(A3, T2);
    a.mflo(T2);
    a.li(T3, (layout::PT_POOL_PHYS + layout::KSEG0) as i32);
    a.addu(T2, T2, T3);
    a.srl(T3, T1, 12);
    a.sll(T3, T3, 2);
    a.addu(T2, T2, T3);
    a.lw(T3, 0, T2); // PTE
    a.srl(T3, T3, 12);
    a.sll(T3, T3, 12);
    a.andi(T4, T1, 0xfff);
    a.addu(T3, T3, T4);
    a.lui(T4, 0x8000);
    a.addu(T3, T3, T4); // dst kseg0
    a.addu(T5, A1, T0);
    a.lbu(T6, 0, T5);
    a.sb(T6, 0, T3);
    a.b("kx_loop");
    a.addiu(T0, T0, 1);
    a.label("kx_done");
    a.jr(RA);
    a.nop();

    // ---- Console output: the hand-instrumented showcase (§3.5).
    // The loop body is inside a hand-traced region: epoxie leaves it
    // alone, and the code emits its own per-iteration record — one
    // basic-block word (the `k_cons_record` label) and two address
    // words (the user load and the device store). ----
    a.global_label("cons_write");
    // a1 = user buf, a2 = len (from the syscall dispatcher).
    a.la(T7, "k_trace_on");
    a.lw(T7, 0, T7);
    a.li(T6, DEV_CONSOLE);
    a.move_(T5, A1);
    a.move_(T4, A2);
    a.begin_hand_traced();
    a.label("cons_loop");
    a.beq(T4, ZERO, "cons_done");
    a.nop();
    a.beq(T7, ZERO, "cons_notrace");
    a.nop();
    // Hand-emitted trace record.
    a.la(T8, "k_cons_record");
    a.sw(T8, 0, wrl_trace::layout::XREG1);
    a.sw(T5, 4, wrl_trace::layout::XREG1); // load address
    a.sw(T6, 8, wrl_trace::layout::XREG1); // store address
    a.addiu(wrl_trace::layout::XREG1, wrl_trace::layout::XREG1, 12);
    a.label("cons_notrace");
    a.global_label("k_cons_record");
    a.lbu(T9, 0, T5); // the user byte (recorded above)
    a.sw(T9, 0, T6); // to the console device
    a.addiu(T5, T5, 1);
    a.b("cons_loop");
    a.addiu(T4, T4, -1);
    a.label("cons_done");
    a.end_hand_traced();
    a.move_(V0, A2);
    a.j("hs_ret");
    a.nop();

    // ---- I-cache flush over the whole cache (first dispatch of a
    // new image). The buggy variant isolates the cache and "forgets"
    // to de-isolate — every subsequent fetch until the next dispatch
    // goes uncached (§4.4). ----
    a.global_label("k_iflush");
    if cfg.icache_flush_bug {
        a.mfc0(T0, c0::STATUS);
        a.lui(T1, 0x0001); // IsC
        a.or(T0, T0, T1);
        a.mtc0(T0, c0::STATUS);
        // BUG: IsC is never cleared here; dispatch_tail's status
        // write cleans it up much later.
    }
    a.lui(T2, 0x8000);
    a.lui(T3, 0x8001); // 64 KB worth of lines
    a.label("if_loop");
    a.inst(wrl_isa::Inst::Cache {
        op: 0,
        base: T2,
        off: 0,
    });
    a.addiu(T2, T2, 16);
    a.sltu(T4, T2, T3);
    a.bne(T4, ZERO, "if_loop");
    a.nop();
    if !cfg.icache_flush_bug {
        // (Nothing to clean up: the correct routine never isolates.)
    }
    a.jr(RA);
    a.nop();
}
