//! The uninstrumented kernel core: exception vectors, register
//! save/restore stubs, and the trace-control subsystem.
//!
//! This object is placed first in the kernel link so that its offset
//! 0x000 is the UTLB refill vector and offset 0x080 the general
//! exception vector. Everything in it is "part of the tracing system
//! and should not be traced" or "too delicate to be rewritten
//! mechanically" (§3.3), so the whole object is marked uninstrumented
//! and epoxie copies it verbatim — preserving the vector offsets in
//! the instrumented kernel.

use wrl_isa::asm::Asm;
use wrl_isa::reg::*;
use wrl_isa::{Inst, Object};
use wrl_machine::cp0::reg as c0;
use wrl_machine::dev::{regs as devregs, DEV_BASE_K1};
use wrl_trace::format::{ctl, CtlOp};
use wrl_trace::layout::{bk, XREG1, XREG3};

use crate::kdata::{frame_off, proc_off};

/// Registers saved in exception frames: everything except `zero`,
/// `k0` and `k1` (the MIPS convention — k0/k1 belong to the handler).
fn saved_regs() -> Vec<u8> {
    (1u8..32).filter(|&r| r != 26 && r != 27).collect()
}

/// Builds the vectors object.
pub fn object() -> Object {
    let mut a = Asm::new("kvectors");
    a.begin_uninstrumented();

    // ================= UTLB refill vector (offset 0x000) ===========
    // The paper's "nine-instruction miss handler" (§4.1). EPC is
    // captured in k1 first because the PTE load from kseg2 can itself
    // miss (a KTLB miss through the general vector), which overwrites
    // EPC; the general handler preserves k1 across that excursion.
    a.global_label("__utlb");
    a.mfc0(K1, c0::EPC);
    a.mfc0(K0, c0::CONTEXT);
    a.nop(); // CP0 read interlock
    a.lw(K0, 0, K0); // the PTE (may nest a KTLB miss)
    a.nop(); // load delay
    a.mtc0(K0, c0::ENTRYLO);
    a.inst(Inst::Tlbwr);
    a.jr(K1);
    a.inst(Inst::Rfe);
    // Pad to the general vector at 0x80.
    while a.here() < 0x80 {
        a.nop();
    }

    // ================= General vector (offset 0x080) ===============
    a.global_label("__genvec");
    a.j("gen_handler");
    a.nop();

    // ================= Entry stub ==================================
    a.global_label("gen_handler");
    a.mfc0(K0, c0::STATUS);
    a.andi(K0, K0, 0x8); // KUp: came from user?
    a.bne(K0, ZERO, "gv_user");
    a.nop();

    // ---- From kernel: push a nested-exception frame (§3.5: "the
    // nested interrupts on the DECstation require the tracing system
    // to use a stack to maintain its state"). ----
    a.label("gv_kernel");
    // k1 may be live: it holds the interrupted UTLB handler's saved
    // EPC when this is a nested KTLB miss. Preserve it in the frame
    // (k0 is dead — the status check above already consumed it).
    a.la(K0, "k_kstack_ptr");
    a.lw(K0, 0, K0);
    a.sw(K1, frame_off::reg(27), K0);
    a.move_(K1, K0);
    for r in saved_regs() {
        a.sw(Reg(r), frame_off::reg(r), K1);
    }
    a.mfc0(K0, c0::EPC);
    a.sw(K0, frame_off::EPC, K1);
    a.mfhi(K0);
    a.sw(K0, frame_off::HI, K1);
    a.mflo(K0);
    a.sw(K0, frame_off::LO, K1);
    a.la(T0, "k_kstack_ptr");
    a.addiu(T1, K1, frame_off::SIZE as i16);
    a.sw(T1, 0, T0);
    // Three cases for the interrupted context's trace registers
    // (frame XK): 1 = ordinary interrupted kernel (live xregs are the
    // kernel's; resume normally); 0 = KTLB miss nested in the UTLB
    // handler that fired from USER mode (live xregs are a user's:
    // load the kernel's, return the user's on exit, and return
    // directly to the user EPC the refill handler saved in k1);
    // 2 = KTLB miss nested in the UTLB handler that fired from KERNEL
    // mode (kernel touching user memory: live xregs are already the
    // kernel's — reloading the parked pointer here would clobber live
    // trace — but the refill handler still cannot be resumed, so exit
    // returns directly to its saved k1).
    a.lw(T2, frame_off::EPC, K1);
    a.lui(T3, 0x8000);
    a.subu(T2, T2, T3);
    a.sltiu(T2, T2, 0x80); // 1 if EPC in the UTLB handler
    a.beq(T2, ZERO, "gvk_kxregs");
    a.nop();
    a.mfc0(T4, c0::STATUS);
    a.andi(T4, T4, 0x20); // KUo: the refill handler's interruptee
    a.beq(T4, ZERO, "gvk_nested_kernel");
    a.nop();
    a.sw(ZERO, frame_off::XK, K1); // case 0: user xregs in the frame
    a.la(XREG3, "k_ktrace_bk");
    a.la(T4, "k_ktrace_regs");
    a.lw(XREG1, 0, T4);
    a.b("gvk_xdone"); // user bk lives in user memory: nothing to save
    a.nop();
    a.label("gvk_nested_kernel");
    a.li(T4, 2); // case 2: keep the live kernel xregs
    a.sw(T4, frame_off::XK, K1);
    a.b("gvk_savebk");
    a.nop();
    a.label("gvk_kxregs");
    a.li(T4, 1);
    a.sw(T4, frame_off::XK, K1);
    // The interrupted kernel context may be mid-bbtrace/memtrace:
    // its bookkeeping slots (SCRATCH/SCRATCH2/RA_SAVE) would be
    // clobbered by this handler's own trace calls. Save them.
    a.label("gvk_savebk");
    a.la(T5, "k_ktrace_bk");
    a.lw(T6, bk::SCRATCH, T5);
    a.sw(T6, frame_off::BK, K1);
    a.lw(T6, bk::SCRATCH2, T5);
    a.sw(T6, frame_off::BK + 4, K1);
    a.lw(T6, bk::RA_SAVE, T5);
    a.sw(T6, frame_off::BK + 8, K1);
    a.label("gvk_xdone");
    // Capture the exception state NOW: the service path may itself
    // take nested TLB faults that overwrite CP0 Cause/BadVAddr (this
    // is exactly how trace-system state maintenance bites, §3.3).
    // s1/s2 are frame-saved and survive to gv_dispatch.
    a.mfc0(S1, c0::CAUSE);
    a.mfc0(S2, c0::BADVADDR);
    // KEnter(cause): xreg1 now holds the kernel trace pointer.
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "gvk_notrace");
    a.nop();
    a.andi(T1, S1, 0x7c); // exccode << 2
    a.sll(T1, T1, 6); // payload byte = exccode << 8
    a.ori(T1, T1, CtlOp::KEnter as u16);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.label("gvk_notrace");
    a.j("gv_dispatch");
    a.nop();

    // ---- From user: save into the process table and bring the
    // kernel's trace state in (§3.1: "exception handlers were modified
    // to copy trace from per-process buffers … whenever traced user
    // processes are interrupted"). ----
    a.label("gv_user");
    a.la(K1, "k_cur_save");
    a.lw(K1, 0, K1);
    for r in saved_regs() {
        a.sw(Reg(r), proc_off::reg(r), K1);
    }
    a.mfc0(K0, c0::EPC);
    a.sw(K0, proc_off::EPC, K1);
    a.mfhi(K0);
    a.sw(K0, proc_off::HI, K1);
    a.mflo(K0);
    a.sw(K0, proc_off::LO, K1);
    // Capture Cause/BadVAddr before the trace copy: copying the user
    // buffer takes nested TLB refills that overwrite them.
    a.mfc0(S1, c0::CAUSE);
    a.mfc0(S2, c0::BADVADDR);
    a.move_(A0, K1);
    a.move_(A1, S1);
    a.jal("ktrace_enter");
    a.nop();
    a.j("gv_dispatch");
    a.nop();

    // ================= ktrace_enter ================================
    // a0 = process-table entry. Loads the kernel trace registers,
    // copies the per-process buffer into the in-kernel buffer
    // (preserving interleaving), resets the user's trace pointer, and
    // writes the CtxSwitch/KEnter control words.
    a.global_label("ktrace_enter");
    a.la(XREG3, "k_ktrace_bk");
    a.la(T0, "k_ktrace_regs");
    a.lw(XREG1, 0, T0);
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.lw(T2, proc_off::TRACED, A0);
    a.beq(T2, ZERO, "kte_kenter");
    a.nop();
    // If an *interrupt* caught the process inside the trace runtime,
    // it may be between a trace store and its pointer bump: copying
    // and resetting now would lose or duplicate an entry. Defer to
    // the next kernel entry (§3.3's "uninstrumented code in the
    // traced kernel must be carefully handled so as to preserve and
    // maintain the state of the tracing system" — ditto user side).
    a.andi(T3, A1, 0x7c);
    a.li(T4, 0 << 2); // Int
    a.bne(T3, T4, "kte_copy_ok");
    a.nop();
    a.lw(T3, proc_off::EPC, A0);
    a.lw(T4, proc_off::RT_START, A0);
    a.sltu(T4, T3, T4);
    a.bne(T4, ZERO, "kte_copy_ok"); // epc below the runtime
    a.nop();
    a.lw(T4, proc_off::RT_END, A0);
    a.sltu(T4, T3, T4);
    a.bne(T4, ZERO, "kte_kenter"); // inside the runtime: defer
    a.nop();
    a.label("kte_copy_ok");
    // Reset the user trace pointer even when global tracing is off —
    // otherwise a full user buffer would re-trap forever.
    a.beq(T0, ZERO, "kte_reset_only");
    a.nop();
    // CtxSwitch(token): the trace-context token, distinct per thread.
    a.lw(T3, proc_off::TOKEN, A0);
    a.sll(T3, T3, 8);
    a.ori(T3, T3, CtlOp::CtxSwitch as u16);
    a.sw(T3, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    // Copy [TRACE_BUF, saved user xreg1).
    a.lw(T4, proc_off::reg(XREG1.0), A0);
    a.li(T5, wrl_trace::layout::user::TRACE_BUF as i32);
    a.label("kte_copy");
    a.beq(T5, T4, "kte_reset_only");
    a.nop();
    a.lw(T6, 0, T5); // user virtual address: TLB does the work
    a.sw(T6, 0, XREG1);
    a.addiu(T5, T5, 4);
    a.b("kte_copy");
    a.addiu(XREG1, XREG1, 4);
    a.label("kte_reset_only");
    a.li(T5, wrl_trace::layout::user::TRACE_BUF as i32);
    a.sw(T5, proc_off::reg(XREG1.0), A0);
    a.label("kte_kenter");
    a.beq(T0, ZERO, "kte_over");
    a.nop();
    a.andi(T7, A1, 0x7c);
    a.sll(T7, T7, 6);
    a.ori(T7, T7, CtlOp::KEnter as u16);
    a.sw(T7, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.label("kte_over");
    // Hard-overflow safety: if even the slack is exhausted, flush now.
    a.lw(T8, bk::HARD_END, XREG3);
    a.sltu(T8, T8, XREG1);
    a.beq(T8, ZERO, "kte_ret");
    a.nop();
    a.jal("ktrace_flush_now");
    a.nop();
    a.label("kte_ret");
    a.jr(RA);
    a.nop();

    // ================= ktrace_flush_now ============================
    // Appends TraceOff, rings the analysis doorbell (the machine
    // pauses while the host analysis program drains the buffer — the
    // trace-analysis mode of §3.1), then resets the pointer and
    // appends TraceOn. Leaf; clobbers t8/t9.
    a.global_label("ktrace_flush_now");
    a.li(T9, ctl(CtlOp::TraceOff, 0) as i32);
    a.sw(T9, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.li(T9, (DEV_BASE_K1 + devregs::TRACE_REQ) as i32);
    a.sw(XREG1, 0, T9); // doorbell: payload = current fill pointer
    a.la(T8, "k_cfg_buf_base");
    a.lw(XREG1, 0, T8);
    a.la(T8, "k_cfg_soft_end");
    a.lw(T9, 0, T8);
    a.sw(T9, bk::BUF_END, XREG3);
    a.sw(ZERO, bk::NEED_FLUSH, XREG3);
    a.li(T9, ctl(CtlOp::TraceOn, 0) as i32);
    a.sw(T9, 0, XREG1);
    a.jr(RA);
    a.addiu(XREG1, XREG1, 4);

    // ================= Exception exit ==============================
    // Reached from the service code at a *safe point*: "provisions
    // must be made for critical system operations to complete before
    // tracing is suspended" (§3.3) — the buffer-full flag set by the
    // kernel bbtrace is honoured only here.
    a.global_label("gv_exit");
    // Nested? (frame stack non-empty → return to interrupted kernel.)
    // The flush check happens only on the full-unwind path: rewinding
    // the buffer while an interrupted kernel context is mid-entry
    // below us would corrupt its in-flight store.
    a.la(T5, "k_kstack_ptr");
    a.lw(T6, 0, T5);
    a.la(T7, "k_kstack");
    a.beq(T6, T7, "gve_flush_check");
    a.nop();
    a.b("gve_pop_entry");
    a.nop();
    a.label("gve_flush_check");
    a.lw(T1, bk::NEED_FLUSH, XREG3);
    a.beq(T1, ZERO, "gve_sched");
    a.nop();
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "gve_bitbucket");
    a.nop();
    a.jal("ktrace_flush_now");
    a.nop();
    a.b("gve_sched");
    a.nop();
    // Tracing is off: the "buffer" is the bit bucket — just rewind it.
    a.label("gve_bitbucket");
    a.la(T2, "k_bb_base");
    a.lw(XREG1, 0, T2);
    a.la(T2, "k_bb_soft");
    a.lw(T3, 0, T2);
    a.sw(T3, bk::BUF_END, XREG3);
    a.sw(ZERO, bk::NEED_FLUSH, XREG3);
    a.b("gve_sched");
    a.nop();
    a.label("gve_pop_entry");
    // Pop the frame: KExit, then restore (keeping the live xreg1).
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "gve_pop");
    a.nop();
    a.li(T1, ctl(CtlOp::KExit, 0) as i32);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.label("gve_pop");
    a.addiu(T6, T6, -(frame_off::SIZE as i16));
    a.sw(T6, 0, T5);
    // If the frame holds a *user* context's xregs (a KTLB miss nested
    // inside the UTLB refill handler), park the kernel trace pointer,
    // restore the user's, and return DIRECTLY to the original faulting
    // context: the refill handler cannot be resumed (the entry stub
    // consumed its k0), so the KTLB path completed the user refill and
    // we unwind both exception levels at once. The original EPC is the
    // frame's saved k1 (the refill handler's first act was to capture
    // EPC there), and the original KU/IE level is recovered from the
    // status stack's oldest slot.
    a.lw(T0, frame_off::XK, T6);
    // Cases 1 and 2: restore the interrupted context's bookkeeping
    // slots (they were live kernel trace state).
    a.beq(T0, ZERO, "gve_bkdone");
    a.nop();
    a.la(T1, "k_ktrace_bk");
    a.lw(T2, frame_off::BK, T6);
    a.sw(T2, bk::SCRATCH, T1);
    a.lw(T2, frame_off::BK + 4, T6);
    a.sw(T2, bk::SCRATCH2, T1);
    a.lw(T2, frame_off::BK + 8, T6);
    a.sw(T2, bk::RA_SAVE, T1);
    a.label("gve_bkdone");
    a.li(T1, 1);
    a.beq(T0, T1, "gve_keepx"); // case 1: ordinary nested kernel
    a.nop();
    a.bne(T0, ZERO, "gve_direct"); // case 2: keep xregs, direct return
    a.nop();
    // Case 0: give the user context its trace registers back.
    a.la(T1, "k_ktrace_regs");
    a.sw(XREG1, 0, T1);
    a.lw(XREG1, frame_off::reg(XREG1.0), T6);
    a.label("gve_direct");
    // Direct return: the refill handler cannot be resumed (its k0 was
    // consumed by this stub), so its job was finished in h_tlb_fault
    // and we return straight to the EPC it saved in k1, unwinding
    // both exception levels (status KUp/IEp := KUo/IEo, one rfe).
    a.mfc0(T2, c0::STATUS);
    a.srl(T3, T2, 2);
    a.andi(T3, T3, 0xc);
    a.li(T4, !0xcu32 as i32);
    a.and(T2, T2, T4);
    a.or(T2, T2, T3);
    a.mtc0(T2, c0::STATUS);
    a.lw(K0, frame_off::reg(27), T6); // original EPC (saved k1)
    a.b("gve_hilo");
    a.nop();
    a.label("gve_keepx");
    a.lw(K0, frame_off::EPC, T6);
    a.label("gve_hilo");
    a.lw(K1, frame_off::HI, T6);
    a.inst(Inst::Mthi { rs: K1 });
    a.lw(K1, frame_off::LO, T6);
    a.inst(Inst::Mtlo { rs: K1 });
    for r in saved_regs() {
        if Reg(r) == XREG1 {
            continue; // handled above (kept live or restored)
        }
        if Reg(r) == T6 {
            continue; // frame base restored last
        }
        a.lw(Reg(r), frame_off::reg(r), T6);
    }
    a.lw(K1, frame_off::reg(27), T6); // the UTLB handler's k1
    a.lw(T6, frame_off::reg(T6.0), T6);
    a.jr(K0);
    a.inst(Inst::Rfe);
    a.label("gve_sched");
    a.j("sched_entry");
    a.nop();

    // ================= dispatch_tail ===============================
    // a0 = process-table entry, already marked running by the
    // scheduler. Writes the context-switch trace words, parks the
    // kernel trace registers, installs the address space and returns
    // to user mode.
    a.global_label("dispatch_tail");
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "dt_notrace");
    a.nop();
    a.lw(T1, proc_off::ASID, A0);
    a.sll(T1, T1, 8);
    a.ori(T1, T1, CtlOp::CtxSwitch as u16);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.li(T2, ctl(CtlOp::KExit, 0) as i32);
    a.sw(T2, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.label("dt_notrace");
    a.la(T3, "k_ktrace_regs");
    a.sw(XREG1, 0, T3);
    // Address space: EntryHi holds the ASID, Context the PTE base.
    a.lw(T4, proc_off::ASID, A0);
    a.sll(T4, T4, 6);
    a.mtc0(T4, c0::ENTRYHI);
    a.lw(T5, proc_off::CONTEXT, A0);
    a.mtc0(T5, c0::CONTEXT);
    // Status: return-to-user (KUp|IEp set), clear cache isolation.
    a.mfc0(T6, c0::STATUS);
    a.li(T7, !0x0001_003fu32 as i32);
    a.and(T6, T6, T7);
    a.ori(T6, T6, 0xc);
    a.mtc0(T6, c0::STATUS);
    // Restore machine state through k1 (a0 itself gets restored).
    a.move_(K1, A0);
    a.lw(K0, proc_off::HI, K1);
    a.inst(Inst::Mthi { rs: K0 });
    a.lw(K0, proc_off::LO, K1);
    a.inst(Inst::Mtlo { rs: K0 });
    a.lw(K0, proc_off::EPC, K1);
    for r in saved_regs() {
        a.lw(Reg(r), proc_off::reg(r), K1);
    }
    a.jr(K0);
    a.inst(Inst::Rfe);

    // ================= khalt =======================================
    // a0 = exit code. Final trace flush, then stop the machine.
    a.global_label("khalt");
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "kh_stop");
    a.nop();
    a.li(T1, ctl(CtlOp::Eof, 0) as i32);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.li(T2, (DEV_BASE_K1 + devregs::TRACE_REQ) as i32);
    a.sw(XREG1, 0, T2);
    a.label("kh_stop");
    a.li(T3, (DEV_BASE_K1 + devregs::HALT) as i32);
    a.sw(A0, 0, T3);
    a.label("kh_spin");
    a.b("kh_spin");
    a.nop();

    // ================= kboot =======================================
    a.global_label("kboot");
    // Invalidate the TLB: distinct unmatched VPNs, all invalid.
    a.li(T0, 0);
    a.label("kb_tlb");
    a.sll(T1, T0, 12);
    a.lui(T2, 0xf000);
    a.or(T1, T1, T2);
    a.mtc0(T1, c0::ENTRYHI);
    a.mtc0(ZERO, c0::ENTRYLO);
    a.sll(T3, T0, 8);
    a.mtc0(T3, c0::INDEX);
    a.inst(Inst::Tlbwi);
    a.addiu(T0, T0, 1);
    a.li(T4, 64);
    a.bne(T0, T4, "kb_tlb");
    a.nop();
    // Trace bookkeeping (values staged by the loader in kernel data).
    a.la(XREG3, "k_ktrace_bk");
    a.la(T0, "k_cfg_soft_end");
    a.lw(T1, 0, T0);
    a.sw(T1, bk::BUF_END, XREG3);
    a.la(T0, "k_cfg_hard_end");
    a.lw(T1, 0, T0);
    a.sw(T1, bk::HARD_END, XREG3);
    a.sw(ZERO, bk::NEED_FLUSH, XREG3);
    a.la(T0, "k_cfg_buf_base");
    a.lw(XREG1, 0, T0);
    a.la(T0, "k_trace_on");
    a.lw(T0, 0, T0);
    a.beq(T0, ZERO, "kb_clk");
    a.nop();
    a.li(T1, ctl(CtlOp::TraceOn, 0) as i32);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    // Boot-time kernel activity runs outside any exception; open a
    // kernel trace context for it (the first dispatch's KExit pops it).
    a.li(T1, ctl(CtlOp::KEnter, 0) as i32);
    a.sw(T1, 0, XREG1);
    a.addiu(XREG1, XREG1, 4);
    a.label("kb_clk");
    // Clock: interval staged by the loader (already dilation-scaled).
    a.la(T0, "k_cfg_clock");
    a.lw(T1, 0, T0);
    a.li(T2, (DEV_BASE_K1 + devregs::CLOCK_INTERVAL) as i32);
    a.sw(T1, 0, T2);
    // Exception-stack pointer.
    a.la(T3, "k_kstack");
    a.la(T4, "k_kstack_ptr");
    a.sw(T3, 0, T4);
    // Unmask clock and disk interrupts (still globally disabled).
    a.li(T5, 0x3000);
    a.mtc0(T5, c0::STATUS);
    a.j("sched_entry");
    a.nop();

    a.end_uninstrumented();
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_isa::link::{link, Layout};

    #[test]
    fn vectors_land_at_architected_offsets() {
        let o = object();
        assert_eq!(o.symbol("__utlb").unwrap().off, 0);
        assert_eq!(o.symbol("__genvec").unwrap().off, 0x80);
    }

    /// What the trace-driven simulator synthesizes on a user-TLB miss
    /// is what this kernel builds: the handler's address and length,
    /// and the page table each ASID's PTE load goes to.
    #[test]
    fn the_simulator_synthesizes_this_refill_handler() {
        use crate::layout;
        use wrl_memsim::utlb;
        let o = object();
        let off = o.symbol("__utlb").unwrap().off;
        assert_eq!(utlb::HANDLER_VADDR, layout::KTEXT_BASE + off);
        let body: Vec<Inst> = o.text[off as usize / 4..0x80 / 4]
            .iter()
            .map(|&w| wrl_isa::decode(w).expect("handler decodes"))
            .collect();
        let (handler, padding) = body.split_at(utlb::N_INSTS as usize);
        assert!(
            matches!(handler, [.., Inst::Jr { .. }, Inst::Rfe]),
            "the handler ends in jr / rfe: {handler:?}"
        );
        assert!(padding.iter().all(|i| *i == Inst::nop()), "nops to 0x80");
        for i in 0..layout::MAX_PROCS {
            assert_eq!(
                utlb::PAGETABLE_BASE + i as u32 * utlb::PAGETABLE_STRIDE,
                layout::pt_kseg2(i)
            );
        }
    }

    #[test]
    fn whole_object_is_uninstrumented() {
        let o = object();
        assert!(o.is_protected(0));
        assert!(o.is_protected(o.text_bytes() - 4));
    }

    #[test]
    fn instrumentation_preserves_vector_offsets() {
        use wrl_epoxie::{instrument_object, Mode, RuntimeSyms};
        let o = object();
        let io = instrument_object(&o, Mode::Modified, &RuntimeSyms::default()).unwrap();
        assert_eq!(io.obj.symbol("__utlb").unwrap().off, 0);
        assert_eq!(io.obj.symbol("__genvec").unwrap().off, 0x80);
        assert_eq!(io.obj.text.len(), o.text.len());
        assert!(io.records.is_empty());
    }

    #[test]
    fn object_links_against_stub_externals() {
        // Link with stub definitions of the externals it references.
        let mut stubs = Asm::new("stubs");
        for s in [
            "gv_dispatch",
            "sched_entry",
            "k_kstack_ptr",
            "k_kstack",
            "k_cur_save",
            "k_trace_on",
            "k_ktrace_bk",
            "k_ktrace_regs",
            "k_cfg_soft_end",
            "k_cfg_hard_end",
            "k_cfg_buf_base",
            "k_cfg_clock",
            "k_bb_base",
            "k_bb_soft",
        ] {
            stubs.global_label(s);
            stubs.nop();
        }
        let l = link(
            &[object(), stubs.finish()],
            Layout {
                text_base: crate::layout::KTEXT_BASE,
                data_base: crate::layout::KDATA_BASE,
            },
            "kboot",
        );
        assert!(l.is_ok(), "{:?}", l.err());
    }
}
