//! The system control coprocessor (CP0).
//!
//! Implements the R3000-style register file the kernels program: the
//! three-deep kernel/user + interrupt-enable stack in Status (pushed
//! on exception, popped by `rfe`), the Cause register with its
//! branch-delay bit, EPC, BadVAddr, Context (for the UTLB handler's
//! one-load page-table walk) and the EntryHi/EntryLo/Index TLB
//! interface registers.

/// CP0 register numbers (as used by `mfc0`/`mtc0`).
pub mod reg {
    /// TLB index for `tlbwi`/`tlbr`.
    pub const INDEX: u8 = 0;
    /// Random replacement index (read-only).
    pub const RANDOM: u8 = 1;
    /// TLB entry low half.
    pub const ENTRYLO: u8 = 2;
    /// Page-table base + VPN shortcut for the UTLB handler.
    pub const CONTEXT: u8 = 4;
    /// Faulting virtual address.
    pub const BADVADDR: u8 = 8;
    /// Status: KU/IE stack, interrupt mask, cache isolate.
    pub const STATUS: u8 = 12;
    /// Cause: exception code, pending interrupts, branch-delay bit.
    pub const CAUSE: u8 = 13;
    /// Exception program counter.
    pub const EPC: u8 = 14;
    /// TLB entry high half (VPN + ASID).
    pub const ENTRYHI: u8 = 10;
    /// Processor revision identifier (read-only).
    pub const PRID: u8 = 15;
}

/// Exception codes, as stored in Cause bits 6:2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExcCode {
    /// External interrupt.
    Int = 0,
    /// TLB modification (store to a clean page).
    Mod = 1,
    /// TLB miss or invalid on a load or instruction fetch.
    TlbL = 2,
    /// TLB miss or invalid on a store.
    TlbS = 3,
    /// Address error on load/fetch (misaligned or privilege).
    AdEL = 4,
    /// Address error on store.
    AdES = 5,
    /// System call.
    Sys = 8,
    /// Breakpoint.
    Bp = 9,
    /// Reserved instruction.
    RI = 10,
    /// Coprocessor unusable.
    CpU = 11,
    /// Arithmetic overflow.
    Ovf = 12,
}

/// An exception with its associated fault address, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exception {
    /// The exception code.
    pub code: ExcCode,
    /// BadVAddr for address-related exceptions.
    pub badvaddr: Option<u32>,
    /// True if this TLB miss should use the UTLB refill vector
    /// (a user-segment miss, §4.1).
    pub utlb: bool,
}

impl Exception {
    /// Creates an exception with no fault address.
    pub fn plain(code: ExcCode) -> Exception {
        Exception {
            code,
            badvaddr: None,
            utlb: false,
        }
    }

    /// Creates an address-fault exception.
    pub fn addr(code: ExcCode, badvaddr: u32, utlb: bool) -> Exception {
        Exception {
            code,
            badvaddr: Some(badvaddr),
            utlb,
        }
    }
}

// Status register bits.
const ST_IEC: u32 = 1 << 0;
const ST_KUC: u32 = 1 << 1;
const ST_STACK_MASK: u32 = 0x3f; // KU/IE c,p,o
/// Isolate-cache bit: while set, instruction fetches bypass the cache
/// (the mechanism behind the Mach 3.0 flush bug of §4.4).
pub const ST_ISC: u32 = 1 << 16;
/// Interrupt-mask field base (IM0 at bit 8).
pub const ST_IM_SHIFT: u32 = 8;

/// Cause register branch-delay bit.
pub const CAUSE_BD: u32 = 1 << 31;

/// The CP0 register file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cp0 {
    /// Status register.
    pub status: u32,
    /// Cause register (IP bits maintained by the machine's devices).
    pub cause: u32,
    /// Exception PC.
    pub epc: u32,
    /// Faulting address of the last address exception.
    pub badvaddr: u32,
    /// EntryHi (VPN + current ASID).
    pub entryhi: u32,
    /// EntryLo.
    pub entrylo: u32,
    /// Index for indexed TLB ops.
    pub index: u32,
    /// Context: page-table base (bits 31:21) | faulting VPN slot.
    pub context: u32,
}

impl Default for Cp0 {
    fn default() -> Self {
        Self::new()
    }
}

impl Cp0 {
    /// Creates a CP0 in the boot state: kernel mode, interrupts off.
    pub fn new() -> Cp0 {
        Cp0 {
            status: 0,
            cause: 0,
            epc: 0,
            badvaddr: 0,
            entryhi: 0,
            entrylo: 0,
            index: 0,
            context: 0,
        }
    }

    /// True if the processor is currently in user mode.
    #[inline]
    pub fn user_mode(&self) -> bool {
        self.status & ST_KUC != 0
    }

    /// True if interrupts are currently enabled.
    #[inline]
    pub fn interrupts_enabled(&self) -> bool {
        self.status & ST_IEC != 0
    }

    /// True if the cache-isolate bit is set.
    #[inline]
    pub fn cache_isolated(&self) -> bool {
        self.status & ST_ISC != 0
    }

    /// Current address-space identifier (EntryHi ASID field).
    #[inline]
    pub fn asid(&self) -> u8 {
        ((self.entryhi >> 6) & 63) as u8
    }

    /// Everything in this register file an instruction fetch reads,
    /// in one word: EntryHi's ASID with Status' KUc and IsC.
    #[inline]
    pub(crate) fn fetch_ctx(&self) -> u32 {
        (self.entryhi & 0xfc0) | (self.status & (ST_KUC | ST_ISC))
    }

    /// The set of pending, enabled interrupt lines.
    #[inline]
    pub fn pending_interrupts(&self) -> u32 {
        let im = (self.status >> ST_IM_SHIFT) & 0xff;
        let ip = (self.cause >> 8) & 0xff;
        im & ip
    }

    /// Raises (or clears) external interrupt line `line` (0..5 mapped
    /// to IP2..IP7).
    pub fn set_hw_interrupt(&mut self, line: u32, asserted: bool) {
        let bit = 1 << (8 + 2 + line);
        if asserted {
            self.cause |= bit;
        } else {
            self.cause &= !bit;
        }
    }

    /// Enters an exception: pushes the KU/IE stack (to kernel mode,
    /// interrupts disabled), records EPC/Cause/BadVAddr/Context.
    pub fn enter_exception(&mut self, exc: Exception, epc: u32, in_delay_slot: bool) {
        let stack = self.status & ST_STACK_MASK;
        self.status = (self.status & !ST_STACK_MASK) | ((stack << 2) & ST_STACK_MASK);
        self.cause = (self.cause & !0x7c) | ((exc.code as u32) << 2);
        if in_delay_slot {
            self.cause |= CAUSE_BD;
        } else {
            self.cause &= !CAUSE_BD;
        }
        self.epc = epc;
        if let Some(bv) = exc.badvaddr {
            self.badvaddr = bv;
            // Context: preserve the PTE base, fill the VPN slot so the
            // UTLB handler can do its one-load walk.
            self.context = (self.context & 0xffe0_0000) | (((bv >> 12) << 2) & 0x001f_fffc);
            self.entryhi = (self.entryhi & 0xfff) | (bv & 0xffff_f000);
        }
    }

    /// Returns from exception: pops the KU/IE stack (`rfe`).
    pub fn rfe(&mut self) {
        let stack = self.status & ST_STACK_MASK;
        self.status = (self.status & !0xf) | ((stack >> 2) & 0xf);
    }

    /// Reads a CP0 register by number (Random supplied by caller).
    pub fn read(&self, r: u8, random: u32) -> u32 {
        match r {
            reg::INDEX => self.index,
            reg::RANDOM => random << 8,
            reg::ENTRYLO => self.entrylo,
            reg::CONTEXT => self.context,
            reg::BADVADDR => self.badvaddr,
            reg::STATUS => self.status,
            reg::CAUSE => self.cause,
            reg::EPC => self.epc,
            reg::ENTRYHI => self.entryhi,
            reg::PRID => 0x0230, // W3K revision 3.0
            _ => 0,
        }
    }

    /// Writes a CP0 register by number.
    pub fn write(&mut self, r: u8, v: u32) {
        match r {
            reg::INDEX => self.index = v,
            reg::ENTRYLO => self.entrylo = v,
            reg::CONTEXT => self.context = (self.context & 0x001f_fffc) | (v & 0xffe0_0000),
            reg::STATUS => self.status = v,
            reg::CAUSE => {
                // Only the two software-interrupt bits are writable.
                self.cause = (self.cause & !0x300) | (v & 0x300);
            }
            reg::EPC => self.epc = v,
            reg::ENTRYHI => self.entryhi = v,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_pushes_and_rfe_pops() {
        let mut c = Cp0::new();
        // User mode, interrupts on.
        c.status = ST_KUC | ST_IEC;
        assert!(c.user_mode());
        c.enter_exception(Exception::plain(ExcCode::Sys), 0x400100, false);
        assert!(!c.user_mode());
        assert!(!c.interrupts_enabled());
        assert_eq!(c.epc, 0x400100);
        assert_eq!((c.cause >> 2) & 31, ExcCode::Sys as u32);
        c.rfe();
        assert!(c.user_mode());
        assert!(c.interrupts_enabled());
    }

    #[test]
    fn nested_exception_three_deep() {
        let mut c = Cp0::new();
        c.status = ST_KUC | ST_IEC;
        c.enter_exception(Exception::plain(ExcCode::Int), 0x1000, false);
        c.enter_exception(Exception::plain(ExcCode::TlbL), 0x80001000, false);
        assert!(!c.user_mode());
        c.rfe();
        assert!(!c.user_mode()); // back in first handler
        c.rfe();
        assert!(c.user_mode()); // back to user
    }

    #[test]
    fn badvaddr_fills_context_and_entryhi() {
        let mut c = Cp0::new();
        c.context = 0x8040_0000; // PTE base
        c.enter_exception(
            Exception::addr(ExcCode::TlbL, 0x0012_3456, true),
            0x400,
            false,
        );
        assert_eq!(c.badvaddr, 0x0012_3456);
        assert_eq!(c.context & 0xffe0_0000, 0x8040_0000);
        assert_eq!((c.context >> 2) & 0x7ffff, 0x0012_3456 >> 12);
        assert_eq!(c.entryhi & 0xffff_f000, 0x0012_3000);
    }

    #[test]
    fn bd_bit_set_in_delay_slot() {
        let mut c = Cp0::new();
        c.enter_exception(Exception::plain(ExcCode::Bp), 0x500, true);
        assert!(c.cause & CAUSE_BD != 0);
        c.enter_exception(Exception::plain(ExcCode::Bp), 0x500, false);
        assert!(c.cause & CAUSE_BD == 0);
    }

    #[test]
    fn interrupt_masking() {
        let mut c = Cp0::new();
        c.set_hw_interrupt(3, true); // IP5
        assert_eq!(c.pending_interrupts(), 0);
        c.status |= 1 << (8 + 5); // unmask IM5
        assert_ne!(c.pending_interrupts(), 0);
        c.set_hw_interrupt(3, false);
        assert_eq!(c.pending_interrupts(), 0);
    }
}
