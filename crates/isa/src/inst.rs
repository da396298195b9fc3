//! The W3K instruction set.
//!
//! W3K is a MIPS-I-like 32-bit RISC ISA with branch delay slots, a
//! HI/LO multiply unit, a system control coprocessor (CP0) managing a
//! software-refilled TLB, and a double-precision floating-point
//! coprocessor (CP1). The subset implemented here is the subset the
//! WRL tracing systems depended on: every user-visible instruction the
//! workloads and the kernel need, plus the privileged TLB and
//! exception-return instructions.

use crate::reg::{FReg, Reg};

/// Width of a memory access in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Width {
    /// One byte.
    Byte,
    /// Two bytes (halfword).
    Half,
    /// Four bytes (word).
    Word,
}

impl Width {
    /// Returns the access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }
}

/// A decoded W3K instruction.
///
/// Instructions are stored in simulated memory in their 32-bit binary
/// encoding (see [`mod@crate::encode`]); this enum is the decoded form used
/// by the simulator, the assembler and the instrumentation tools.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Inst {
    // --- Shifts ---
    /// Shift left logical by immediate. `sll rd, rt, sh`.
    Sll { rd: Reg, rt: Reg, sh: u8 },
    /// Shift right logical by immediate.
    Srl { rd: Reg, rt: Reg, sh: u8 },
    /// Shift right arithmetic by immediate.
    Sra { rd: Reg, rt: Reg, sh: u8 },
    /// Shift left logical by register.
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    /// Shift right logical by register.
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    /// Shift right arithmetic by register.
    Srav { rd: Reg, rt: Reg, rs: Reg },

    // --- Three-register ALU ---
    /// Add unsigned (no overflow trap).
    Addu { rd: Reg, rs: Reg, rt: Reg },
    /// Subtract unsigned.
    Subu { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise AND.
    And { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise OR.
    Or { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise XOR.
    Xor { rd: Reg, rs: Reg, rt: Reg },
    /// Bitwise NOR.
    Nor { rd: Reg, rs: Reg, rt: Reg },
    /// Set on less than (signed).
    Slt { rd: Reg, rs: Reg, rt: Reg },
    /// Set on less than (unsigned).
    Sltu { rd: Reg, rs: Reg, rt: Reg },

    // --- Multiply / divide ---
    /// Signed multiply into HI/LO.
    Mult { rs: Reg, rt: Reg },
    /// Unsigned multiply into HI/LO.
    Multu { rs: Reg, rt: Reg },
    /// Signed divide into LO (quotient) / HI (remainder).
    Div { rs: Reg, rt: Reg },
    /// Unsigned divide.
    Divu { rs: Reg, rt: Reg },
    /// Move from HI.
    Mfhi { rd: Reg },
    /// Move from LO.
    Mflo { rd: Reg },
    /// Move to HI.
    Mthi { rs: Reg },
    /// Move to LO.
    Mtlo { rs: Reg },

    // --- Immediate ALU ---
    /// Add immediate unsigned (sign-extended immediate, no trap).
    Addiu { rt: Reg, rs: Reg, imm: i16 },
    /// Set on less than immediate (signed).
    Slti { rt: Reg, rs: Reg, imm: i16 },
    /// Set on less than immediate (unsigned comparison).
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    /// AND with zero-extended immediate.
    Andi { rt: Reg, rs: Reg, imm: u16 },
    /// OR with zero-extended immediate.
    Ori { rt: Reg, rs: Reg, imm: u16 },
    /// XOR with zero-extended immediate.
    Xori { rt: Reg, rs: Reg, imm: u16 },
    /// Load upper immediate.
    Lui { rt: Reg, imm: u16 },

    // --- Loads / stores ---
    /// Load byte (sign-extended).
    Lb { rt: Reg, base: Reg, off: i16 },
    /// Load byte unsigned.
    Lbu { rt: Reg, base: Reg, off: i16 },
    /// Load halfword (sign-extended).
    Lh { rt: Reg, base: Reg, off: i16 },
    /// Load halfword unsigned.
    Lhu { rt: Reg, base: Reg, off: i16 },
    /// Load word.
    Lw { rt: Reg, base: Reg, off: i16 },
    /// Store byte.
    Sb { rt: Reg, base: Reg, off: i16 },
    /// Store halfword.
    Sh { rt: Reg, base: Reg, off: i16 },
    /// Store word.
    Sw { rt: Reg, base: Reg, off: i16 },
    /// Load word to FP coprocessor register.
    Lwc1 { ft: FReg, base: Reg, off: i16 },
    /// Store word from FP coprocessor register.
    Swc1 { ft: FReg, base: Reg, off: i16 },

    // --- Branches (one delay slot each) ---
    /// Branch if equal. `off` is in instructions relative to the delay slot.
    Beq { rs: Reg, rt: Reg, off: i16 },
    /// Branch if not equal.
    Bne { rs: Reg, rt: Reg, off: i16 },
    /// Branch if less than or equal to zero.
    Blez { rs: Reg, off: i16 },
    /// Branch if greater than zero.
    Bgtz { rs: Reg, off: i16 },
    /// Branch if less than zero.
    Bltz { rs: Reg, off: i16 },
    /// Branch if greater than or equal to zero.
    Bgez { rs: Reg, off: i16 },

    // --- Jumps ---
    /// Jump to a 26-bit word target within the current 256 MB region.
    J { target: u32 },
    /// Jump and link: `ra` receives the address after the delay slot.
    Jal { target: u32 },
    /// Jump register.
    Jr { rs: Reg },
    /// Jump and link register.
    Jalr { rd: Reg, rs: Reg },

    // --- Traps ---
    /// System call exception.
    Syscall { code: u32 },
    /// Breakpoint exception.
    Break { code: u32 },

    // --- CP0 (system control) ---
    /// Move from CP0 register `rd`.
    Mfc0 { rt: Reg, rd: u8 },
    /// Move to CP0 register `rd`.
    Mtc0 { rt: Reg, rd: u8 },
    /// Read the TLB entry indexed by CP0 Index.
    Tlbr,
    /// Write the TLB entry indexed by CP0 Index.
    Tlbwi,
    /// Write the TLB entry indexed by CP0 Random.
    Tlbwr,
    /// Probe the TLB for a match with EntryHi.
    Tlbp,
    /// Restore from exception: pop the CP0 status KU/IE stack.
    Rfe,
    /// Cache management: invalidate the line holding `off(base)`.
    ///
    /// `op` 0 invalidates an I-cache line, 1 a D-cache line.
    Cache { op: u8, base: Reg, off: i16 },

    // --- CP1 (floating point, double precision) ---
    /// Move a word from FP register `fs` to GPR `rt`.
    Mfc1 { rt: Reg, fs: FReg },
    /// Move a word from GPR `rt` to FP register `fs`.
    Mtc1 { rt: Reg, fs: FReg },
    /// Double-precision add.
    AddD { fd: FReg, fs: FReg, ft: FReg },
    /// Double-precision subtract.
    SubD { fd: FReg, fs: FReg, ft: FReg },
    /// Double-precision multiply.
    MulD { fd: FReg, fs: FReg, ft: FReg },
    /// Double-precision divide.
    DivD { fd: FReg, fs: FReg, ft: FReg },
    /// Double-precision absolute value.
    AbsD { fd: FReg, fs: FReg },
    /// Double-precision register move.
    MovD { fd: FReg, fs: FReg },
    /// Double-precision negate.
    NegD { fd: FReg, fs: FReg },
    /// Convert word (in `fs`) to double.
    CvtDW { fd: FReg, fs: FReg },
    /// Convert double to word (truncating).
    CvtWD { fd: FReg, fs: FReg },
    /// Compare equal, setting the FP condition bit.
    CEqD { fs: FReg, ft: FReg },
    /// Compare less-than, setting the FP condition bit.
    CLtD { fs: FReg, ft: FReg },
    /// Compare less-or-equal, setting the FP condition bit.
    CLeD { fs: FReg, ft: FReg },
    /// Branch if FP condition true.
    Bc1t { off: i16 },
    /// Branch if FP condition false.
    Bc1f { off: i16 },
}

/// Classification of an instruction's memory behaviour, used by the
/// instrumentation tools and the trace parser.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemClass {
    /// A load from `off(base)`.
    Load { base: Reg, off: i16, width: Width },
    /// A store to `off(base)`.
    Store { base: Reg, off: i16, width: Width },
}

impl Inst {
    /// Returns the canonical no-op (`sll zero, zero, 0`).
    pub const fn nop() -> Inst {
        Inst::Sll {
            rd: Reg(0),
            rt: Reg(0),
            sh: 0,
        }
    }

    /// Returns the memory classification if this is a load or store.
    pub fn mem_class(&self) -> Option<MemClass> {
        use Inst::*;
        Some(match *self {
            Lb { base, off, .. } | Lbu { base, off, .. } => MemClass::Load {
                base,
                off,
                width: Width::Byte,
            },
            Lh { base, off, .. } | Lhu { base, off, .. } => MemClass::Load {
                base,
                off,
                width: Width::Half,
            },
            Lw { base, off, .. } | Lwc1 { base, off, .. } => MemClass::Load {
                base,
                off,
                width: Width::Word,
            },
            Sb { base, off, .. } => MemClass::Store {
                base,
                off,
                width: Width::Byte,
            },
            Sh { base, off, .. } => MemClass::Store {
                base,
                off,
                width: Width::Half,
            },
            Sw { base, off, .. } | Swc1 { base, off, .. } => MemClass::Store {
                base,
                off,
                width: Width::Word,
            },
            _ => return None,
        })
    }

    /// Returns true if this is a conditional branch (PC-relative).
    pub fn is_branch(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Beq { .. }
                | Bne { .. }
                | Blez { .. }
                | Bgtz { .. }
                | Bltz { .. }
                | Bgez { .. }
                | Bc1t { .. }
                | Bc1f { .. }
        )
    }

    /// Returns true if this is any control-transfer instruction
    /// (branch, jump, or trap) that ends a basic block.
    pub fn is_control(&self) -> bool {
        use Inst::*;
        self.is_branch()
            || matches!(
                self,
                J { .. }
                    | Jal { .. }
                    | Jr { .. }
                    | Jalr { .. }
                    | Syscall { .. }
                    | Break { .. }
                    | Rfe
            )
    }

    /// Returns true if the instruction has a branch delay slot.
    pub fn has_delay_slot(&self) -> bool {
        use Inst::*;
        self.is_branch() || matches!(self, J { .. } | Jal { .. } | Jr { .. } | Jalr { .. })
    }

    /// Returns the general-purpose register written by this instruction,
    /// if any.
    pub fn writes_gpr(&self) -> Option<Reg> {
        use Inst::*;
        let r = match *self {
            Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Addu { rd, .. }
            | Subu { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Mfhi { rd }
            | Mflo { rd }
            | Jalr { rd, .. } => rd,
            Addiu { rt, .. }
            | Slti { rt, .. }
            | Sltiu { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lb { rt, .. }
            | Lbu { rt, .. }
            | Lh { rt, .. }
            | Lhu { rt, .. }
            | Lw { rt, .. }
            | Mfc0 { rt, .. }
            | Mfc1 { rt, .. } => rt,
            Jal { .. } => Reg(31),
            _ => return None,
        };
        if r.0 == 0 {
            None
        } else {
            Some(r)
        }
    }

    /// Returns the general-purpose registers read by this instruction.
    pub fn reads_gprs(&self) -> ([Option<Reg>; 2], ()) {
        use Inst::*;
        let rs2 = |a: Reg, b: Reg| ([Some(a), Some(b)], ());
        let rs1 = |a: Reg| ([Some(a), None], ());
        let rs0 = || ([None, None], ());
        match *self {
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => rs1(rt),
            Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => rs2(rs, rt),
            Addu { rs, rt, .. }
            | Subu { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. }
            | Mult { rs, rt }
            | Multu { rs, rt }
            | Div { rs, rt }
            | Divu { rs, rt }
            | Beq { rs, rt, .. }
            | Bne { rs, rt, .. } => rs2(rs, rt),
            Mthi { rs }
            | Mtlo { rs }
            | Jr { rs }
            | Jalr { rs, .. }
            | Blez { rs, .. }
            | Bgtz { rs, .. }
            | Bltz { rs, .. }
            | Bgez { rs, .. } => rs1(rs),
            Addiu { rs, .. }
            | Slti { rs, .. }
            | Sltiu { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. } => rs1(rs),
            Lb { base, .. }
            | Lbu { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lw { base, .. }
            | Lwc1 { base, .. }
            | Cache { base, .. } => rs1(base),
            Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => rs2(base, rt),
            Swc1 { base, .. } => rs1(base),
            Mtc0 { rt, .. } | Mtc1 { rt, .. } => rs1(rt),
            _ => rs0(),
        }
    }

    /// Returns true if the instruction reads general-purpose register `r`.
    pub fn reads_gpr(&self, r: Reg) -> bool {
        let ([a, b], ()) = self.reads_gprs();
        a == Some(r) || b == Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    #[test]
    fn nop_is_not_control() {
        assert!(!Inst::nop().is_control());
        assert!(Inst::nop().mem_class().is_none());
    }

    #[test]
    fn mem_class_widths() {
        let i = Inst::Lw {
            rt: T0,
            base: SP,
            off: 4,
        };
        assert_eq!(
            i.mem_class(),
            Some(MemClass::Load {
                base: SP,
                off: 4,
                width: Width::Word
            })
        );
        let s = Inst::Sb {
            rt: T0,
            base: A0,
            off: -1,
        };
        assert!(matches!(s.mem_class(), Some(MemClass::Store { .. })));
    }

    #[test]
    fn jal_writes_ra() {
        assert_eq!(Inst::Jal { target: 0 }.writes_gpr(), Some(RA));
        assert_eq!(Inst::Jalr { rd: RA, rs: T9 }.writes_gpr(), Some(RA));
    }

    #[test]
    fn control_classification() {
        assert!(Inst::J { target: 0 }.is_control());
        assert!(Inst::J { target: 0 }.has_delay_slot());
        assert!(Inst::Syscall { code: 0 }.is_control());
        assert!(!Inst::Syscall { code: 0 }.has_delay_slot());
        assert!(Inst::Bc1t { off: -2 }.is_branch());
    }

    #[test]
    fn store_reads_base_and_value() {
        let s = Inst::Sw {
            rt: RA,
            base: SP,
            off: 20,
        };
        assert!(s.reads_gpr(RA));
        assert!(s.reads_gpr(SP));
        assert!(!s.reads_gpr(T0));
    }

    #[test]
    fn writes_to_zero_are_discarded() {
        let i = Inst::Addiu {
            rt: ZERO,
            rs: ZERO,
            imm: 4,
        };
        assert_eq!(i.writes_gpr(), None);
    }
}
