//! Binary encoding and decoding of W3K instructions.
//!
//! The encodings follow MIPS-I: a 6-bit major opcode, with `SPECIAL`
//! (0) and `REGIMM` (1) subdecodes and coprocessor opcodes for CP0 and
//! CP1. Code lives in simulated memory in this 32-bit form; the
//! `memtrace` runtime routine relies on being able to *partially*
//! decode the instruction in its caller's delay slot to find the base
//! register and offset of a memory reference, exactly as the paper's
//! memtrace does (§3.2).

use crate::inst::Inst;
use crate::reg::{FReg, Reg};

/// Error produced when a word does not decode to a valid instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The undecodable instruction word.
    pub word: u32,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "reserved instruction {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

// Major opcodes.
const OP_SPECIAL: u32 = 0;
const OP_REGIMM: u32 = 1;
const OP_J: u32 = 2;
const OP_JAL: u32 = 3;
const OP_BEQ: u32 = 4;
const OP_BNE: u32 = 5;
const OP_BLEZ: u32 = 6;
const OP_BGTZ: u32 = 7;
const OP_ADDIU: u32 = 9;
const OP_SLTI: u32 = 10;
const OP_SLTIU: u32 = 11;
const OP_ANDI: u32 = 12;
const OP_ORI: u32 = 13;
const OP_XORI: u32 = 14;
const OP_LUI: u32 = 15;
const OP_COP0: u32 = 16;
const OP_COP1: u32 = 17;
const OP_LB: u32 = 32;
const OP_LH: u32 = 33;
const OP_LW: u32 = 35;
const OP_LBU: u32 = 36;
const OP_LHU: u32 = 37;
const OP_SB: u32 = 40;
const OP_SH: u32 = 41;
const OP_SW: u32 = 43;
const OP_CACHE: u32 = 47;
const OP_LWC1: u32 = 49;
const OP_SWC1: u32 = 57;

// SPECIAL function codes.
const F_SLL: u32 = 0;
const F_SRL: u32 = 2;
const F_SRA: u32 = 3;
const F_SLLV: u32 = 4;
const F_SRLV: u32 = 6;
const F_SRAV: u32 = 7;
const F_JR: u32 = 8;
const F_JALR: u32 = 9;
const F_SYSCALL: u32 = 12;
const F_BREAK: u32 = 13;
const F_MFHI: u32 = 16;
const F_MTHI: u32 = 17;
const F_MFLO: u32 = 18;
const F_MTLO: u32 = 19;
const F_MULT: u32 = 24;
const F_MULTU: u32 = 25;
const F_DIV: u32 = 26;
const F_DIVU: u32 = 27;
const F_ADDU: u32 = 33;
const F_SUBU: u32 = 35;
const F_AND: u32 = 36;
const F_OR: u32 = 37;
const F_XOR: u32 = 38;
const F_NOR: u32 = 39;
const F_SLT: u32 = 42;
const F_SLTU: u32 = 43;

// CP1 (double format) function codes.
const FD_ADD: u32 = 0;
const FD_SUB: u32 = 1;
const FD_MUL: u32 = 2;
const FD_DIV: u32 = 3;
const FD_ABS: u32 = 5;
const FD_MOV: u32 = 6;
const FD_NEG: u32 = 7;
const FD_CVTW: u32 = 36;
const FD_CEQ: u32 = 50;
const FD_CLT: u32 = 60;
const FD_CLE: u32 = 62;

#[inline]
fn rtype(op: u32, rs: u32, rt: u32, rd: u32, sh: u32, f: u32) -> u32 {
    (op << 26) | (rs << 21) | (rt << 16) | (rd << 11) | (sh << 6) | f
}

#[inline]
fn itype(op: u32, rs: u32, rt: u32, imm: u32) -> u32 {
    (op << 26) | (rs << 21) | (rt << 16) | (imm & 0xffff)
}

/// Encodes an instruction to its 32-bit binary form.
pub fn encode(inst: Inst) -> u32 {
    use Inst::*;
    let r = |r: Reg| r.0 as u32;
    let f = |f: FReg| f.0 as u32;
    match inst {
        Sll { rd, rt, sh } => rtype(OP_SPECIAL, 0, r(rt), r(rd), sh as u32, F_SLL),
        Srl { rd, rt, sh } => rtype(OP_SPECIAL, 0, r(rt), r(rd), sh as u32, F_SRL),
        Sra { rd, rt, sh } => rtype(OP_SPECIAL, 0, r(rt), r(rd), sh as u32, F_SRA),
        Sllv { rd, rt, rs } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SLLV),
        Srlv { rd, rt, rs } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SRLV),
        Srav { rd, rt, rs } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SRAV),
        Addu { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_ADDU),
        Subu { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SUBU),
        And { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_AND),
        Or { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_OR),
        Xor { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_XOR),
        Nor { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_NOR),
        Slt { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SLT),
        Sltu { rd, rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), r(rd), 0, F_SLTU),
        Mult { rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), 0, 0, F_MULT),
        Multu { rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), 0, 0, F_MULTU),
        Div { rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), 0, 0, F_DIV),
        Divu { rs, rt } => rtype(OP_SPECIAL, r(rs), r(rt), 0, 0, F_DIVU),
        Mfhi { rd } => rtype(OP_SPECIAL, 0, 0, r(rd), 0, F_MFHI),
        Mflo { rd } => rtype(OP_SPECIAL, 0, 0, r(rd), 0, F_MFLO),
        Mthi { rs } => rtype(OP_SPECIAL, r(rs), 0, 0, 0, F_MTHI),
        Mtlo { rs } => rtype(OP_SPECIAL, r(rs), 0, 0, 0, F_MTLO),
        Jr { rs } => rtype(OP_SPECIAL, r(rs), 0, 0, 0, F_JR),
        Jalr { rd, rs } => rtype(OP_SPECIAL, r(rs), 0, r(rd), 0, F_JALR),
        Syscall { code } => ((code & 0xfffff) << 6) | F_SYSCALL,
        Break { code } => ((code & 0xfffff) << 6) | F_BREAK,
        Addiu { rt, rs, imm } => itype(OP_ADDIU, r(rs), r(rt), imm as u16 as u32),
        Slti { rt, rs, imm } => itype(OP_SLTI, r(rs), r(rt), imm as u16 as u32),
        Sltiu { rt, rs, imm } => itype(OP_SLTIU, r(rs), r(rt), imm as u16 as u32),
        Andi { rt, rs, imm } => itype(OP_ANDI, r(rs), r(rt), imm as u32),
        Ori { rt, rs, imm } => itype(OP_ORI, r(rs), r(rt), imm as u32),
        Xori { rt, rs, imm } => itype(OP_XORI, r(rs), r(rt), imm as u32),
        Lui { rt, imm } => itype(OP_LUI, 0, r(rt), imm as u32),
        Lb { rt, base, off } => itype(OP_LB, r(base), r(rt), off as u16 as u32),
        Lbu { rt, base, off } => itype(OP_LBU, r(base), r(rt), off as u16 as u32),
        Lh { rt, base, off } => itype(OP_LH, r(base), r(rt), off as u16 as u32),
        Lhu { rt, base, off } => itype(OP_LHU, r(base), r(rt), off as u16 as u32),
        Lw { rt, base, off } => itype(OP_LW, r(base), r(rt), off as u16 as u32),
        Sb { rt, base, off } => itype(OP_SB, r(base), r(rt), off as u16 as u32),
        Sh { rt, base, off } => itype(OP_SH, r(base), r(rt), off as u16 as u32),
        Sw { rt, base, off } => itype(OP_SW, r(base), r(rt), off as u16 as u32),
        Lwc1 { ft, base, off } => itype(OP_LWC1, r(base), f(ft), off as u16 as u32),
        Swc1 { ft, base, off } => itype(OP_SWC1, r(base), f(ft), off as u16 as u32),
        Cache { op, base, off } => itype(OP_CACHE, r(base), op as u32, off as u16 as u32),
        Beq { rs, rt, off } => itype(OP_BEQ, r(rs), r(rt), off as u16 as u32),
        Bne { rs, rt, off } => itype(OP_BNE, r(rs), r(rt), off as u16 as u32),
        Blez { rs, off } => itype(OP_BLEZ, r(rs), 0, off as u16 as u32),
        Bgtz { rs, off } => itype(OP_BGTZ, r(rs), 0, off as u16 as u32),
        Bltz { rs, off } => itype(OP_REGIMM, r(rs), 0, off as u16 as u32),
        Bgez { rs, off } => itype(OP_REGIMM, r(rs), 1, off as u16 as u32),
        J { target } => (OP_J << 26) | (target & 0x03ff_ffff),
        Jal { target } => (OP_JAL << 26) | (target & 0x03ff_ffff),
        Mfc0 { rt, rd } => rtype(OP_COP0, 0, r(rt), rd as u32, 0, 0),
        Mtc0 { rt, rd } => rtype(OP_COP0, 4, r(rt), rd as u32, 0, 0),
        Tlbr => (OP_COP0 << 26) | (1 << 25) | 1,
        Tlbwi => (OP_COP0 << 26) | (1 << 25) | 2,
        Tlbwr => (OP_COP0 << 26) | (1 << 25) | 6,
        Tlbp => (OP_COP0 << 26) | (1 << 25) | 8,
        Rfe => (OP_COP0 << 26) | (1 << 25) | 16,
        Mfc1 { rt, fs } => rtype(OP_COP1, 0, r(rt), f(fs), 0, 0),
        Mtc1 { rt, fs } => rtype(OP_COP1, 4, r(rt), f(fs), 0, 0),
        Bc1t { off } => itype(OP_COP1, 8, 1, off as u16 as u32),
        Bc1f { off } => itype(OP_COP1, 8, 0, off as u16 as u32),
        AddD { fd, fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), f(fd), FD_ADD),
        SubD { fd, fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), f(fd), FD_SUB),
        MulD { fd, fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), f(fd), FD_MUL),
        DivD { fd, fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), f(fd), FD_DIV),
        AbsD { fd, fs } => rtype(OP_COP1, 17, 0, f(fs), f(fd), FD_ABS),
        MovD { fd, fs } => rtype(OP_COP1, 17, 0, f(fs), f(fd), FD_MOV),
        NegD { fd, fs } => rtype(OP_COP1, 17, 0, f(fs), f(fd), FD_NEG),
        CvtWD { fd, fs } => rtype(OP_COP1, 17, 0, f(fs), f(fd), FD_CVTW),
        CEqD { fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), 0, FD_CEQ),
        CLtD { fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), 0, FD_CLT),
        CLeD { fs, ft } => rtype(OP_COP1, 17, f(ft), f(fs), 0, FD_CLE),
        CvtDW { fd, fs } => rtype(OP_COP1, 20, 0, f(fs), f(fd), 33),
    }
}

/// Decodes a 32-bit word to an instruction.
///
/// Returns [`DecodeError`] for reserved encodings, which the simulator
/// turns into a Reserved Instruction exception.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    use Inst::*;
    let op = word >> 26;
    let rs = Reg(((word >> 21) & 31) as u8);
    let rt = Reg(((word >> 16) & 31) as u8);
    let rd = Reg(((word >> 11) & 31) as u8);
    let sh = ((word >> 6) & 31) as u8;
    let imm = word as u16 as i16;
    let uimm = word as u16;
    let err = Err(DecodeError { word });
    Ok(match op {
        OP_SPECIAL => match word & 63 {
            F_SLL => Sll { rd, rt, sh },
            F_SRL => Srl { rd, rt, sh },
            F_SRA => Sra { rd, rt, sh },
            F_SLLV => Sllv { rd, rt, rs },
            F_SRLV => Srlv { rd, rt, rs },
            F_SRAV => Srav { rd, rt, rs },
            F_JR => Jr { rs },
            F_JALR => Jalr { rd, rs },
            F_SYSCALL => Syscall {
                code: (word >> 6) & 0xfffff,
            },
            F_BREAK => Break {
                code: (word >> 6) & 0xfffff,
            },
            F_MFHI => Mfhi { rd },
            F_MTHI => Mthi { rs },
            F_MFLO => Mflo { rd },
            F_MTLO => Mtlo { rs },
            F_MULT => Mult { rs, rt },
            F_MULTU => Multu { rs, rt },
            F_DIV => Div { rs, rt },
            F_DIVU => Divu { rs, rt },
            F_ADDU => Addu { rd, rs, rt },
            F_SUBU => Subu { rd, rs, rt },
            F_AND => And { rd, rs, rt },
            F_OR => Or { rd, rs, rt },
            F_XOR => Xor { rd, rs, rt },
            F_NOR => Nor { rd, rs, rt },
            F_SLT => Slt { rd, rs, rt },
            F_SLTU => Sltu { rd, rs, rt },
            _ => return err,
        },
        OP_REGIMM => match rt.0 {
            0 => Bltz { rs, off: imm },
            1 => Bgez { rs, off: imm },
            _ => return err,
        },
        OP_J => J {
            target: word & 0x03ff_ffff,
        },
        OP_JAL => Jal {
            target: word & 0x03ff_ffff,
        },
        OP_BEQ => Beq { rs, rt, off: imm },
        OP_BNE => Bne { rs, rt, off: imm },
        OP_BLEZ => Blez { rs, off: imm },
        OP_BGTZ => Bgtz { rs, off: imm },
        OP_ADDIU => Addiu { rt, rs, imm },
        OP_SLTI => Slti { rt, rs, imm },
        OP_SLTIU => Sltiu { rt, rs, imm },
        OP_ANDI => Andi { rt, rs, imm: uimm },
        OP_ORI => Ori { rt, rs, imm: uimm },
        OP_XORI => Xori { rt, rs, imm: uimm },
        OP_LUI => Lui { rt, imm: uimm },
        OP_LB => Lb {
            rt,
            base: rs,
            off: imm,
        },
        OP_LH => Lh {
            rt,
            base: rs,
            off: imm,
        },
        OP_LW => Lw {
            rt,
            base: rs,
            off: imm,
        },
        OP_LBU => Lbu {
            rt,
            base: rs,
            off: imm,
        },
        OP_LHU => Lhu {
            rt,
            base: rs,
            off: imm,
        },
        OP_SB => Sb {
            rt,
            base: rs,
            off: imm,
        },
        OP_SH => Sh {
            rt,
            base: rs,
            off: imm,
        },
        OP_SW => Sw {
            rt,
            base: rs,
            off: imm,
        },
        OP_CACHE => Cache {
            op: rt.0,
            base: rs,
            off: imm,
        },
        OP_LWC1 => Lwc1 {
            ft: FReg(rt.0),
            base: rs,
            off: imm,
        },
        OP_SWC1 => Swc1 {
            ft: FReg(rt.0),
            base: rs,
            off: imm,
        },
        OP_COP0 => {
            if word & (1 << 25) != 0 {
                match word & 63 {
                    1 => Tlbr,
                    2 => Tlbwi,
                    6 => Tlbwr,
                    8 => Tlbp,
                    16 => Rfe,
                    _ => return err,
                }
            } else {
                match rs.0 {
                    0 => Mfc0 { rt, rd: rd.0 },
                    4 => Mtc0 { rt, rd: rd.0 },
                    _ => return err,
                }
            }
        }
        OP_COP1 => match rs.0 {
            0 => Mfc1 { rt, fs: FReg(rd.0) },
            4 => Mtc1 { rt, fs: FReg(rd.0) },
            8 => match rt.0 {
                0 => Bc1f { off: imm },
                1 => Bc1t { off: imm },
                _ => return err,
            },
            17 => {
                let ft = FReg(rt.0);
                let fs = FReg(rd.0);
                let fd = FReg(sh);
                match word & 63 {
                    FD_ADD => AddD { fd, fs, ft },
                    FD_SUB => SubD { fd, fs, ft },
                    FD_MUL => MulD { fd, fs, ft },
                    FD_DIV => DivD { fd, fs, ft },
                    FD_ABS => AbsD { fd, fs },
                    FD_MOV => MovD { fd, fs },
                    FD_NEG => NegD { fd, fs },
                    FD_CVTW => CvtWD { fd, fs },
                    FD_CEQ => CEqD { fs, ft },
                    FD_CLT => CLtD { fs, ft },
                    FD_CLE => CLeD { fs, ft },
                    _ => return err,
                }
            }
            20 => match word & 63 {
                33 => CvtDW {
                    fd: FReg(sh),
                    fs: FReg(rd.0),
                },
                _ => return err,
            },
            _ => return err,
        },
        _ => return err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_encodes_to_zero() {
        assert_eq!(encode(Inst::nop()), 0);
        assert_eq!(decode(0).unwrap(), Inst::nop());
    }

    #[test]
    fn reserved_word_fails() {
        assert!(decode(0xffff_ffff).is_err());
        // Major opcode 8 (ADDI with overflow trap) is not implemented.
        assert!(decode(8 << 26).is_err());
    }
}
