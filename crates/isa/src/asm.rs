//! An embedded assembler for W3K.
//!
//! Programs — the twelve workloads, the kernels and the tracing
//! runtime — are written in Rust against this builder API, which plays
//! the role of the Mahler/MIPS assembler: it records labels as
//! symbols, emits relocations for every branch, jump and address
//! constant, and carries the supplementary side tables (basic-block
//! flags, uninstrumentable ranges) that the link-time instrumenter
//! needs.
//!
//! # Examples
//!
//! ```
//! use wrl_isa::asm::Asm;
//! use wrl_isa::reg::*;
//!
//! let mut a = Asm::new("demo");
//! a.global("main");
//! a.label("main");
//! a.li(T0, 10);
//! a.label("loop");
//! a.addiu(T0, T0, -1);
//! a.bne(T0, ZERO, "loop");
//! a.nop(); // delay slot
//! a.jr(RA);
//! a.nop();
//! let obj = a.finish();
//! assert!(obj.symbol("main").is_some());
//! ```

use crate::encode::encode;
use crate::inst::Inst;
use crate::obj::{Object, Reloc, RelocKind, SecId, Symbol, TextRange};
use crate::reg::{FReg, Reg, AT, RA, ZERO};

/// Assembler state building one [`Object`].
pub struct Asm {
    obj: Object,
    cur: SecId,
    uninstr_open: Option<u32>,
    hand_open: Option<u32>,
}

impl Asm {
    /// Creates a new assembler for an object named `name`, positioned
    /// in the text section.
    pub fn new(name: &str) -> Asm {
        Asm {
            obj: Object::new(name),
            cur: SecId::Text,
            uninstr_open: None,
            hand_open: None,
        }
    }

    /// Switches to the text section.
    pub fn text(&mut self) {
        self.cur = SecId::Text;
    }

    /// Switches to the data section.
    pub fn data(&mut self) {
        self.cur = SecId::Data;
    }

    /// Current byte offset in the active section.
    pub fn here(&self) -> u32 {
        match self.cur {
            SecId::Text => self.obj.text_bytes(),
            SecId::Data => self.obj.data.len() as u32,
            SecId::Bss => self.obj.bss_size,
        }
    }

    /// Defines a label at the current position (a local symbol, unless
    /// previously marked global with [`Asm::global`]).
    pub fn label(&mut self, name: &str) {
        let (sec, off) = (self.cur, self.here());
        if let Some(s) = self
            .obj
            .symbols
            .iter_mut()
            .find(|s| s.name == name && s.off == u32::MAX)
        {
            // Resolve a forward `global` declaration.
            s.sec = sec;
            s.off = off;
            return;
        }
        self.obj.symbols.push(Symbol {
            name: name.to_string(),
            sec,
            off,
            global: false,
        });
    }

    /// Marks a previously- or subsequently-defined label as global.
    pub fn global(&mut self, name: &str) {
        if let Some(s) = self.obj.symbols.iter_mut().find(|s| s.name == name) {
            s.global = true;
        } else {
            // Remember the request; applied when the label appears.
            self.obj.symbols.push(Symbol {
                name: name.to_string(),
                sec: SecId::Text,
                off: u32::MAX,
                global: true,
            });
        }
    }

    /// Defines a global label at the current position.
    pub fn global_label(&mut self, name: &str) {
        let here = self.here();
        let cur = self.cur;
        if let Some(s) = self.obj.symbols.iter_mut().find(|s| s.name == name) {
            s.sec = cur;
            s.off = here;
            s.global = true;
        } else {
            self.obj.symbols.push(Symbol {
                name: name.to_string(),
                sec: cur,
                off: here,
                global: true,
            });
        }
    }

    /// Opens an uninstrumented region: epoxie will not rewrite the
    /// instructions emitted until [`Asm::end_uninstrumented`].
    pub fn begin_uninstrumented(&mut self) {
        assert!(self.uninstr_open.is_none(), "uninstrumented region open");
        self.uninstr_open = Some(self.here());
    }

    /// Closes the uninstrumented region opened previously.
    pub fn end_uninstrumented(&mut self) {
        let start = self
            .uninstr_open
            .take()
            .expect("no uninstrumented region open");
        let end = self.here();
        self.obj.uninstrumented.push(TextRange { start, end });
    }

    /// Opens a hand-traced region (left alone by epoxie; its trace
    /// records are emitted by hand-written code inside the region).
    pub fn begin_hand_traced(&mut self) {
        assert!(self.hand_open.is_none(), "hand-traced region open");
        self.hand_open = Some(self.here());
    }

    /// Closes the hand-traced region opened previously.
    pub fn end_hand_traced(&mut self) {
        let start = self.hand_open.take().expect("no hand-traced region open");
        let end = self.here();
        self.obj.hand_traced.push(TextRange { start, end });
    }

    /// Flags the basic block starting here as beginning idle-loop
    /// execution (instruction counting, §3.5).
    pub fn mark_idle_start(&mut self) {
        let off = self.here();
        self.obj.bb_flags.entry(off).or_default().idle_start = true;
    }

    /// Flags the basic block starting here as ending idle-loop
    /// execution.
    pub fn mark_idle_stop(&mut self) {
        let off = self.here();
        self.obj.bb_flags.entry(off).or_default().idle_stop = true;
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, i: Inst) {
        assert_eq!(self.cur, SecId::Text, "instructions only in .text");
        self.obj.text.push(encode(i));
    }

    fn text_reloc(&mut self, kind: RelocKind, sym: &str, addend: i32) {
        let off = self.here();
        self.obj.text_relocs.push(Reloc {
            off,
            kind,
            sym: sym.to_string(),
            addend,
        });
    }

    // ---- data directives ----

    /// Aligns the data section to a 4-byte boundary.
    pub fn align4(&mut self) {
        assert_eq!(self.cur, SecId::Data);
        while !self.obj.data.len().is_multiple_of(4) {
            self.obj.data.push(0);
        }
    }

    /// Emits a 32-bit little-endian word in the data section.
    pub fn word(&mut self, w: u32) {
        assert_eq!(self.cur, SecId::Data);
        self.obj.data.extend_from_slice(&w.to_le_bytes());
    }

    /// Emits a word holding the address of `sym + addend`.
    pub fn word_sym(&mut self, sym: &str, addend: i32) {
        assert_eq!(self.cur, SecId::Data);
        let off = self.obj.data.len() as u32;
        self.obj.data_relocs.push(Reloc {
            off,
            kind: RelocKind::Word32,
            sym: sym.to_string(),
            addend,
        });
        self.word(0);
    }

    /// Emits raw bytes in the data section.
    pub fn bytes(&mut self, b: &[u8]) {
        assert_eq!(self.cur, SecId::Data);
        self.obj.data.extend_from_slice(b);
    }

    /// Emits a NUL-terminated string in the data section.
    pub fn asciiz(&mut self, s: &str) {
        assert_eq!(self.cur, SecId::Data);
        self.obj.data.extend_from_slice(s.as_bytes());
        self.obj.data.push(0);
    }

    /// Reserves `n` zeroed bytes in the data section.
    pub fn space(&mut self, n: u32) {
        assert_eq!(self.cur, SecId::Data);
        self.obj.data.resize(self.obj.data.len() + n as usize, 0);
    }

    /// Reserves `n` bytes of bss and labels them `name`.
    pub fn bss(&mut self, name: &str, n: u32) {
        let off = self.obj.bss_size;
        self.obj.symbols.push(Symbol {
            name: name.to_string(),
            sec: SecId::Bss,
            off,
            global: false,
        });
        self.obj.bss_size += (n + 3) & !3;
    }

    // ---- pseudo-instructions ----

    /// `nop`.
    pub fn nop(&mut self) {
        self.inst(Inst::nop());
    }

    /// Loads a 32-bit constant into `rt` (one or two instructions).
    pub fn li(&mut self, rt: Reg, v: i32) {
        let u = v as u32;
        if (-32768..=32767).contains(&v) {
            self.inst(Inst::Addiu {
                rt,
                rs: ZERO,
                imm: v as i16,
            });
        } else if u <= 0xffff {
            self.inst(Inst::Ori {
                rt,
                rs: ZERO,
                imm: u as u16,
            });
        } else {
            self.inst(Inst::Lui {
                rt,
                imm: (u >> 16) as u16,
            });
            if u & 0xffff != 0 {
                self.inst(Inst::Ori {
                    rt,
                    rs: rt,
                    imm: (u & 0xffff) as u16,
                });
            }
        }
    }

    /// Loads the address of `sym` into `rt` (always two instructions,
    /// with Hi16/Lo16 relocations).
    pub fn la(&mut self, rt: Reg, sym: &str) {
        self.la_off(rt, sym, 0);
    }

    /// Loads the address of `sym + addend` into `rt`.
    pub fn la_off(&mut self, rt: Reg, sym: &str, addend: i32) {
        self.text_reloc(RelocKind::Hi16, sym, addend);
        self.inst(Inst::Lui { rt, imm: 0 });
        self.text_reloc(RelocKind::Lo16, sym, addend);
        self.inst(Inst::Ori { rt, rs: rt, imm: 0 });
    }

    /// `move rd, rs` (`addu rd, rs, zero`).
    pub fn move_(&mut self, rd: Reg, rs: Reg) {
        self.inst(Inst::Addu { rd, rs, rt: ZERO });
    }

    /// Unconditional branch to a label (`beq zero, zero, label`).
    pub fn b(&mut self, label: &str) {
        self.beq(ZERO, ZERO, label);
    }

    // ---- branches and jumps (label-relative, relocated) ----

    /// `beq rs, rt, label`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Beq { rs, rt, off: 0 });
    }

    /// `bne rs, rt, label`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bne { rs, rt, off: 0 });
    }

    /// `blez rs, label`.
    pub fn blez(&mut self, rs: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Blez { rs, off: 0 });
    }

    /// `bgtz rs, label`.
    pub fn bgtz(&mut self, rs: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bgtz { rs, off: 0 });
    }

    /// `bltz rs, label`.
    pub fn bltz(&mut self, rs: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bltz { rs, off: 0 });
    }

    /// `bgez rs, label`.
    pub fn bgez(&mut self, rs: Reg, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bgez { rs, off: 0 });
    }

    /// `bc1t label` (branch if FP condition set).
    pub fn bc1t(&mut self, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bc1t { off: 0 });
    }

    /// `bc1f label`.
    pub fn bc1f(&mut self, label: &str) {
        self.text_reloc(RelocKind::Br16, label, 0);
        self.inst(Inst::Bc1f { off: 0 });
    }

    /// `j label`.
    pub fn j(&mut self, label: &str) {
        self.text_reloc(RelocKind::J26, label, 0);
        self.inst(Inst::J { target: 0 });
    }

    /// `jal label`.
    pub fn jal(&mut self, label: &str) {
        self.text_reloc(RelocKind::J26, label, 0);
        self.inst(Inst::Jal { target: 0 });
    }

    /// `jr rs`.
    pub fn jr(&mut self, rs: Reg) {
        self.inst(Inst::Jr { rs });
    }

    /// `jalr rs` (link register `ra`).
    pub fn jalr(&mut self, rs: Reg) {
        self.inst(Inst::Jalr { rd: RA, rs });
    }

    // ---- plain instruction helpers ----

    /// `addiu rt, rs, imm`.
    pub fn addiu(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.inst(Inst::Addiu { rt, rs, imm });
    }

    /// `addu rd, rs, rt`.
    pub fn addu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Addu { rd, rs, rt });
    }

    /// `subu rd, rs, rt`.
    pub fn subu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Subu { rd, rs, rt });
    }

    /// `and rd, rs, rt`.
    pub fn and(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::And { rd, rs, rt });
    }

    /// `or rd, rs, rt`.
    pub fn or(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Or { rd, rs, rt });
    }

    /// `xor rd, rs, rt`.
    pub fn xor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Xor { rd, rs, rt });
    }

    /// `nor rd, rs, rt`.
    pub fn nor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Nor { rd, rs, rt });
    }

    /// `slt rd, rs, rt`.
    pub fn slt(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Slt { rd, rs, rt });
    }

    /// `sltu rd, rs, rt`.
    pub fn sltu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Sltu { rd, rs, rt });
    }

    /// `slti rt, rs, imm`.
    pub fn slti(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.inst(Inst::Slti { rt, rs, imm });
    }

    /// `sltiu rt, rs, imm`.
    pub fn sltiu(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.inst(Inst::Sltiu { rt, rs, imm });
    }

    /// `andi rt, rs, imm`.
    pub fn andi(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.inst(Inst::Andi { rt, rs, imm });
    }

    /// `ori rt, rs, imm`.
    pub fn ori(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.inst(Inst::Ori { rt, rs, imm });
    }

    /// `xori rt, rs, imm`.
    pub fn xori(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.inst(Inst::Xori { rt, rs, imm });
    }

    /// `lui rt, imm`.
    pub fn lui(&mut self, rt: Reg, imm: u16) {
        self.inst(Inst::Lui { rt, imm });
    }

    /// `sll rd, rt, sh`.
    pub fn sll(&mut self, rd: Reg, rt: Reg, sh: u8) {
        self.inst(Inst::Sll { rd, rt, sh });
    }

    /// `srl rd, rt, sh`.
    pub fn srl(&mut self, rd: Reg, rt: Reg, sh: u8) {
        self.inst(Inst::Srl { rd, rt, sh });
    }

    /// `sra rd, rt, sh`.
    pub fn sra(&mut self, rd: Reg, rt: Reg, sh: u8) {
        self.inst(Inst::Sra { rd, rt, sh });
    }

    /// `sllv rd, rt, rs`.
    pub fn sllv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.inst(Inst::Sllv { rd, rt, rs });
    }

    /// `srlv rd, rt, rs`.
    pub fn srlv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.inst(Inst::Srlv { rd, rt, rs });
    }

    /// `mult rs, rt`.
    pub fn mult(&mut self, rs: Reg, rt: Reg) {
        self.inst(Inst::Mult { rs, rt });
    }

    /// `multu rs, rt`.
    pub fn multu(&mut self, rs: Reg, rt: Reg) {
        self.inst(Inst::Multu { rs, rt });
    }

    /// `div rs, rt`.
    pub fn div(&mut self, rs: Reg, rt: Reg) {
        self.inst(Inst::Div { rs, rt });
    }

    /// `divu rs, rt`.
    pub fn divu(&mut self, rs: Reg, rt: Reg) {
        self.inst(Inst::Divu { rs, rt });
    }

    /// `mfhi rd`.
    pub fn mfhi(&mut self, rd: Reg) {
        self.inst(Inst::Mfhi { rd });
    }

    /// `mflo rd`.
    pub fn mflo(&mut self, rd: Reg) {
        self.inst(Inst::Mflo { rd });
    }

    /// `lw rt, off(base)`.
    pub fn lw(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Lw { rt, base, off });
    }

    /// `lb rt, off(base)`.
    pub fn lb(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Lb { rt, base, off });
    }

    /// `lbu rt, off(base)`.
    pub fn lbu(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Lbu { rt, base, off });
    }

    /// `lh rt, off(base)`.
    pub fn lh(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Lh { rt, base, off });
    }

    /// `lhu rt, off(base)`.
    pub fn lhu(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Lhu { rt, base, off });
    }

    /// `sw rt, off(base)`.
    pub fn sw(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Sw { rt, base, off });
    }

    /// `sb rt, off(base)`.
    pub fn sb(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Sb { rt, base, off });
    }

    /// `sh rt, off(base)`.
    pub fn sh(&mut self, rt: Reg, off: i16, base: Reg) {
        self.inst(Inst::Sh { rt, base, off });
    }

    /// `lwc1 ft, off(base)`.
    pub fn lwc1(&mut self, ft: FReg, off: i16, base: Reg) {
        self.inst(Inst::Lwc1 { ft, base, off });
    }

    /// `swc1 ft, off(base)`.
    pub fn swc1(&mut self, ft: FReg, off: i16, base: Reg) {
        self.inst(Inst::Swc1 { ft, base, off });
    }

    /// Loads the double at `off(base)` into pair `ft` (two `lwc1`).
    pub fn ldc1(&mut self, ft: FReg, off: i16, base: Reg) {
        self.lwc1(ft, off, base);
        self.lwc1(FReg(ft.0 + 1), off + 4, base);
    }

    /// Stores the double in pair `ft` to `off(base)` (two `swc1`).
    pub fn sdc1(&mut self, ft: FReg, off: i16, base: Reg) {
        self.swc1(ft, off, base);
        self.swc1(FReg(ft.0 + 1), off + 4, base);
    }

    /// `syscall` with a code field.
    pub fn syscall(&mut self, code: u32) {
        self.inst(Inst::Syscall { code });
    }

    /// `break` with a code field.
    pub fn break_(&mut self, code: u32) {
        self.inst(Inst::Break { code });
    }

    /// `mfc0 rt, cp0reg`.
    pub fn mfc0(&mut self, rt: Reg, rd: u8) {
        self.inst(Inst::Mfc0 { rt, rd });
    }

    /// `mtc0 rt, cp0reg`.
    pub fn mtc0(&mut self, rt: Reg, rd: u8) {
        self.inst(Inst::Mtc0 { rt, rd });
    }

    /// `add.d fd, fs, ft`.
    pub fn add_d(&mut self, fd: FReg, fs: FReg, ft: FReg) {
        self.inst(Inst::AddD { fd, fs, ft });
    }

    /// `sub.d fd, fs, ft`.
    pub fn sub_d(&mut self, fd: FReg, fs: FReg, ft: FReg) {
        self.inst(Inst::SubD { fd, fs, ft });
    }

    /// `mul.d fd, fs, ft`.
    pub fn mul_d(&mut self, fd: FReg, fs: FReg, ft: FReg) {
        self.inst(Inst::MulD { fd, fs, ft });
    }

    /// `div.d fd, fs, ft`.
    pub fn div_d(&mut self, fd: FReg, fs: FReg, ft: FReg) {
        self.inst(Inst::DivD { fd, fs, ft });
    }

    /// `mov.d fd, fs`.
    pub fn mov_d(&mut self, fd: FReg, fs: FReg) {
        self.inst(Inst::MovD { fd, fs });
    }

    /// `neg.d fd, fs`.
    pub fn neg_d(&mut self, fd: FReg, fs: FReg) {
        self.inst(Inst::NegD { fd, fs });
    }

    /// `abs.d fd, fs`.
    pub fn abs_d(&mut self, fd: FReg, fs: FReg) {
        self.inst(Inst::AbsD { fd, fs });
    }

    /// `cvt.d.w fd, fs`.
    pub fn cvt_d_w(&mut self, fd: FReg, fs: FReg) {
        self.inst(Inst::CvtDW { fd, fs });
    }

    /// `cvt.w.d fd, fs`.
    pub fn cvt_w_d(&mut self, fd: FReg, fs: FReg) {
        self.inst(Inst::CvtWD { fd, fs });
    }

    /// `c.lt.d fs, ft`.
    pub fn c_lt_d(&mut self, fs: FReg, ft: FReg) {
        self.inst(Inst::CLtD { fs, ft });
    }

    /// `c.le.d fs, ft`.
    pub fn c_le_d(&mut self, fs: FReg, ft: FReg) {
        self.inst(Inst::CLeD { fs, ft });
    }

    /// `c.eq.d fs, ft`.
    pub fn c_eq_d(&mut self, fs: FReg, ft: FReg) {
        self.inst(Inst::CEqD { fs, ft });
    }

    /// `mtc1 rt, fs`.
    pub fn mtc1(&mut self, rt: Reg, fs: FReg) {
        self.inst(Inst::Mtc1 { rt, fs });
    }

    /// `mfc1 rt, fs`.
    pub fn mfc1(&mut self, rt: Reg, fs: FReg) {
        self.inst(Inst::Mfc1 { rt, fs });
    }

    /// Loads the IEEE-754 double constant `v` into pair `ft` via `at`.
    pub fn li_d(&mut self, ft: FReg, v: f64) {
        let bits = v.to_bits();
        let lo = bits as u32;
        let hi = (bits >> 32) as u32;
        self.li(AT, lo as i32);
        self.mtc1(AT, ft);
        self.li(AT, hi as i32);
        self.mtc1(AT, FReg(ft.0 + 1));
    }

    /// Finalises and returns the object module.
    ///
    /// # Panics
    ///
    /// Panics if an uninstrumented or hand-traced region is left open,
    /// or if a `global` request never saw its label.
    pub fn finish(self) -> Object {
        assert!(
            self.uninstr_open.is_none(),
            "unclosed uninstrumented region"
        );
        assert!(self.hand_open.is_none(), "unclosed hand-traced region");
        for s in &self.obj.symbols {
            assert!(
                s.off != u32::MAX,
                "global symbol `{}` was never defined in {}",
                s.name,
                self.obj.name
            );
        }
        self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    #[test]
    fn labels_and_relocs() {
        let mut a = Asm::new("t");
        a.label("start");
        a.li(T0, 3);
        a.label("loop");
        a.addiu(T0, T0, -1);
        a.bne(T0, ZERO, "loop");
        a.nop();
        let o = a.finish();
        assert_eq!(o.text.len(), 4);
        assert_eq!(o.symbol("loop").unwrap().off, 4);
        assert_eq!(o.text_relocs.len(), 1);
        assert_eq!(o.text_relocs[0].off, 8);
    }

    #[test]
    fn la_emits_two_relocs() {
        let mut a = Asm::new("t");
        a.la(T1, "buf");
        a.data();
        a.label("buf");
        a.word(42);
        let o = a.finish();
        assert_eq!(o.text_relocs.len(), 2);
        assert!(matches!(o.text_relocs[0].kind, RelocKind::Hi16));
        assert!(matches!(o.text_relocs[1].kind, RelocKind::Lo16));
    }

    #[test]
    fn li_widths() {
        let mut a = Asm::new("t");
        a.li(T0, 5); // 1 inst
        a.li(T0, -5); // 1 inst
        a.li(T0, 0x1_0000); // lui only
        a.li(T0, 0x12345678); // lui+ori
        let o = a.finish();
        assert_eq!(o.text.len(), 5);
    }

    #[test]
    #[should_panic(expected = "never defined")]
    fn undefined_global_panics() {
        let mut a = Asm::new("t");
        a.global("missing");
        a.finish();
    }

    #[test]
    fn idle_flags_recorded() {
        let mut a = Asm::new("t");
        a.nop();
        a.mark_idle_start();
        a.label("idle");
        a.nop();
        let o = a.finish();
        assert!(o.bb_flags.get(&4).unwrap().idle_start);
    }
}
