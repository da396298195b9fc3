//! A pixie-style baseline: executable-level rewriting.
//!
//! "Pixie does some of this address correction statically, when the
//! original executable is rewritten as an instrumented executable,
//! but it must do part of it dynamically, by including a complete
//! address translation table in the instrumented executable and doing
//! lookups in this table during execution" (§3.2). Without symbol and
//! relocation tables, every register-indirect jump needs a runtime
//! table lookup, and the tracing code is expanded in line — giving
//! the 4–6x text growth the paper's footnote measures against
//! epoxie's ~2x.
//!
//! Conventions of the rewritten binary:
//!
//! * register-held code addresses are *original* addresses: `jal`
//!   links the original return address and `jr`/`jalr` translate
//!   through the table, so function pointers taken from data keep
//!   working;
//! * trace entries (original bb address, then effective addresses) go
//!   to a circular user-level buffer with the wrap check at block
//!   records — pixie manages trace at user level, which is exactly
//!   why it cannot preserve cross-address-space interleaving (§3.3).

use std::collections::HashMap;

use wrl_isa::reg::{AT, RA, ZERO};
use wrl_isa::{decode, encode, Executable, Inst, MemClass, Reg};
use wrl_trace::layout::{XREG1, XREG2, XREG3};

/// Fixed addresses of the pixie trace area (identity-mapped in bare
/// runs, like the epoxie harness area).
pub mod area {
    /// Control block: +0 end, +4 base, +8 wrap count.
    pub const CTRL: u32 = 0x01f0_0000;
    /// Circular trace buffer.
    pub const BUF: u32 = 0x01f0_1000;
    /// Buffer bytes (the wrap check leaves a one-block slack).
    pub const BUF_BYTES: u32 = 64 * 1024;
}

/// Errors from the pixie rewriter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PixieError {
    /// An instruction word did not decode.
    BadEncoding {
        /// Its address.
        at: u32,
    },
    /// The program uses a stolen register (unsupported baseline).
    StolenRegister {
        /// Its address.
        at: u32,
    },
    /// A delay slot could not be hoisted safely.
    UnsafeDelaySlot {
        /// The branch address.
        at: u32,
    },
}

impl core::fmt::Display for PixieError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PixieError::BadEncoding { at } => write!(f, "{at:#010x}: undecodable"),
            PixieError::StolenRegister { at } => {
                write!(f, "{at:#010x}: uses a stolen register")
            }
            PixieError::UnsafeDelaySlot { at } => {
                write!(f, "{at:#010x}: delay slot cannot be hoisted")
            }
        }
    }
}

impl std::error::Error for PixieError {}

/// The pixie-rewritten program.
#[derive(Clone, Debug)]
pub struct PixieProgram {
    /// The rewritten executable (text replaced, data untouched, the
    /// translation table appended beyond bss).
    pub exe: Executable,
    /// Address of the translation table.
    pub table_base: u32,
    /// Original → instrumented address map (the static side).
    pub forward: HashMap<u32, u32>,
    /// Text growth factor.
    pub expansion: f64,
}

struct Emit {
    words: Vec<u32>,
    base: u32,
}

impl Emit {
    fn pc(&self) -> u32 {
        self.base + (self.words.len() * 4) as u32
    }
    fn put(&mut self, i: Inst) {
        self.words.push(encode(i));
    }
    fn li32(&mut self, rt: Reg, v: u32) {
        self.put(Inst::Lui {
            rt,
            imm: (v >> 16) as u16,
        });
        self.put(Inst::Ori {
            rt,
            rs: rt,
            imm: (v & 0xffff) as u16,
        });
    }
}

fn uses_stolen(i: Inst) -> bool {
    let ([a, b], ()) = i.reads_gprs();
    let stolen = [XREG1, XREG2, XREG3];
    [a, b].into_iter().flatten().any(|r| stolen.contains(&r))
        || i.writes_gpr().map(|r| stolen.contains(&r)).unwrap_or(false)
}

// Sizing constants — must match the emission helpers exactly.
const W_BB: u32 = 12; // li32(2) + store(2) + wrap check(8)
const W_MEM: u32 = 4; // addr(1) + store(2) + the instruction
const W_JAL: u32 = 4; // li ra(2) + j + nop
const W_J: u32 = 2; // j + nop
const W_JR: u32 = 9; // translate(8) + jr ... (see emit_translate_jump)
const W_JALR: u32 = 11; // li rd(2) + W_JR
const W_BR: u32 = 2; // branch + nop (slot hoisted separately)

/// Words emitted for one original instruction.
fn cost(i: Inst, is_leader: bool) -> u32 {
    let body = match i {
        Inst::Jal { .. } => W_JAL,
        Inst::Jalr { .. } => W_JALR,
        Inst::Jr { .. } => W_JR,
        Inst::J { .. } => W_J,
        _ if i.mem_class().is_some() => W_MEM,
        _ if i.is_branch() => W_BR,
        _ => 1,
    };
    body + if is_leader { W_BB } else { 0 }
}

/// `xreg2` holds the trace word: store and bump (2 words).
fn emit_store(e: &mut Emit) {
    e.put(Inst::Sw {
        rt: XREG2,
        base: XREG1,
        off: 0,
    });
    e.put(Inst::Addiu {
        rt: XREG1,
        rs: XREG1,
        imm: 4,
    });
}

/// Circular wrap check (8 words): if `xreg1 >= end`, rewind to base
/// and count the wrap. Performed at block records only; the slack
/// below the true end absorbs the block's memory entries.
fn emit_wrap_check(e: &mut Emit) {
    e.put(Inst::Lw {
        rt: XREG2,
        base: XREG3,
        off: 0,
    });
    e.put(Inst::Sltu {
        rd: XREG2,
        rs: XREG1,
        rt: XREG2,
    });
    e.put(Inst::Bne {
        rs: XREG2,
        rt: ZERO,
        off: 5, // over [nop] + the 4-word wrap block
    });
    e.put(Inst::nop());
    e.put(Inst::Lw {
        rt: XREG1,
        base: XREG3,
        off: 4,
    });
    e.put(Inst::Lw {
        rt: XREG2,
        base: XREG3,
        off: 8,
    });
    e.put(Inst::Addiu {
        rt: XREG2,
        rs: XREG2,
        imm: 1,
    });
    e.put(Inst::Sw {
        rt: XREG2,
        base: XREG3,
        off: 8,
    });
}

/// The block record: original bb address + wrap check (12 words).
fn emit_bb_record(e: &mut Emit, orig_pc: u32) {
    e.li32(XREG2, orig_pc);
    emit_store(e);
    emit_wrap_check(e);
}

/// jr translation (9 words): `xreg2 := table[rs - text_base]; jr`.
fn emit_translate_jump(e: &mut Emit, rs: Reg, text_base: u32, table_base: u32) {
    e.li32(XREG2, text_base);
    e.put(Inst::Subu {
        rd: XREG2,
        rs,
        rt: XREG2,
    });
    e.li32(AT, table_base);
    e.put(Inst::Addu {
        rd: XREG2,
        rs: XREG2,
        rt: AT,
    });
    e.put(Inst::Lw {
        rt: XREG2,
        base: XREG2,
        off: 0,
    });
    e.put(Inst::Jr { rs: XREG2 });
    e.put(Inst::nop());
}

fn branch_off(i: Inst) -> i64 {
    use Inst::*;
    match i {
        Beq { off, .. }
        | Bne { off, .. }
        | Blez { off, .. }
        | Bgtz { off, .. }
        | Bltz { off, .. }
        | Bgez { off, .. }
        | Bc1t { off }
        | Bc1f { off } => off as i64,
        _ => unreachable!("not a branch"),
    }
}

fn retarget(i: Inst, disp: i16) -> Inst {
    use Inst::*;
    match i {
        Beq { rs, rt, .. } => Beq { rs, rt, off: disp },
        Bne { rs, rt, .. } => Bne { rs, rt, off: disp },
        Blez { rs, .. } => Blez { rs, off: disp },
        Bgtz { rs, .. } => Bgtz { rs, off: disp },
        Bltz { rs, .. } => Bltz { rs, off: disp },
        Bgez { rs, .. } => Bgez { rs, off: disp },
        Bc1t { .. } => Bc1t { off: disp },
        Bc1f { .. } => Bc1f { off: disp },
        _ => unreachable!("not a branch"),
    }
}

/// Rewrites an executable with inline address tracing.
pub fn pixie(exe: &Executable) -> Result<PixieProgram, PixieError> {
    let n = exe.text.len();
    let base = exe.text_base;

    // Decode and find block leaders.
    let mut insts = Vec::with_capacity(n);
    for (k, &w) in exe.text.iter().enumerate() {
        insts.push(decode(w).map_err(|_| PixieError::BadEncoding {
            at: base + (k as u32) * 4,
        })?);
    }
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    for (k, i) in insts.iter().enumerate() {
        if uses_stolen(*i) {
            return Err(PixieError::StolenRegister {
                at: base + (k as u32) * 4,
            });
        }
        use Inst::*;
        match i {
            i if i.is_branch() => {
                let t = k as i64 + 1 + branch_off(*i);
                if (0..=n as i64).contains(&t) {
                    leader[t as usize] = true;
                }
            }
            J { target } | Jal { target } => {
                let t = ((base & 0xf000_0000) | (target << 2)) as i64;
                let idx = (t - base as i64) / 4;
                if (0..=n as i64).contains(&idx) {
                    leader[idx as usize] = true;
                }
            }
            _ => {}
        }
        if i.has_delay_slot() && k + 2 <= n {
            leader[k + 2] = true;
        } else if matches!(i, Syscall { .. } | Break { .. }) && k < n {
            leader[k + 1] = true;
        }
    }
    for k in 1..n {
        if leader[k] && insts[k - 1].has_delay_slot() {
            leader[k] = false;
            if k < n {
                leader[k + 1] = true;
            }
        }
    }

    // Sizing pass.
    let mut newpos = vec![0u32; n + 1];
    let mut pos = 0u32;
    let mut k = 0;
    while k < n {
        newpos[k] = pos;
        let i = insts[k];
        if i.has_delay_slot() && k + 1 < n {
            let slot = insts[k + 1];
            if slot.has_delay_slot() {
                return Err(PixieError::UnsafeDelaySlot {
                    at: base + (k as u32) * 4,
                });
            }
            newpos[k + 1] = pos; // inside the unit
            pos += 4 * ((if leader[k] { W_BB } else { 0 }) + cost(slot, false) + cost(i, false));
            k += 2;
        } else {
            pos += 4 * cost(i, leader[k]);
            k += 1;
        }
    }
    newpos[n] = pos;

    let table_base = (exe.brk() + 0xfff) & !0xfff;

    // Emission pass.
    let mut e = Emit {
        words: Vec::with_capacity(pos as usize),
        base,
    };
    fn emit_plain(e: &mut Emit, i: Inst) {
        if let Some(mc) = i.mem_class() {
            let (b, off) = match mc {
                MemClass::Load { base, off, .. } | MemClass::Store { base, off, .. } => (base, off),
            };
            e.put(Inst::Addiu {
                rt: XREG2,
                rs: b,
                imm: off,
            });
            emit_store(e);
            e.put(i);
        } else {
            e.put(i);
        }
    }

    let mut k = 0;
    while k < n {
        debug_assert_eq!(e.pc(), base + newpos[k], "layout drift at {k}");
        let i = insts[k];
        let orig_pc = base + (k as u32) * 4;
        if leader[k] {
            emit_bb_record(&mut e, orig_pc);
        }
        if i.has_delay_slot() && k + 1 < n {
            let slot = insts[k + 1];
            // Hoist safety.
            if let Some(w) = slot.writes_gpr() {
                if i.reads_gpr(w) {
                    return Err(PixieError::UnsafeDelaySlot { at: orig_pc });
                }
            }
            if i.writes_gpr() == Some(RA) && (slot.reads_gpr(RA) || slot.writes_gpr() == Some(RA)) {
                return Err(PixieError::UnsafeDelaySlot { at: orig_pc });
            }
            emit_plain(&mut e, slot);
            use Inst::*;
            match i {
                Jal { target } => {
                    let orig_t = (base & 0xf000_0000) | (target << 2);
                    let idx = (((orig_t - base) / 4) as usize).min(n);
                    e.li32(RA, orig_pc + 8);
                    let new_t = base + newpos[idx];
                    e.put(J {
                        target: (new_t >> 2) & 0x03ff_ffff,
                    });
                    e.put(Inst::nop());
                }
                J { target } => {
                    let orig_t = (base & 0xf000_0000) | (target << 2);
                    let idx = (((orig_t - base) / 4) as usize).min(n);
                    let new_t = base + newpos[idx];
                    e.put(J {
                        target: (new_t >> 2) & 0x03ff_ffff,
                    });
                    e.put(Inst::nop());
                }
                Jr { rs } => emit_translate_jump(&mut e, rs, base, table_base),
                Jalr { rd, rs } => {
                    e.li32(rd, orig_pc + 8);
                    emit_translate_jump(&mut e, rs, base, table_base);
                }
                br => {
                    let t = ((k as i64 + 1 + branch_off(br)).max(0) as usize).min(n);
                    let new_t = base + newpos[t];
                    let here = e.pc();
                    let disp = (new_t as i64 - (here as i64 + 4)) >> 2;
                    e.put(retarget(br, disp as i16));
                    e.put(Inst::nop());
                }
            }
            k += 2;
        } else {
            emit_plain(&mut e, i);
            k += 1;
        }
    }

    // Translation table and forward map.
    let mut table = Vec::with_capacity(n);
    let mut forward = HashMap::new();
    #[allow(clippy::needless_range_loop)]
    for k in 0..n {
        let new = base + newpos[k];
        table.push(new);
        forward.insert(base + (k as u32) * 4, new);
    }

    let mut new_exe = exe.clone();
    let expansion = (e.words.len() as f64) / (n.max(1) as f64);
    new_exe.text = e.words;
    new_exe.entry = forward[&exe.entry];
    let gap = (table_base - exe.data_base) as usize;
    new_exe.data.resize(gap + table.len() * 4, 0);
    for (i, w) in table.iter().enumerate() {
        new_exe.data[gap + i * 4..gap + i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }

    Ok(PixieProgram {
        exe: new_exe,
        table_base,
        forward,
        expansion,
    })
}

/// Prepares a bare machine to run a pixie-rewritten program.
pub fn prepare_pixie_machine(prog: &PixieProgram, mem_bytes: u32) -> wrl_machine::Machine {
    let mut m = wrl_machine::Machine::new(
        wrl_machine::Config {
            mem_bytes,
            bare: true,
        },
        vec![],
    );
    m.load_executable(&prog.exe);
    m.cpu.regs[XREG1.idx()] = area::BUF;
    m.cpu.regs[XREG3.idx()] = area::CTRL;
    // One-block slack below the true end.
    m.mem
        .write_word(area::CTRL, area::BUF + area::BUF_BYTES - 4096);
    m.mem.write_word(area::CTRL + 4, area::BUF);
    m.set_pc(prog.exe.entry);
    m
}

/// Total trace entries a pixie run produced (wraps × capacity + fill).
pub fn pixie_entries(prog: &PixieProgram, m: &wrl_machine::Machine) -> u64 {
    let wraps = m.mem.read_word(area::CTRL + 8) as u64;
    let fill = (m.cpu.regs[XREG1.idx()] - area::BUF) as u64 / 4;
    let _ = prog;
    wraps * ((area::BUF_BYTES as u64 - 4096) / 4) + fill
}
