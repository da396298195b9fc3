//! End-to-end execution tests: assemble W3K programs, run them on the
//! machine, and check architectural behaviour (delay slots, linkage,
//! exceptions, TLB refill, timing counters).

use std::cell::RefCell;
use std::rc::Rc;
use wrl_isa::asm::Asm;
use wrl_isa::link::{link, Layout};
use wrl_isa::reg::*;
use wrl_machine::dev::{regs, DEV_BASE_K1};
use wrl_machine::{dec5000, Config, ExcCode, Machine, RefEvent, StopEvent};

/// Assembles, links and loads a bare-mode program; returns the machine
/// ready to run from the entry point.
fn boot(asm: Asm) -> Machine {
    let obj = asm.finish();
    let linked = link(&[obj], Layout::user(), "main").expect("link");
    let mut m = Machine::new(Config::bare(), vec![]);
    m.load_executable(&linked.exe);
    m.set_pc(linked.exe.entry);
    m
}

#[test]
fn arithmetic_loop_computes_sum() {
    let mut a = Asm::new("sum");
    a.global_label("main");
    a.li(T0, 0); // acc
    a.li(T1, 100); // counter
    a.label("loop");
    a.addu(T0, T0, T1);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "loop");
    a.nop();
    a.break_(0);
    let mut m = boot(a);
    assert_eq!(m.run(10_000), StopEvent::Break(0));
    assert_eq!(m.cpu.regs[T0.idx()], 5050);
}

#[test]
fn delay_slot_executes_after_taken_branch() {
    let mut a = Asm::new("ds");
    a.global_label("main");
    a.li(T0, 0);
    a.b("over");
    a.li(T0, 42); // delay slot must execute
    a.li(T0, 7); // skipped
    a.label("over");
    a.break_(0);
    let mut m = boot(a);
    m.run(100);
    assert_eq!(m.cpu.regs[T0.idx()], 42);
}

#[test]
fn jal_links_past_delay_slot() {
    let mut a = Asm::new("jal");
    a.global_label("main");
    a.jal("fn");
    a.li(T1, 1); // delay slot
    a.li(T2, 2); // return lands here
    a.break_(0);
    a.label("fn");
    a.jr(RA);
    a.nop();
    let mut m = boot(a);
    m.run(100);
    assert_eq!(m.cpu.regs[T1.idx()], 1);
    assert_eq!(m.cpu.regs[T2.idx()], 2);
}

#[test]
fn memory_round_trip_and_counters() {
    let mut a = Asm::new("mem");
    a.global_label("main");
    a.la(T0, "buf");
    a.li(T1, 0x01020304);
    a.sw(T1, 0, T0);
    a.lw(T2, 0, T0);
    a.lbu(T3, 0, T0);
    a.lhu(T4, 2, T0);
    a.sb(T3, 5, T0);
    a.lb(T5, 5, T0);
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(16);
    let mut m = boot(a);
    m.run(100);
    assert_eq!(m.cpu.regs[T2.idx()], 0x01020304);
    assert_eq!(m.cpu.regs[T3.idx()], 0x04);
    assert_eq!(m.cpu.regs[T4.idx()], 0x0102);
    assert_eq!(m.cpu.regs[T5.idx()], 0x04);
    assert_eq!(m.counters.loads, 4);
    assert_eq!(m.counters.stores, 2);
}

#[test]
fn mult_div_and_hilo() {
    let mut a = Asm::new("md");
    a.global_label("main");
    a.li(T0, -6);
    a.li(T1, 7);
    a.mult(T0, T1);
    a.mflo(T2); // -42
    a.li(T0, 43);
    a.li(T1, 5);
    a.div(T0, T1);
    a.mflo(T3); // 8
    a.mfhi(T4); // 3
    a.break_(0);
    let mut m = boot(a);
    m.run(100);
    assert_eq!(m.cpu.regs[T2.idx()] as i32, -42);
    assert_eq!(m.cpu.regs[T3.idx()], 8);
    assert_eq!(m.cpu.regs[T4.idx()], 3);
    // mflo immediately after mult interlocks on both clocks.
    assert!(m.counters.fp_stall_cycles > 0);
    assert!(m.counters.fp_stall_ideal > 0);
}

#[test]
fn fp_pipeline_computes_and_interlocks() {
    let mut a = Asm::new("fp");
    a.global_label("main");
    a.li_d(F0, 1.5);
    a.li_d(F2, 2.5);
    a.add_d(F4, F0, F2); // 4.0
    a.mul_d(F6, F4, F4); // 16.0  (waits on F4)
    a.li_d(F8, 64.0);
    a.div_d(F10, F8, F6); // 4.0
    a.c_lt_d(F6, F8); // 16 < 64
    a.bc1t("yes");
    a.nop();
    a.li(T0, 0);
    a.break_(1);
    a.label("yes");
    a.li(T0, 1);
    a.break_(0);
    let mut m = boot(a);
    assert_eq!(m.run(1000), StopEvent::Break(0));
    assert_eq!(m.cpu.regs[T0.idx()], 1);
    assert_eq!(m.cpu.get_d(10), 4.0);
    assert!(m.counters.fp_stall_cycles > 0);
}

#[test]
fn fp_store_to_memory() {
    let mut a = Asm::new("fps");
    a.global_label("main");
    a.li_d(F0, 3.25);
    a.la(T0, "d");
    a.sdc1(F0, 0, T0);
    a.ldc1(F2, 0, T0);
    a.break_(0);
    a.data();
    a.align4();
    a.label("d");
    a.space(8);
    let mut m = boot(a);
    m.run(100);
    assert_eq!(m.cpu.get_d(2), 3.25);
}

#[test]
fn syscall_returns_to_host_in_bare_mode() {
    let mut a = Asm::new("sys");
    a.global_label("main");
    a.li(V0, 4); // pretend "write"
    a.syscall(0);
    a.li(T0, 99); // resumes here
    a.break_(0);
    let mut m = boot(a);
    assert_eq!(m.run(100), StopEvent::Syscall(0));
    assert_eq!(m.cpu.regs[V0.idx()], 4);
    assert_eq!(m.run(100), StopEvent::Break(0));
    assert_eq!(m.cpu.regs[T0.idx()], 99);
}

#[test]
fn cycle_accounting_exceeds_instruction_count() {
    let mut a = Asm::new("cyc");
    a.global_label("main");
    a.li(T1, 2000);
    a.la(T0, "buf");
    a.label("loop");
    // Stores at a fast rate pressure the write buffer.
    a.sw(T1, 0, T0);
    a.sw(T1, 4, T0);
    a.sw(T1, 8, T0);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "loop");
    a.nop();
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(64);
    let mut m = boot(a);
    m.run(100_000);
    assert!(m.counters.wb_stall_cycles > 0, "write buffer never stalled");
    assert!(m.counters.cycles > m.counters.insts());
}

#[test]
fn icache_misses_on_large_footprint() {
    // A straight-line function body bigger than the 64 KB I-cache,
    // executed twice: every line misses both times it is revisited
    // only if evicted; here the loop body fits, so after warmup the
    // misses stop. We check both phases.
    let mut a = Asm::new("ic");
    a.global_label("main");
    a.li(T1, 3);
    a.label("again");
    for _ in 0..1000 {
        a.addu(T0, T0, T1);
    }
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "again");
    a.nop();
    a.break_(0);
    let mut m = boot(a);
    m.run(100_000);
    let misses = m.counters.icache_misses;
    // 1004-ish instructions = ~251 lines, touched cold once.
    assert!((250..300).contains(&misses), "misses = {misses}");
}

#[test]
fn budget_stop_event() {
    let mut a = Asm::new("spin");
    a.global_label("main");
    a.label("loop");
    a.b("loop");
    a.nop();
    let mut m = boot(a);
    assert_eq!(m.run(1000), StopEvent::Budget);
    assert_eq!(m.counters.insts(), 1000);
}

#[test]
fn reference_tracer_sees_all_refs() {
    let mut a = Asm::new("trc");
    a.global_label("main");
    a.la(T0, "buf");
    a.lw(T1, 0, T0);
    a.sw(T1, 4, T0);
    a.break_(0);
    a.data();
    a.label("buf");
    a.space(16);
    let mut m = boot(a);
    let events: Rc<RefCell<Vec<RefEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    m.set_tracer(Some(Box::new(move |e| sink.borrow_mut().push(e))));
    m.run(100);
    let ev = events.borrow();
    let ifetches = ev
        .iter()
        .filter(|e| matches!(e, RefEvent::Ifetch { .. }))
        .count();
    let loads = ev
        .iter()
        .filter(|e| matches!(e, RefEvent::Load { .. }))
        .count();
    let stores = ev
        .iter()
        .filter(|e| matches!(e, RefEvent::Store { .. }))
        .count();
    assert_eq!(ifetches, 5); // la(2) + lw + sw + break
    assert_eq!(loads, 1);
    assert_eq!(stores, 1);
}

/// Builds a kernel-mode program (kseg0) with a general exception
/// handler, exercising the full exception path without `bare` mode.
#[test]
fn exception_vector_and_rfe() {
    let mut a = Asm::new("kern");
    // Vectors are at fixed kseg0 addresses; pad to them.
    // Text base is 0x8003_0000, so we place trampoline code there and
    // copy nothing: instead, install handler directly via the linker
    // by putting the kernel at the vector base.
    a.global_label("main");
    // Set up: count syscalls in T5, then syscall twice and spin.
    a.li(T5, 0);
    a.syscall(0);
    a.syscall(0);
    a.label("spin");
    a.b("spin");
    a.nop();
    a.global_label("handler");
    a.addiu(T5, T5, 1);
    a.mfc0(K0, 14); // EPC
    a.addiu(K0, K0, 4);
    a.mtc0(K0, 14);
    a.mfc0(K0, 14);
    a.jr(K0);
    a.inst(wrl_isa::Inst::Rfe); // rfe in the jr delay slot
    let obj = a.finish();

    // Link twice: handler stub at the general vector, body in kseg0.
    let linked = link(
        &[obj],
        Layout {
            text_base: 0x8000_0100,
            data_base: 0x8030_0000,
        },
        "main",
    )
    .unwrap();
    let mut m = Machine::new(Config::default(), vec![]);
    m.load_executable(&linked.exe);
    // Install a jump at the general vector 0x8000_0080 to `handler`.
    let handler = linked.exe.sym("handler").unwrap();
    let j = wrl_isa::encode(wrl_isa::Inst::J {
        target: (handler >> 2) & 0x03ff_ffff,
    });
    m.mem.write_word(0x80, j);
    m.mem.write_word(0x84, 0); // delay-slot nop
    m.set_pc(linked.exe.entry);

    m.run(100);
    assert_eq!(m.cpu.regs[T5.idx()], 2, "both syscalls handled");
    assert_eq!(m.counters.exceptions[8], 2);
}

#[test]
fn utlb_refill_handler_installs_mapping() {
    use wrl_isa::Inst;
    // Kernel at kseg0 sets up a page table in kseg0 memory, points
    // Context at it, switches to user mode and jumps to user code.
    // The 9-instruction UTLB handler refills from the page table.
    let mut k = Asm::new("kern");
    k.global_label("main");
    // Build one PTE: map user vpn of `uprog` to pfn chosen below.
    // Page table base (kseg0): 0x8060_0000 — Context's PTE-base field
    // is bits 31:21, so the table must be 2 MB aligned. Entry for vpn
    // v lives at base + 4*v. User text at 0x0040_0000 => vpn 0x400.
    k.li(T0, 0x8060_0000u32 as i32);
    k.mtc0(T0, 4); // Context = PTE base (top bits)
                   // PTE for vpn 0x400: pfn 0x0000_0060 (paddr 0x60000), valid+dirty.
    let pte: u32 = (0x60 << 12) | (1 << 10) | (1 << 9);
    k.li(T1, pte as i32);
    k.li(T2, 0x8060_0000u32 as i32 + 4 * 0x400);
    k.sw(T1, 0, T2);
    // Enter user mode: status bits IEc(0) KUc(1) IEp(2) KUp(3); rfe
    // pops KUp into KUc.
    k.li(T3, 0b1000); // KUp = 1
    k.mtc0(T3, 12);
    k.li(K0, 0x0040_0000);
    k.jr(K0);
    k.inst(Inst::Rfe);
    let kobj = k.finish();
    let klinked = link(
        &[kobj],
        Layout {
            text_base: 0x8000_0200,
            data_base: 0x8030_0000,
        },
        "main",
    )
    .unwrap();

    // UTLB refill handler (the paper's nine-instruction handler).
    let mut h = Asm::new("utlb");
    h.global_label("utlb");
    h.mfc0(K0, 4); // Context: base | vpn<<2
    h.lw(K0, 0, K0); // load PTE
    h.nop();
    h.mtc0(K0, 2); // EntryLo
    h.inst(Inst::Tlbwr);
    h.mfc0(K0, 14); // EPC
    h.jr(K0);
    h.inst(Inst::Rfe);
    let hlinked = link(
        &[h.finish()],
        Layout {
            text_base: 0x8000_0000,
            data_base: 0x8031_0000,
        },
        "utlb",
    )
    .unwrap();

    // User program: add and halt via break (vectors to general; we
    // detect completion via register value and budget).
    let mut u = Asm::new("user");
    u.global_label("umain");
    u.li(T0, 11);
    u.li(T1, 31);
    u.addu(T2, T0, T1);
    u.label("spin");
    u.b("spin");
    u.nop();
    let ulinked = link(&[u.finish()], Layout::user(), "umain").unwrap();

    let mut m = Machine::new(Config::default(), vec![]);
    m.load_executable(&klinked.exe);
    m.load_executable(&hlinked.exe);
    // Load user text at physical 0x60000 (the frame the PTE names).
    let mut bytes = Vec::new();
    for w in &ulinked.exe.text {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    m.load_segment_mapped(0x60000, &bytes);
    m.set_pc(klinked.exe.entry);
    m.run(200);
    assert_eq!(m.cpu.regs[T2.idx()], 42);
    assert_eq!(m.counters.utlb_misses, 1);
    assert!(m.cp0.user_mode());
}

#[test]
fn misaligned_word_access_faults() {
    let mut a = Asm::new("mis");
    a.global_label("main");
    a.la(T0, "buf");
    a.lw(T1, 2, T0); // misaligned word load
    a.break_(0);
    a.data();
    a.align4();
    a.label("buf");
    a.space(16);
    let mut m = boot(a);
    // Bare mode surfaces the AdEL as an unhandled exception.
    assert_eq!(
        m.run(100),
        StopEvent::UnhandledException(wrl_machine::ExcCode::AdEL as u8)
    );

    // Every halfword and word access at every offset of two words, in
    // kernel mode (kseg0 data) and in user mode (mapped data): a
    // misaligned one is an AdEL or AdES with BadVAddr at the address,
    // retires into the general vector and loads, stores, counts and
    // traces nothing; an aligned one completes.
    use wrl_isa::{FReg, Inst};
    type Op = fn(i16) -> Inst;
    let ops: [(&str, u32, bool, Op); 7] = [
        ("lh", 2, false, |off| Inst::Lh {
            rt: T1,
            base: T0,
            off,
        }),
        ("lhu", 2, false, |off| Inst::Lhu {
            rt: T1,
            base: T0,
            off,
        }),
        ("lw", 4, false, |off| Inst::Lw {
            rt: T1,
            base: T0,
            off,
        }),
        ("lwc1", 4, false, |off| Inst::Lwc1 {
            ft: FReg(2),
            base: T0,
            off,
        }),
        ("sh", 2, true, |off| Inst::Sh {
            rt: T1,
            base: T0,
            off,
        }),
        ("sw", 4, true, |off| Inst::Sw {
            rt: T1,
            base: T0,
            off,
        }),
        ("swc1", 4, true, |off| Inst::Swc1 {
            ft: FReg(2),
            base: T0,
            off,
        }),
    ];
    for user in [false, true] {
        for (name, width, store, op) in ops {
            for off in 0..8i16 {
                let (m, refs, pc, data) = one_access(op(off), user);
                let vaddr = data + off as u32;
                let at = format!("{name} at {vaddr:#x}, user {user}");
                let data_ref = if store {
                    RefEvent::Store { vaddr, user }
                } else {
                    RefEvent::Load { vaddr, user }
                };
                let fetch = RefEvent::Ifetch { vaddr: pc, user };
                assert_eq!(m.counters.insts(), 1, "{at}");
                if vaddr.is_multiple_of(width) {
                    assert_eq!(m.cpu.pc, pc + 4, "{at}");
                    assert_eq!(m.counters.exceptions, [0; 16], "{at}");
                    assert_eq!(m.counters.loads + m.counters.stores, 1, "{at}");
                    assert_eq!(refs, [fetch, data_ref], "{at}");
                } else {
                    let code = if store { ExcCode::AdES } else { ExcCode::AdEL };
                    assert_eq!(m.cpu.pc, 0x8000_0080, "{at}");
                    assert_eq!((m.cp0.cause >> 2) & 31, code as u32, "{at}");
                    assert_eq!((m.cp0.badvaddr, m.cp0.epc), (vaddr, pc), "{at}");
                    assert_eq!(m.counters.exceptions[code as usize], 1, "{at}");
                    assert_eq!((m.counters.loads, m.counters.stores), (0, 0), "{at}");
                    assert_eq!(refs, [fetch], "{at}");
                }
            }
        }
    }
}

/// One step of `inst` with `T0` pointing at a data page, under a
/// reference tracer: in kernel mode from kseg0, in user mode from a
/// text page and a writable data page mapped through the TLB. Returns
/// the machine, the references traced, the PC and the data address.
fn one_access(inst: wrl_isa::Inst, user: bool) -> (Machine, Vec<RefEvent>, u32, u32) {
    use wrl_machine::TlbEntry;
    let (pc, data) = if user {
        (0x0040_0000, 0x1000_0000)
    } else {
        (0x8000_0400, 0x8000_2000)
    };
    let mut m = kseg0_machine(1 << 20, 0x8000_0400, &[inst]);
    if user {
        m.mem.write_word(0x60 << 12, wrl_isa::encode(inst));
        for (i, vpn, pfn) in [(0, pc >> 12, 0x60), (1, data >> 12, 0x61)] {
            let e = TlbEntry {
                vpn,
                pfn,
                valid: true,
                dirty: true,
                ..TlbEntry::default()
            };
            m.tlb.write_indexed(i, e);
        }
        m.cp0.status = 0b10; // KUc
        m.set_pc(pc);
    }
    m.cpu.regs[T0.idx()] = data;
    let refs = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&refs);
    m.set_tracer(Some(Box::new(move |e| log.borrow_mut().push(e))));
    assert_eq!(m.step(), None);
    m.set_tracer(None);
    let refs = refs.borrow().clone();
    (m, refs, pc, data)
}

#[test]
fn user_mode_cannot_touch_cp0_or_kernel_space() {
    use wrl_isa::Inst;
    // Build a kernel that drops to user mode; the user code tries
    // mtc0, a word store to each stopping device register and a kseg0
    // load — each must raise an exception, which the general vector
    // turns into a halt with a recognisable code.
    let mut a = Asm::new("priv");
    a.global_label("main");
    // Wire the user text mapping straight into TLB entry 0 (no
    // refill handler in this minimal kernel).
    let pte: u32 = (0x60 << 12) | (1 << 10) | (1 << 9);
    a.li(T0, 0x0040_0000);
    a.mtc0(T0, 10); // EntryHi: vpn 0x400, asid 0
    a.li(T1, pte as i32);
    a.mtc0(T1, 2); // EntryLo
    a.mtc0(ZERO, 0); // Index 0
    a.inst(Inst::Tlbwi);
    a.li(T3, 0b1000);
    a.mtc0(T3, 12);
    a.li(K0, 0x0040_0000);
    a.jr(K0);
    a.inst(Inst::Rfe);
    a.global_label("handler");
    // Any exception from user: record the cause code and halt.
    a.mfc0(T5, 13);
    a.andi(T5, T5, 0x7c);
    a.srl(A0, T5, 2);
    a.li(T6, 0xbc00_0004u32 as i32); // HALT device via kseg1
    a.sw(A0, 0, T6);
    a.label("spin2");
    a.b("spin2");
    a.nop();
    let obj = a.finish();
    let linked = link(
        &[obj],
        Layout {
            text_base: 0x8000_0200,
            data_base: 0x8030_0000,
        },
        "main",
    )
    .unwrap();

    // A user `sw` of 0x77 to a device register through kseg1: the
    // device must never see it, so the machine can only stop with the
    // handler's cause code, not the user's value.
    let sw_dev = |reg: u32| {
        vec![
            Inst::Lui {
                rt: T0,
                imm: (DEV_BASE_K1 >> 16) as u16,
            },
            Inst::Addiu {
                rt: T1,
                rs: ZERO,
                imm: 0x77,
            },
            Inst::Sw {
                rt: T1,
                base: T0,
                off: reg as i16,
            },
        ]
    };
    for (probe, expect) in [
        (vec![Inst::Mtc0 { rt: T0, rd: 12 }], 11u32), // CpU
        (vec![Inst::Tlbwr], 11u32),                   // CpU
        (sw_dev(regs::HALT), 5u32),                   // AdES
        (sw_dev(regs::TRACE_REQ), 5u32),              // AdES
        (
            // A kseg0 load.
            vec![
                Inst::Lui {
                    rt: T0,
                    imm: 0x8000,
                },
                Inst::Lw {
                    rt: T1,
                    base: T0,
                    off: 0,
                },
            ],
            4u32, // AdEL
        ),
    ] {
        let mut m = Machine::new(Config::default(), vec![]);
        m.load_executable(&linked.exe);
        let handler = linked.exe.sym("handler").unwrap();
        let j = wrl_isa::encode(wrl_isa::Inst::J {
            target: (handler >> 2) & 0x03ff_ffff,
        });
        m.mem.write_word(0x80, j);
        m.mem.write_word(0x84, 0);
        // User code at paddr 0x60000: the probe instructions + spin.
        let mut code: Vec<u32> = probe.into_iter().map(wrl_isa::encode).collect();
        code.push(wrl_isa::encode(wrl_isa::Inst::Beq {
            rs: ZERO,
            rt: ZERO,
            off: -1,
        }));
        code.push(0);
        let mut bytes = Vec::new();
        for w in &code {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        m.load_segment_mapped(0x60000, &bytes);
        m.set_pc(linked.exe.entry);
        match m.run(500) {
            StopEvent::Halted(code) => assert_eq!(code, expect),
            other => panic!("expected privileged fault, got {other:?}"),
        }
    }
}

#[test]
fn kernel_device_stores_stop_where_they_always_did() {
    // Kernel mode, kseg1: `sb`/`sh` to HALT are plain register writes
    // (counted, charged, no stop); `sw` to the doorbell is a counted
    // uncached store that stops; `sw` to HALT stops the machine with
    // the store neither counted nor charged.
    let mut a = Asm::new("dev");
    a.global_label("main");
    a.li(T6, DEV_BASE_K1 as i32);
    a.li(A0, 0x55);
    a.sb(A0, regs::HALT as i16, T6);
    a.sh(A0, regs::HALT as i16, T6);
    a.sw(A0, regs::TRACE_REQ as i16, T6);
    a.sw(A0, regs::HALT as i16, T6);
    a.label("spin");
    a.b("spin");
    a.nop();
    let layout = Layout {
        text_base: 0x8000_0200,
        data_base: 0x8030_0000,
    };
    let linked = link(&[a.finish()], layout, "main").unwrap();
    let mut m = Machine::new(Config::default(), vec![]);
    m.load_executable(&linked.exe);
    m.set_pc(linked.exe.entry);
    // Steps to the next stop; returns the counters before the
    // stopping instruction, and the stop.
    let to_stop = |m: &mut Machine| loop {
        let before = m.counters.clone();
        if let Some(stop) = m.step() {
            return (before, stop);
        }
    };
    // Cycles the stopping instruction took beyond its issue cycle and
    // its own I-cache miss.
    let extra = |m: &Machine, before: &wrl_machine::Counters| {
        let imiss = (m.counters.icache_misses - before.icache_misses) * dec5000::IMISS_PENALTY;
        m.counters.cycles - before.cycles - 1 - imiss
    };

    let (before, stop) = to_stop(&mut m);
    assert_eq!(stop, StopEvent::TraceRequest(0x55));
    assert_eq!((before.stores, before.uncached_data), (2, 2), "sb, sh");
    assert_eq!((m.counters.stores, m.counters.uncached_data), (3, 3));
    assert_eq!(extra(&m, &before), dec5000::UNCACHED_PENALTY);

    let (before, stop) = to_stop(&mut m);
    assert_eq!(stop, StopEvent::Halted(0x55));
    assert_eq!((m.counters.stores, m.counters.uncached_data), (3, 3));
    assert_eq!(extra(&m, &before), 0);
    assert_eq!(
        m.counters.insts(),
        before.insts() + 1,
        "the halting store retires"
    );
}

#[test]
fn shift_variants_match_oracle() {
    let mut a = Asm::new("sh");
    a.global_label("main");
    a.li(T0, 0x8000_0001u32 as i32);
    a.li(T1, 7);
    a.sllv(T2, T0, T1);
    a.srlv(T3, T0, T1);
    a.inst(wrl_isa::Inst::Srav {
        rd: T4,
        rt: T0,
        rs: T1,
    });
    a.sra(T5, T0, 1);
    a.nor(T6, T0, ZERO);
    a.xori(T7, T0, 0xffff);
    a.break_(0);
    let mut m = boot(a);
    m.run(100);
    let x = 0x8000_0001u32;
    assert_eq!(m.cpu.regs[T2.idx()], x << 7);
    assert_eq!(m.cpu.regs[T3.idx()], x >> 7);
    assert_eq!(m.cpu.regs[T4.idx()], ((x as i32) >> 7) as u32);
    assert_eq!(m.cpu.regs[T5.idx()], ((x as i32) >> 1) as u32);
    assert_eq!(m.cpu.regs[T6.idx()], !x);
    assert_eq!(m.cpu.regs[T7.idx()], x ^ 0xffff);
}

#[test]
fn fp_divide_and_compare_chain() {
    let mut a = Asm::new("fpd");
    a.global_label("main");
    a.li_d(F0, -10.0);
    a.abs_d(F2, F0);
    a.li_d(F4, 4.0);
    a.div_d(F6, F2, F4); // 2.5
    a.neg_d(F8, F6); // -2.5
    a.c_le_d(F8, F6); // -2.5 <= 2.5
    a.bc1f("bad");
    a.nop();
    a.cvt_w_d(F10, F6); // trunc(2.5) = 2
    a.mfc1(T0, F10);
    a.break_(0);
    a.label("bad");
    a.break_(1);
    let mut m = boot(a);
    assert_eq!(m.run(200), StopEvent::Break(0));
    assert_eq!(m.cpu.get_d(6), 2.5);
    assert_eq!(m.cpu.get_d(8), -2.5);
    assert_eq!(m.cpu.regs[T0.idx()], 2);
}

/// A kernel-mode machine with `code` at `vaddr` in kseg0. The rest of
/// memory, the vectors included, is zeros: `nop`s.
fn kseg0_machine(mem_bytes: u32, vaddr: u32, code: &[wrl_isa::Inst]) -> Machine {
    let cfg = Config {
        mem_bytes,
        ..Config::default()
    };
    let mut m = Machine::new(cfg, vec![]);
    for (i, &inst) in code.iter().enumerate() {
        m.mem
            .write_word(vaddr - 0x8000_0000 + 4 * i as u32, wrl_isa::encode(inst));
    }
    m.set_pc(vaddr);
    m
}

/// The R3000 orders an address error on a fetch above a TLB refill: a
/// jump to a misaligned PC never reaches the TLB, so Table 3's
/// counter does not see a reference that was never made.
#[test]
fn a_misaligned_pc_is_an_address_error_before_it_is_a_tlb_miss() {
    use wrl_isa::Inst;
    use wrl_machine::TlbEntry;
    for (target, mapped) in [
        (0x0040_0002u32, false),
        (0x0040_0002, true),
        (0x8000_1002, false),
    ] {
        let mut m = kseg0_machine(1 << 20, 0x8000_0200, &[Inst::Jr { rs: T0 }]);
        if mapped {
            m.tlb.write_indexed(
                0,
                TlbEntry {
                    vpn: target >> 12,
                    pfn: 0x60,
                    valid: true,
                    ..TlbEntry::default()
                },
            );
        }
        m.cpu.regs[T0.idx()] = target;
        assert_eq!((m.step(), m.step()), (None, None), "jr and its slot");
        assert_eq!(m.cpu.pc, target);
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.pc, 0x8000_0080, "general vector, {target:#x}");
        assert_eq!((m.cp0.cause >> 2) & 31, wrl_machine::ExcCode::AdEL as u32);
        assert_eq!((m.cp0.badvaddr, m.cp0.epc), (target, target));
        assert_eq!((m.counters.utlb_misses, m.counters.ktlb_misses), (0, 0));
        assert_eq!(m.counters.exceptions[4], 1);
        assert_eq!(
            m.counters.insts(),
            2,
            "the fetch that faulted retires nothing"
        );
    }
}

/// `step` skips the I-cache inside the line it last fetched from. The
/// counts below were recorded from the binary before it did: a `cache`
/// op on the line being executed makes the next fetch from it miss.
#[test]
fn a_cache_op_on_the_line_being_executed_is_seen_by_the_next_fetch() {
    use wrl_isa::Inst;
    let flush = Inst::Cache {
        op: 0,
        base: T0,
        off: 0,
    };
    let mut m = kseg0_machine(1 << 20, 0x8000_0400, &[flush]);
    m.cpu.regs[T0.idx()] = 0x8000_0400;
    for _ in 0..5 {
        assert_eq!(m.step(), None);
    }
    // 0x400 cold, 0x404 after the flush, 0x410 the next line.
    assert_eq!(m.counters.icache_misses, 3);
    assert_eq!(m.counters.uncached_ifetches, 0);
    assert_eq!(m.counters.cycles, 5 + 3 * dec5000::IMISS_PENALTY);
}

/// IsC set and cleared between fetches from one line: the two fetches
/// under it bypass the cache, the one after it finds the line where
/// the first fetch left it. Counts recorded as above.
#[test]
fn isolating_the_cache_mid_line_bypasses_it_for_exactly_those_fetches() {
    use wrl_isa::Inst;
    let code = [
        Inst::Mtc0 { rt: T1, rd: 12 },
        Inst::Sll {
            rd: ZERO,
            rt: ZERO,
            sh: 0,
        },
        Inst::Mtc0 { rt: ZERO, rd: 12 },
    ];
    let mut m = kseg0_machine(1 << 20, 0x8000_0400, &code);
    m.cpu.regs[T1.idx()] = wrl_machine::cp0::ST_ISC;
    for _ in 0..5 {
        assert_eq!(m.step(), None);
    }
    assert_eq!(m.counters.icache_misses, 2, "0x400 and 0x410");
    assert_eq!(m.counters.uncached_ifetches, 2, "0x404 and 0x408");
    assert_eq!(
        m.counters.cycles,
        5 + 2 * dec5000::IMISS_PENALTY + 2 * dec5000::UNCACHED_PENALTY
    );
}

/// Running off the end of memory: the last word fetches, the one past
/// it is an address error — whether memory ends with a page or inside
/// one.
#[test]
fn the_last_word_of_memory_fetches_and_the_next_faults() {
    for mem_bytes in [0x2000u32, 0x1800] {
        let end = 0x8000_0000 + mem_bytes;
        let mut m = kseg0_machine(mem_bytes, end - 8, &[]);
        assert_eq!((m.step(), m.step()), (None, None));
        assert_eq!((m.counters.insts(), m.counters.icache_misses), (2, 1));
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.pc, 0x8000_0080);
        assert_eq!((m.cp0.cause >> 2) & 31, wrl_machine::ExcCode::AdEL as u32);
        assert_eq!((m.cp0.badvaddr, m.cp0.epc), (end, end));
        assert_eq!(m.counters.insts(), 2);
        assert_eq!(
            m.counters.cycles,
            2 + dec5000::IMISS_PENALTY + dec5000::EXC_ENTRY_CYCLES
        );
    }
}

/// Random ticks once per fetch that got past translation — retired or
/// not: `mfc0` reads it as of its own fetch, and `run` and `step`
/// leave it current. Counted from 63, the value at reset.
#[test]
fn random_counts_every_fetch_retired_or_not() {
    use wrl_isa::Inst;
    // Bare: two nops, `mfc0 $t0, Random` (third fetch), `break`.
    let mut a = Asm::new("rnd");
    a.global_label("main");
    a.nop();
    a.nop();
    a.mfc0(T0, 1);
    a.break_(0);
    let mut m = boot(a);
    assert_eq!(m.run(100), StopEvent::Break(0));
    assert_eq!(m.cpu.regs[T0.idx()], 60 << 8);
    assert_eq!(m.tlb.random(), 59);

    // A reserved word and a misaligned load each stop a bare machine
    // unretired, and a kernel takes the RI unretired: each fetch
    // still ticks.
    let reserved = |bare: bool| {
        let mut m = Machine::new(
            Config {
                bare,
                ..Config::default()
            },
            vec![],
        );
        m.mem.write_word(0x400, 0xffff_ffff);
        m.set_pc(0x8000_0400);
        m
    };
    let mut m = reserved(true);
    assert_eq!(m.run(10), StopEvent::UnhandledException(ExcCode::RI as u8));
    assert_eq!((m.counters.insts(), m.tlb.random()), (0, 62));
    let mut m = reserved(false);
    assert_eq!(m.step(), None);
    assert_eq!(m.cp0.cause >> 2 & 31, ExcCode::RI as u32);
    assert_eq!((m.counters.insts(), m.tlb.random()), (0, 62));
    let lw = Inst::Lw {
        rt: T1,
        base: T0,
        off: 2,
    };
    let mut m = kseg0_machine(1 << 20, 0x8000_0400, &[lw]);
    let mut bare = Machine::new(Config::bare(), vec![]);
    std::mem::swap(&mut bare.mem, &mut m.mem);
    bare.set_pc(0x8000_0400);
    assert_eq!(
        bare.run(10),
        StopEvent::UnhandledException(ExcCode::AdEL as u8)
    );
    assert_eq!((bare.counters.insts(), bare.tlb.random()), (0, 62));
}

/// An interrupt that is pending and enabled when a run begins is taken
/// before its first instruction, however the host got it there.
#[test]
fn a_pending_interrupt_is_taken_as_a_run_begins() {
    let mut m = kseg0_machine(1 << 20, 0x8000_0400, &[]);
    m.cp0.set_hw_interrupt(3, true); // IP5
    m.cp0.status = 1 | 1 << 13; // IEc, IM5
    assert_eq!(m.run(1), StopEvent::Budget);
    assert_eq!(m.counters.interrupts, 1);
    assert_eq!(m.cp0.epc, 0x8000_0400);
    assert_eq!(m.cpu.pc, 0x8000_0084, "the vector's first instruction ran");
}
