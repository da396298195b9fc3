//! Property-based tests of the machine substrate: memory access
//! consistency, write-buffer timing monotonicity, TLB invariants, and
//! arithmetic correctness of the executor against a Rust oracle.

use proptest::prelude::*;
use wrl_machine::cache::{Cache, CacheCfg, WriteBuffer};
use wrl_machine::mem::Mem;
use wrl_machine::tlb::{Tlb, TlbEntry, TlbLookup};

proptest! {
    /// Byte/half/word views of memory agree with a little-endian
    /// shadow model.
    #[test]
    fn memory_matches_shadow(ops in proptest::collection::vec(
        (0u32..4096, any::<u32>(), 0u8..3), 1..200))
    {
        let mut m = Mem::new(8192);
        let mut shadow = vec![0u8; 8192];
        for (addr, val, kind) in ops {
            match kind {
                0 => {
                    m.write_byte(addr, val as u8);
                    shadow[addr as usize] = val as u8;
                }
                1 => {
                    let a = addr & !1;
                    m.write_half(a, val as u16);
                    shadow[a as usize..a as usize + 2]
                        .copy_from_slice(&(val as u16).to_le_bytes());
                }
                _ => {
                    let a = addr & !3;
                    m.write_word(a, val);
                    shadow[a as usize..a as usize + 4].copy_from_slice(&val.to_le_bytes());
                }
            }
        }
        for a in (0..8192u32).step_by(4) {
            let want = u32::from_le_bytes(shadow[a as usize..a as usize + 4].try_into().unwrap());
            prop_assert_eq!(m.read_word(a), want);
        }
    }

    /// The write buffer never travels backwards in time and never
    /// reports spurious stalls when drained.
    #[test]
    fn write_buffer_time_is_monotonic(gaps in proptest::collection::vec(0u64..40, 1..300)) {
        let mut wb = WriteBuffer::new(4, 5);
        let mut now = 0u64;
        let mut prev_stalls = 0;
        for g in gaps {
            now += g;
            let after = wb.push(now);
            prop_assert!(after >= now);
            prop_assert!(wb.stall_cycles >= prev_stalls);
            // A stall can only grow when the buffer was pressed.
            if after > now {
                prop_assert!(wb.stall_cycles > prev_stalls);
            }
            prev_stalls = wb.stall_cycles;
            now = after;
        }
    }

    /// Direct-mapped cache: hit iff the most recent access to this
    /// index had the same tag (oracle model).
    #[test]
    fn cache_matches_oracle(addrs in proptest::collection::vec(0u32..(1 << 16), 1..400)) {
        let cfg = CacheCfg { size: 2048, line: 16 };
        let mut c = Cache::new(cfg);
        let lines = cfg.size / cfg.line;
        let mut oracle = vec![u32::MAX; lines as usize];
        for a in addrs {
            let lineno = a / cfg.line;
            let idx = (lineno % lines) as usize;
            let want_hit = oracle[idx] == lineno;
            prop_assert_eq!(c.access(a), want_hit);
            oracle[idx] = lineno;
        }
    }

    /// `lookup` answers as `scan` does over any sequence of writes and
    /// lookups: every page a multiple of 64 — user text at `0x400`,
    /// data at `0x10000`, kseg2's page tables at `0xc0000` among them —
    /// so all share a slot mod 64, and more pages than the memo has
    /// slots, so some share one under any slot function; the ASID
    /// changes between lookups, and entries are global, invalid or
    /// duplicates.
    #[test]
    fn tlb_lookup_equals_scan(ops in proptest::collection::vec(
        (0u8..4, 0u32..131, 0u8..64, 0u8..8), 1..400))
    {
        let page = |x: u32| match x {
            128 => 0x400,
            129 => 0x10000,
            130 => 0xc0000,
            x => 0x40 * x,
        };
        let mut t = Tlb::new();
        t.flush();
        let mut asid = 0u8;
        for (kind, x, a, flags) in ops {
            let e = TlbEntry {
                vpn: page(x), asid: a % 8, pfn: x * 8 + u32::from(flags),
                valid: flags != 0, global: flags & 2 != 0, dirty: flags & 4 != 0,
                noncacheable: x & 1 != 0,
            };
            match kind {
                0 => {
                    t.tick();
                    t.write_random(e);
                }
                1 => t.write_indexed(usize::from(a), e),
                _ => asid = a % 8,
            }
            for p in x.saturating_sub(2)..(x + 3).min(131) {
                let vaddr = (page(p) << 12) | 0xabc;
                prop_assert_eq!(t.lookup(vaddr, asid), t.scan(vaddr, asid), "page {:#x}", page(p));
            }
        }
        for a in 0..8 {
            for p in 0..131 {
                let vaddr = page(p) << 12;
                prop_assert_eq!(t.lookup(vaddr, a), t.scan(vaddr, a), "page {:#x}", page(p));
            }
        }
    }

    /// TLB: after a random write, looking up that page hits; wired
    /// entries survive any number of random writes.
    #[test]
    fn tlb_random_write_invariants(pages in proptest::collection::vec(1u32..0x4000, 1..150)) {
        let mut t = Tlb::new();
        t.flush();
        // A wired mapping in entry 0.
        t.write_indexed(0, TlbEntry {
            vpn: 0xabcd0, asid: 9, pfn: 0x42, valid: true, dirty: true,
            global: false, noncacheable: false,
        });
        for vpn in pages {
            t.tick();
            t.write_random(TlbEntry {
                vpn, asid: 1, pfn: vpn + 7, valid: true, dirty: true,
                global: false, noncacheable: false,
            });
            match t.lookup(vpn << 12, 1) {
                TlbLookup::Hit { pfn, .. } => prop_assert_eq!(pfn, vpn + 7),
                other => {
                    // A duplicate older entry for the same vpn may
                    // shadow the new one; it must still be a hit.
                    prop_assert!(matches!(other, TlbLookup::Hit { .. }), "{:?}", other);
                }
            }
        }
        // The wired entry is untouched.
        let wired = t.lookup(0xabcd0 << 12, 9);
        prop_assert!(matches!(wired, TlbLookup::Hit { pfn: 0x42, .. }), "wired entry lost");
    }
}

mod exec_oracle {
    use super::*;
    use wrl_isa::asm::Asm;
    use wrl_isa::link::{link, Layout};
    use wrl_isa::reg::*;
    use wrl_machine::{Config, ExcCode, Machine, StopEvent};

    /// ALU operations agree with Rust's wrapping arithmetic.
    #[derive(Debug, Clone, Copy)]
    pub enum Op {
        Add,
        Sub,
        And,
        Or,
        Xor,
        Slt,
        Sltu,
        MulLo,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Add),
            Just(Op::Sub),
            Just(Op::And),
            Just(Op::Or),
            Just(Op::Xor),
            Just(Op::Slt),
            Just(Op::Sltu),
            Just(Op::MulLo),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn alu_matches_rust(a in any::<i32>(), b in any::<i32>(), o in op()) {
            let mut asmr = Asm::new("alu");
            asmr.global_label("main");
            asmr.li(T0, a);
            asmr.li(T1, b);
            match o {
                Op::Add => asmr.addu(T2, T0, T1),
                Op::Sub => asmr.subu(T2, T0, T1),
                Op::And => asmr.and(T2, T0, T1),
                Op::Or => asmr.or(T2, T0, T1),
                Op::Xor => asmr.xor(T2, T0, T1),
                Op::Slt => asmr.slt(T2, T0, T1),
                Op::Sltu => asmr.sltu(T2, T0, T1),
                Op::MulLo => {
                    asmr.mult(T0, T1);
                    asmr.mflo(T2);
                }
            }
            asmr.break_(0);
            let linked = link(&[asmr.finish()], Layout::user(), "main").unwrap();
            let mut m = Machine::new(Config::bare(), vec![]);
            m.load_executable(&linked.exe);
            m.set_pc(linked.exe.entry);
            prop_assert_eq!(m.run(100), StopEvent::Break(0));
            let want = match o {
                Op::Add => a.wrapping_add(b) as u32,
                Op::Sub => a.wrapping_sub(b) as u32,
                Op::And => (a & b) as u32,
                Op::Or => (a | b) as u32,
                Op::Xor => (a ^ b) as u32,
                Op::Slt => u32::from(a < b),
                Op::Sltu => u32::from((a as u32) < (b as u32)),
                Op::MulLo => (a as i64).wrapping_mul(b as i64) as u32,
            };
            prop_assert_eq!(m.cpu.regs[T2.idx()], want);
        }

        #[test]
        fn fp_add_mul_match_rust(x in -1.0e6f64..1.0e6, y in -1.0e6f64..1.0e6) {
            let mut asmr = Asm::new("fp");
            asmr.global_label("main");
            asmr.li_d(F0, x);
            asmr.li_d(F2, y);
            asmr.add_d(F4, F0, F2);
            asmr.mul_d(F6, F0, F2);
            asmr.break_(0);
            let linked = link(&[asmr.finish()], Layout::user(), "main").unwrap();
            let mut m = Machine::new(Config::bare(), vec![]);
            m.load_executable(&linked.exe);
            m.set_pc(linked.exe.entry);
            prop_assert_eq!(m.run(100), StopEvent::Break(0));
            prop_assert_eq!(m.cpu.get_d(4), x + y);
            prop_assert_eq!(m.cpu.get_d(6), x * y);
        }
    }

    /// Segment bases: kuseg (mapped), kseg0, kseg1, kseg2 (mapped).
    const SEGS: [u32; 4] = [0x0040_0000, 0x8000_0000, 0xa000_0000, 0xc000_0000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `probe_translate` is the side-effect-free half of the
        /// architectural translation, not a second map: in kernel mode
        /// it answers `Some(p)` exactly when a load from the address
        /// translates, the load reads from that `p`, and the probe
        /// moves no counter.
        #[test]
        fn probe_translate_agrees_with_a_kernel_load(
            entries in proptest::collection::vec(
                (any::<bool>(), 0u32..4, 0u8..3, 0u32..64, 0u8..8), 0..16),
            cur_asid in 0u32..3,
            seg in 0usize..4,
            page in 0u32..4,
            word in 0u32..1024,
        ) {
            const CODE: u32 = 0x8_0000; // clear of every frame below
            const SENTINEL: u32 = 0x5eed_cafe;
            let cfg = Config { mem_bytes: 1 << 20, ..Config::default() };
            let mut m = Machine::new(cfg, vec![]);
            for (i, &(kseg2, vpn, asid, pfn, flags)) in entries.iter().enumerate() {
                m.tlb.write_indexed(i, TlbEntry {
                    vpn: (SEGS[if kseg2 { 3 } else { 0 }] >> 12) + vpn,
                    asid,
                    pfn,
                    valid: flags & 1 != 0,
                    global: flags & 2 != 0,
                    dirty: flags & 4 != 0,
                    noncacheable: false,
                });
            }
            m.cp0.entryhi = cur_asid << 6;
            let vaddr = SEGS[seg] + (page << 12) + word * 4;

            let before = format!("{:?}", m.counters);
            let probed = m.probe_translate(vaddr);
            prop_assert_eq!(format!("{:?}", m.counters), before);

            if let Some(paddr) = probed {
                m.mem.write_word(paddr, SENTINEL);
            }
            m.mem.write_word(CODE, wrl_isa::encode(wrl_isa::Inst::Lw { rt: T1, base: T0, off: 0 }));
            m.set_pc(SEGS[1] + CODE);
            m.cpu.regs[T0.idx()] = vaddr;
            prop_assert_eq!(m.step(), None);
            let faulted = m.counters.exceptions.iter().sum::<u64>() != 0;
            prop_assert_eq!(probed.is_some(), !faulted, "probe {:?} at {:#x}", probed, vaddr);
            if probed.is_some() {
                prop_assert_eq!(m.cpu.regs[T1.idx()], SENTINEL);
            }
        }
    }

    /// A machine whose frames 0x10..0x14 each hold `addiu $t0,$zero,K`
    /// in every word, K the frame's number: a fetch says where it came
    /// from.
    fn machine_of_marked_frames() -> Machine {
        let cfg = Config {
            mem_bytes: 1 << 20,
            ..Config::default()
        };
        let mut m = Machine::new(cfg, vec![]);
        for pfn in 0x10..0x14u32 {
            let w = wrl_isa::encode(wrl_isa::Inst::Addiu {
                rt: T0,
                rs: ZERO,
                imm: pfn as i16,
            });
            for off in (0..0x1000).step_by(4) {
                m.mem.write_word((pfn << 12) + off, w);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The machine remembers the page it fetches from, and learns
        /// that the page moved only from the instructions and the run
        /// entries that can move it. Whatever re-points the page between
        /// two fetches from it — an instruction in the page itself or
        /// the host's hand on the `pub` fields — the next fetch comes
        /// from the frame `probe_translate` names, or is the miss it
        /// should be.
        #[test]
        fn a_repointed_page_is_fetched_from_where_it_points_now(
            how in 0u8..6,
            frames in (0u32..4, 0u32..4),
            asids in (0u32..64, 0u32..64),
            other_is_mapped in any::<bool>(),
            word in 0u32..1022,
        ) {
            use wrl_isa::Inst;
            const V: u32 = 0x0040_0000;
            let (a, b) = (0x10 + frames.0, 0x10 + frames.1);
            let (asid, other) = asids;
            let entry = |asid: u32, pfn: u32, valid: bool| TlbEntry {
                vpn: V >> 12, asid: asid as u8, pfn, valid, dirty: false,
                global: false, noncacheable: false,
            };
            let mut m = machine_of_marked_frames();
            // The last entry, so that any `tlbwr` shadows or replaces it.
            m.tlb.write_indexed(63, entry(asid, a, true));
            if other_is_mapped {
                m.tlb.write_indexed(5, entry(other, b, true));
            }
            m.cp0.entryhi = asid << 6;
            let pc = V + word * 4;
            m.set_pc(pc);
            prop_assert_eq!(m.step(), None);
            prop_assert_eq!(m.cpu.regs[T0.idx()], a, "the first fetch, from frame a");

            // Re-point the page; `by` is an instruction that does it
            // from inside the page, fetched through the old mapping.
            let by = match how {
                0 | 1 => {
                    m.cp0.entryhi = V | asid << 6;
                    m.cp0.entrylo = entry(asid, b, true).entry_lo();
                    m.cp0.index = 63 << 8;
                    Some(if how == 0 { Inst::Tlbwi } else { Inst::Tlbwr })
                }
                2 => {
                    m.tlb.write_indexed(63, entry(asid, b, true));
                    None
                }
                3 => {
                    m.cpu.regs[T1.idx()] = other << 6;
                    Some(Inst::Mtc0 { rt: T1, rd: 10 })
                }
                4 => {
                    m.cp0.entryhi = other << 6;
                    None
                }
                _ => {
                    m.tlb.write_indexed(63, entry(asid, a, false));
                    None
                }
            };
            // An instruction runs with the next fetch in one `run`, so
            // that nothing but the instruction tells the machine.
            let mut pc = pc + 4;
            let mut insts = 1;
            if let Some(inst) = by {
                m.mem.write_word((a << 12) + (pc & 0xfff), wrl_isa::encode(inst));
                pc += 4;
                insts = 2;
            }
            let faults = m.counters.exceptions.iter().sum::<u64>();
            m.cpu.regs[T0.idx()] = 0;
            prop_assert_eq!(m.run(insts), StopEvent::Budget);
            // A miss vectors to a `nop`, which the budget retires.
            let names = m.probe_translate(pc);
            match names {
                Some(paddr) => {
                    prop_assert_eq!(m.cpu.regs[T0.idx()], paddr >> 12, "how {}", how);
                    prop_assert_eq!(m.counters.exceptions.iter().sum::<u64>(), faults);
                }
                None => {
                    prop_assert_eq!(m.cpu.regs[T0.idx()], 0, "how {}", how);
                    prop_assert_eq!(m.counters.exceptions[ExcCode::TlbL as usize], 1);
                    prop_assert_eq!(m.cp0.badvaddr, pc);
                }
            }
        }
    }

    /// The mode a page was fetched in is part of what `step` remembers
    /// of it: `rfe` into user mode, and the next fetch from the same
    /// kseg0 page is the address error it always was.
    #[test]
    fn rfe_into_user_mode_then_a_fetch_from_the_same_kseg0_page_is_adel() {
        let mut m = machine_of_marked_frames();
        m.mem
            .write_word(0x10_000, wrl_isa::encode(wrl_isa::Inst::Rfe));
        m.cp0.status = 0b1000; // KUp: user after the pop
        m.set_pc(0x8001_0000);
        assert_eq!(m.step(), None);
        assert!(m.cp0.user_mode());
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.regs[T0.idx()], 0, "nothing was fetched");
        assert_eq!(m.counters.exceptions[ExcCode::AdEL as usize], 1);
        assert_eq!((m.cp0.badvaddr, m.cpu.pc), (0x8001_0004, 0x8000_0080));
    }
}
