//! The trace-driven memory-system simulator.
//!
//! Consumes the parsed reference stream and models the DECstation
//! 5000/200 memory system: physically-indexed I/D caches, the write
//! buffer, and a 64-entry random-replacement TLB whose misses are
//! *synthesized* into UTLB-handler activity (§4.1: "Rather than
//! tracing the UTLB miss handler, we simulate the TLB, and use misses
//! in the simulator to synthesize the activity of the UTLB miss
//! handler").
//!
//! Deliberately reproduced model deficiencies (§5.1): no CPU pipeline,
//! no overlap of floating-point latency with write-buffer or cache
//! stalls (arithmetic stalls are a separate pixie-style estimate), no
//! exception entry/exit cycles, and no knowledge of explicit kernel
//! TLB writes (`tlbdropin`/`tlb_map_random`) — the stated sources of
//! Table 2/3 prediction error.

use wrl_isa::{seg, Width};
use wrl_machine::cache::{Cache, WriteBuffer};
use wrl_machine::dec5000;
use wrl_machine::tlb::{Tlb, TlbEntry, TlbLookup};
use wrl_trace::parser::{Space, TraceSink};

use crate::assoc::line_spans;
use crate::pagemap::PageMap;

/// Identifies an address space for page mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpaceKey {
    /// The kernel (kseg2 mapped pages).
    Kernel,
    /// A user space.
    User(u8),
}

impl SpaceKey {
    /// Distinct keys: the kernel and 256 ASIDs, so [`SpaceKey::index`]
    /// is below this.
    pub const COUNT: usize = 257;

    /// Whose page map translates a mapped reference: kseg2 is the
    /// kernel's, a user reference its own space's, and a kernel
    /// reference below kseg2 (copyin/copyout) the current process's.
    pub fn of(vaddr: u32, space: Space, cur_asid: u8) -> SpaceKey {
        if vaddr >= 0xc000_0000 {
            return SpaceKey::Kernel;
        }
        match space {
            Space::User(a) => SpaceKey::User(a),
            Space::Kernel => SpaceKey::User(cur_asid),
        }
    }

    /// A small integer for deterministic policy offsets.
    pub fn index(self) -> u32 {
        match self {
            SpaceKey::Kernel => 0,
            SpaceKey::User(a) => 1 + a as u32,
        }
    }
}

/// What a user-TLB miss synthesizes (§4.1): the refill handler the
/// wrl kernels install at the UTLB vector and the linear page tables
/// it loads from. `wrl-kernel`'s `vectors` tests hold these four to
/// the kernel's own layout.
pub mod utlb {
    /// Address of the refill handler (the UTLB vector).
    pub const HANDLER_VADDR: u32 = 0x8000_0000;
    /// Handler length in instructions.
    pub const N_INSTS: u32 = 9;
    /// The kseg2 page table of ASID 1; ASID `a`'s sits
    /// `(a - 1) * PAGETABLE_STRIDE` above it.
    pub const PAGETABLE_BASE: u32 = 0xc000_0000;
    /// Per-ASID stride of the page tables (2 MB).
    pub const PAGETABLE_STRIDE: u32 = 0x0020_0000;
}

/// Aggregate simulation results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Instruction references, user.
    pub user_irefs: u64,
    /// Instruction references, kernel.
    pub kernel_irefs: u64,
    /// Data references, user.
    pub user_drefs: u64,
    /// Data references, kernel.
    pub kernel_drefs: u64,
    /// I-cache misses (user/kernel).
    pub imisses: u64,
    /// I-cache misses attributed to kernel references.
    pub imisses_kernel: u64,
    /// D-cache read misses.
    pub dmisses: u64,
    /// D-cache read misses attributed to kernel references.
    pub dmisses_kernel: u64,
    /// Uncached references.
    pub uncached: u64,
    /// Write-buffer stall cycles.
    pub wb_stall_cycles: u64,
    /// Predicted user-TLB misses (Table 3's "predicted" column).
    pub utlb_misses: u64,
    /// Synthesized handler instruction references.
    pub synth_irefs: u64,
    /// Idle-loop instructions seen in the trace.
    pub idle_insts: u64,
    /// Stores seen.
    pub stores: u64,
    /// Sanity-check violations (§4.3): kernel instruction reference
    /// with a non-kernel address, and vice versa.
    pub sanity_violations: u64,
    /// Cycles attributed to kernel references (incl. synthesized
    /// refill activity) — the numerator of §3.4's kernel CPI.
    pub kernel_cycles: u64,
    /// Cycles attributed to user references.
    pub user_cycles: u64,
}

impl SimStats {
    /// Total instructions.
    pub fn insts(&self) -> u64 {
        self.user_irefs + self.kernel_irefs
    }

    /// Kernel cycles per instruction (the §3.4 Tunix measurement:
    /// "kernel cycles per instruction (CPI) were three times user
    /// CPI").
    pub fn kernel_cpi(&self) -> f64 {
        if self.kernel_irefs == 0 {
            0.0
        } else {
            self.kernel_cycles as f64 / self.kernel_irefs as f64
        }
    }

    /// User cycles per instruction.
    pub fn user_cpi(&self) -> f64 {
        if self.user_irefs == 0 {
            0.0
        } else {
            self.user_cycles as f64 / self.user_irefs as f64
        }
    }
}

/// The trace-driven simulator. Feed it through [`TraceSink`].
pub struct MemSim {
    /// Synthesize UTLB-handler activity on user-TLB misses.
    synthesize: bool,
    icache: Cache,
    dcache: Cache,
    wb: WriteBuffer,
    tlb: Tlb,
    /// The page map (policy or extracted).
    pub pagemap: PageMap,
    /// Results.
    pub stats: SimStats,
    cur_asid: u8,
    /// Cycles spent in synthesized refill activity during the current
    /// reference (so they are charged to the kernel, not the
    /// reference's own space).
    synth_delta: u64,
    /// Simulated time: one cycle per instruction plus stalls (the
    /// no-pipeline model of §5.1).
    pub cycles: u64,
}

impl MemSim {
    /// Creates a simulator of the DECstation ([`dec5000`]) over the
    /// given page map, synthesizing the wrl kernels' UTLB refill.
    pub fn new(pagemap: PageMap) -> MemSim {
        let mut tlb = Tlb::new();
        tlb.flush();
        MemSim {
            synthesize: true,
            icache: Cache::new(dec5000::ICACHE),
            dcache: Cache::new(dec5000::DCACHE),
            wb: WriteBuffer::new(dec5000::WB_ENTRIES, dec5000::WB_DRAIN_CYCLES),
            tlb,
            pagemap,
            stats: SimStats::default(),
            cur_asid: 0,
            synth_delta: 0,
            cycles: 0,
        }
    }

    /// The §4.1 ablation: TLB misses are still counted, but no handler
    /// activity is synthesized for them.
    pub fn without_utlb_synthesis(mut self) -> MemSim {
        self.synthesize = false;
        self
    }

    /// Translates a vaddr for the current context, simulating the TLB
    /// for mapped segments and synthesizing refill activity on misses.
    fn translate(&mut self, vaddr: u32, space: Space) -> (u32, bool) {
        if let Some(hit) = seg::unmapped(vaddr) {
            return hit;
        }
        let key = SpaceKey::of(vaddr, space, self.cur_asid);
        let asid = match key {
            SpaceKey::Kernel => 63,
            SpaceKey::User(a) => a,
        };
        let pfn = match self.tlb.lookup(vaddr, asid) {
            TlbLookup::Hit { pfn, .. } => pfn,
            _ => {
                let pfn = self.pagemap.frame(key, vaddr >> 12);
                self.tlb.write_random(TlbEntry {
                    vpn: vaddr >> 12,
                    asid,
                    pfn,
                    valid: true,
                    dirty: true,
                    global: false,
                    noncacheable: false,
                });
                // TLB refill: the simulator attributes every fill to
                // a miss (it cannot see tlbdropin).
                if vaddr < 0x8000_0000 {
                    self.stats.utlb_misses += 1;
                    self.synthesize_utlb(vaddr, asid);
                }
                pfn
            }
        };
        ((pfn << 12) | (vaddr & 0xfff), true)
    }

    /// Injects the UTLB handler's references (§4.1).
    fn synthesize_utlb(&mut self, faulting_vaddr: u32, asid: u8) {
        if !self.synthesize {
            return;
        }
        let t0 = self.cycles;
        for i in 0..utlb::N_INSTS {
            let pa = utlb::HANDLER_VADDR + i * 4 - 0x8000_0000;
            self.cycles += 1;
            self.tlb.tick();
            self.stats.synth_irefs += 1;
            self.stats.kernel_irefs += 1;
            if !self.icache.access(pa) {
                self.stats.imisses += 1;
                self.stats.imisses_kernel += 1;
                self.cycles += dec5000::IMISS_PENALTY;
            }
        }
        // The handler's one load: the PTE for the faulting page. The
        // table is in kseg2, so this goes back through the TLB
        // simulation and can itself take a KTLB-style refill. Total on
        // the ASID: a trace from outside may carry context 0, which no
        // kernel hands out, and the address then wraps as the
        // hardware's adder would.
        let table = utlb::PAGETABLE_BASE.wrapping_add(
            (asid as u32)
                .wrapping_sub(1)
                .wrapping_mul(utlb::PAGETABLE_STRIDE),
        );
        let pte_va = table.wrapping_add((faulting_vaddr >> 12) * 4);
        self.stats.kernel_drefs += 1;
        let (pte_pa, cached) = self.translate(pte_va, Space::Kernel);
        if cached && !self.dcache.access(pte_pa) {
            self.stats.dmisses += 1;
            self.stats.dmisses_kernel += 1;
            self.cycles += dec5000::DMISS_PENALTY;
        }
        self.stats.kernel_cycles += self.cycles - t0;
        self.synth_delta += self.cycles - t0;
    }
}

impl TraceSink for MemSim {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool) {
        let t0 = self.cycles;
        self.synth_delta = 0;
        let k = u64::from(n);
        // §4.3 sanity check: kernel instruction addresses must be in
        // the kernel instruction address space. A run's page never
        // straddles 0x8000_0000, so one check holds for all of it.
        let is_kaddr = vaddr >= 0x8000_0000;
        if matches!(space, Space::Kernel) != is_kaddr {
            self.stats.sanity_violations += k;
        }
        // One cycle and one Random step per instruction; the first
        // fetch steps Random before it translates.
        self.cycles += k;
        self.tlb.tick();
        if idle {
            self.stats.idle_insts += k;
        }
        match space {
            Space::Kernel => self.stats.kernel_irefs += k,
            Space::User(_) => self.stats.user_irefs += k,
        }
        // Only the first fetch can miss the TLB: it leaves the run's
        // page there, and the others hit it.
        let (paddr, cached) = self.translate(vaddr, space);
        self.tlb.tick_by(u64::from(n - 1));
        if cached {
            // One I-cache access per line; the rest of a line hits the
            // line its first fetch just filled.
            for (pa, _) in line_spans(paddr, n, self.icache.cfg().line) {
                if !self.icache.access(pa) {
                    self.stats.imisses += 1;
                    if matches!(space, Space::Kernel) {
                        self.stats.imisses_kernel += 1;
                    }
                    self.cycles += dec5000::IMISS_PENALTY;
                }
            }
        } else {
            self.stats.uncached += k;
            self.cycles += k * dec5000::UNCACHED_PENALTY;
        }
        let own = self.cycles - t0 - self.synth_delta;
        match space {
            Space::Kernel => self.stats.kernel_cycles += own,
            Space::User(_) => self.stats.user_cycles += own,
        }
    }

    fn dref(&mut self, vaddr: u32, store: bool, _width: Width, space: Space) {
        let t0 = self.cycles;
        self.synth_delta = 0;
        match space {
            Space::Kernel => self.stats.kernel_drefs += 1,
            Space::User(_) => self.stats.user_drefs += 1,
        }
        let (paddr, cached) = self.translate(vaddr, space);
        if store {
            self.stats.stores += 1;
            if cached {
                self.dcache.write_update(paddr);
                self.cycles = self.wb.push(self.cycles);
                self.stats.wb_stall_cycles = self.wb.stall_cycles;
            } else {
                self.stats.uncached += 1;
                self.cycles += dec5000::UNCACHED_PENALTY;
            }
        } else if cached {
            if !self.dcache.access(paddr) {
                self.stats.dmisses += 1;
                if matches!(space, Space::Kernel) {
                    self.stats.dmisses_kernel += 1;
                }
                self.cycles += dec5000::DMISS_PENALTY;
            }
        } else {
            self.stats.uncached += 1;
            self.cycles += dec5000::UNCACHED_PENALTY;
        }
        let own = self.cycles - t0 - self.synth_delta;
        match space {
            Space::Kernel => self.stats.kernel_cycles += own,
            Space::User(_) => self.stats.user_cycles += own,
        }
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagemap::Policy;

    fn sim() -> MemSim {
        MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x100 }))
    }

    #[test]
    fn kseg0_needs_no_tlb() {
        let mut s = sim();
        s.irefs(0x8003_0000, 1, Space::Kernel, false);
        assert_eq!(s.stats.utlb_misses, 0);
        assert_eq!(s.stats.kernel_irefs, 1);
        assert_eq!(s.stats.imisses, 1);
    }

    #[test]
    fn user_ref_synthesizes_utlb_handler() {
        let mut s = sim();
        s.irefs(0x0040_0000, 1, Space::User(1), false);
        // One UTLB miss, nine synthesized handler irefs + our iref.
        assert_eq!(s.stats.utlb_misses, 1);
        assert_eq!(s.stats.synth_irefs, 9);
        assert_eq!(s.stats.kernel_irefs, 9);
        assert_eq!(s.stats.user_irefs, 1);
        assert_eq!(s.stats.kernel_drefs, 1); // the PTE load
                                             // Second touch of the same page: no miss.
        s.irefs(0x0040_0004, 1, Space::User(1), false);
        assert_eq!(s.stats.utlb_misses, 1);
    }

    #[test]
    fn utlb_synthesis_can_be_disabled() {
        let mut s = MemSim::new(PageMap::new(Policy::Identity)).without_utlb_synthesis();
        s.irefs(0x0040_0000, 1, Space::User(1), false);
        assert_eq!(s.stats.utlb_misses, 1);
        assert_eq!(s.stats.synth_irefs, 0);
    }

    /// Context 0 is no kernel's, but a trace from outside may carry
    /// it — as a user space, or as the current process before the
    /// first context switch. The PTE address wraps below ASID 1's
    /// table (into kseg1); it must not panic.
    #[test]
    fn a_user_miss_in_context_zero_synthesizes_without_panicking() {
        let mut s = sim();
        s.irefs(0x0040_0000, 1, Space::User(0), false);
        s.dref(0x1000_0000, false, Width::Word, Space::Kernel);
        assert_eq!(s.stats.utlb_misses, 2);
        assert_eq!(s.stats.synth_irefs, 18);
        assert_eq!(
            s.stats.kernel_drefs, 3,
            "two PTE loads and the kernel's own"
        );
    }

    #[test]
    fn writes_go_through_write_buffer() {
        let mut s = sim();
        for i in 0..100 {
            s.dref(0x0100_0000 + i * 4, true, Width::Word, Space::User(0));
        }
        assert!(s.stats.wb_stall_cycles > 0);
        assert_eq!(s.stats.stores, 100);
    }

    #[test]
    fn uncached_kseg1_counts() {
        let mut s = sim();
        s.dref(0xbc00_0000, false, Width::Word, Space::Kernel);
        assert_eq!(s.stats.uncached, 1);
    }

    #[test]
    fn sanity_check_flags_wrong_space() {
        let mut s = sim();
        s.irefs(0x0040_0000, 1, Space::Kernel, false);
        assert_eq!(s.stats.sanity_violations, 1);
    }

    #[test]
    fn page_colouring_affects_cache_conflicts() {
        // Two virtual pages that map to conflicting frames under one
        // policy but not another change the miss count.
        let mut ident = MemSim::new(PageMap::new(Policy::Identity)).without_utlb_synthesis();
        // 64 KB cache = 16 colours; vpn 0 and vpn 16 share a colour
        // under identity mapping.
        for _ in 0..100 {
            ident.dref(0x0000_0100, false, Width::Word, Space::User(0));
            ident.dref(0x0001_0100, false, Width::Word, Space::User(0));
        }
        assert!(ident.stats.dmisses >= 200, "conflicting colours thrash");
        let mut seq =
            MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0 })).without_utlb_synthesis();
        for _ in 0..100 {
            seq.dref(0x0000_0100, false, Width::Word, Space::User(0));
            seq.dref(0x0001_0100, false, Width::Word, Space::User(0));
        }
        assert!(seq.stats.dmisses <= 4, "adjacent frames do not conflict");
    }
}
