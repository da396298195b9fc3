//! Hardware event counters.
//!
//! These play the role of the paper's measurement hardware: the
//! high-resolution timer used for Table 2's "measured" column and the
//! kernel's user-TLB miss counter used for Table 3. They also include
//! the per-address reference-counting facility of §4.3 ("reference
//! counting tools were used to make a dynamic count of the number of
//! times each instruction in the kernel was executed").

use std::collections::HashMap;

/// Event counters maintained by the machine.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Instructions retired in user mode.
    pub user_insts: u64,
    /// Instructions retired in kernel mode.
    pub kernel_insts: u64,
    /// Total machine cycles (the "high resolution timer").
    pub cycles: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache read misses.
    pub dcache_misses: u64,
    /// Uncached instruction fetches (kseg1 or isolated cache).
    pub uncached_ifetches: u64,
    /// Uncached data references.
    pub uncached_data: u64,
    /// Cycles stalled on a full write buffer.
    pub wb_stall_cycles: u64,
    /// Cycles stalled on floating-point/HI-LO interlocks, as they
    /// actually occurred (overlapped with memory delays).
    pub fp_stall_cycles: u64,
    /// FP/HI-LO interlock cycles as a *pixie-style static estimate*:
    /// computed against an ideal 1-cycle-per-instruction clock with no
    /// memory delays. This is the "arithmetic stalls measured by
    /// pixie" input to the §5.1 time predictor.
    pub fp_stall_ideal: u64,
    /// User-segment TLB refill exceptions (the UTLB miss counter).
    pub utlb_misses: u64,
    /// Mapped-kernel-segment TLB misses (KTLB, via the general vector).
    pub ktlb_misses: u64,
    /// Exceptions taken, by cause code index.
    pub exceptions: [u64; 16],
    /// External interrupts delivered.
    pub interrupts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Instructions retired while the PC was in the configured
    /// idle-loop range.
    pub idle_insts: u64,
}

impl Counters {
    /// Total instructions retired.
    pub fn insts(&self) -> u64 {
        self.user_insts + self.kernel_insts
    }

    /// The sum of every counter but the instruction, cycle and idle
    /// counts: of side effects and stalls. They only grow, so within a
    /// run an unchanged sum is every one of them unchanged. (A new
    /// counter does not compile here until it is placed.)
    pub(crate) fn effects(&self) -> u64 {
        let Counters {
            user_insts: _,
            kernel_insts: _,
            cycles: _,
            idle_insts: _,
            icache_misses,
            dcache_misses,
            uncached_ifetches,
            uncached_data,
            wb_stall_cycles,
            fp_stall_cycles,
            fp_stall_ideal,
            utlb_misses,
            ktlb_misses,
            exceptions,
            interrupts,
            loads,
            stores,
        } = self;
        let stalls = wb_stall_cycles + fp_stall_cycles + fp_stall_ideal;
        let misses = icache_misses + dcache_misses + utlb_misses + ktlb_misses;
        let uncached = uncached_ifetches + uncached_data;
        let traps = exceptions.iter().sum::<u64>() + interrupts;
        stalls + misses + uncached + traps + loads + stores
    }
}

wrl_obs::metrics! {
    /// Gauges mirroring the hot [`Counters`] fields, set once per run by
    /// [`Counters::export_obs`] — the end-of-run export of the
    /// "measurement hardware" readings. The machine keeps counting in
    /// plain fields on its hot path; the export copies them out, so
    /// enabling metrics costs the simulated machine nothing per
    /// instruction.
    pub struct CountersObs mirrors Counters {
        cycles: gauge "machine.cycles", "cycles", "§5.1",
            "Total machine cycles (the high-resolution timer).";
        user_insts: gauge "machine.insts.user", "insts", "§5.1",
            "Instructions retired in user mode.";
        kernel_insts: gauge "machine.insts.kernel", "insts", "§5.1",
            "Instructions retired in kernel mode.";
        idle_insts: gauge "machine.insts.idle", "insts", "§4.2",
            "Instructions retired inside the idle loop.";
        utlb_misses: gauge "machine.tlb.utlb_misses", "misses", "§5.2",
            "User-segment TLB refill exceptions (Table 3's counter).";
        ktlb_misses: gauge "machine.tlb.ktlb_misses", "misses", "§5.2",
            "Mapped-kernel-segment TLB misses.";
        icache_misses: gauge "machine.cache.imisses", "misses", "§5.1",
            "Instruction-cache misses.";
        dcache_misses: gauge "machine.cache.dmisses", "misses", "§5.1",
            "Data-cache read misses.";
        uncached_ifetches: gauge "machine.cache.uncached_ifetches", "fetches", "§5.1",
            "Uncached instruction fetches.";
        wb_stall_cycles: gauge "machine.wb.stall_cycles", "cycles", "§5.1",
            "Cycles stalled on a full write buffer.";
        interrupts: gauge "machine.interrupts", "interrupts", "§3.3",
            "External interrupts delivered.";
        exceptions: gauge "machine.exceptions", "exceptions", "§3.3",
            "Exceptions taken (all cause codes summed)."
            = |c: &Counters| c.exceptions.iter().sum::<u64>();
    }
}

/// Optional per-address execution counting (§4.3's reference counter).
#[derive(Clone, Debug, Default)]
pub struct RefCounter {
    counts: HashMap<u32, u64>,
}

impl RefCounter {
    /// Creates an empty counter.
    pub fn new() -> RefCounter {
        RefCounter::default()
    }

    /// Records one execution of the instruction at `vaddr`.
    #[inline]
    pub fn bump(&mut self, vaddr: u32) {
        *self.counts.entry(vaddr).or_insert(0) += 1;
    }

    /// Execution count of the instruction at `vaddr`.
    pub fn count(&self, vaddr: u32) -> u64 {
        self.counts.get(&vaddr).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_computation() {
        let c = Counters {
            user_insts: 80,
            kernel_insts: 20,
            cycles: 250,
            ..Counters::default()
        };
        assert_eq!(c.insts(), 100);
    }

    #[test]
    fn refcounter_ranges() {
        let mut r = RefCounter::new();
        for _ in 0..3 {
            r.bump(0x100);
        }
        r.bump(0x104);
        r.bump(0x200);
        assert_eq!(r.count(0x100), 3);
        assert_eq!(r.count(0x300), 0);
    }
}
