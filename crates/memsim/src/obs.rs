//! Observability for the simulator: end-of-run exports of
//! [`SimStats`] as `sim.*` gauges.
//!
//! The simulator's hot path counts in plain struct fields; this module
//! copies the finished statistics into the `wrl-obs` registry once per
//! run, so the cache/TLB model pays nothing per reference for metrics.

use crate::sim::SimStats;

wrl_obs::metrics! {
    /// Gauges mirroring [`SimStats`], set once per run by
    /// [`SimStats::export_obs`].
    pub struct SimObs mirrors SimStats {
        user_irefs: gauge "sim.irefs.user", "refs", "§5.1",
            "Simulated instruction references, user mode.";
        kernel_irefs: gauge "sim.irefs.kernel", "refs", "§5.1",
            "Simulated instruction references, kernel mode.";
        user_drefs: gauge "sim.drefs.user", "refs", "§5.1",
            "Simulated data references, user mode.";
        kernel_drefs: gauge "sim.drefs.kernel", "refs", "§5.1",
            "Simulated data references, kernel mode.";
        imisses: gauge "sim.cache.imisses", "misses", "§5.1",
            "Simulated instruction-cache misses.";
        dmisses: gauge "sim.cache.dmisses", "misses", "§5.1",
            "Simulated data-cache read misses.";
        uncached: gauge "sim.uncached", "refs", "§5.1",
            "Simulated uncached references.";
        wb_stall_cycles: gauge "sim.wb.stall_cycles", "cycles", "§5.1",
            "Simulated write-buffer stall cycles.";
        utlb_misses: gauge "sim.tlb.utlb_misses", "misses", "§5.2",
            "Predicted user-TLB misses (Table 3's predicted column).";
        synth_irefs: gauge "sim.synth.irefs", "refs", "§5.2",
            "Synthesized TLB-refill handler references.";
        idle_insts: gauge "sim.idle.insts", "insts", "§4.2",
            "Idle-loop instructions seen in the trace.";
        stores: gauge "sim.stores", "refs", "§5.1",
            "Stores seen in the trace.";
        sanity_violations: gauge "sim.sanity_violations", "errors", "§4.3",
            "Address/space sanity-check violations (healthy runs: 0).";
        kernel_cycles: gauge "sim.cycles.kernel", "cycles", "§3.4",
            "Simulated cycles attributed to kernel references.";
        user_cycles: gauge "sim.cycles.user", "cycles", "§3.4",
            "Simulated cycles attributed to user references.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_sets_gauges() {
        let s = SimStats {
            user_irefs: 44,
            kernel_irefs: 31_917,
            ..SimStats::default()
        };
        s.export_obs();
        let obs = SimObs::register();
        assert_eq!((obs.user_irefs.get(), obs.kernel_irefs.get()), (44, 31_917));
    }
}
