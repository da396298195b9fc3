//! Facade over [`wrl_obs`]: re-exports the metrics API and registers
//! every metric the stack defines.
//!
//! Binaries call [`register_all`] once at startup so the registry is
//! fully populated *before* any work runs — exports and the
//! `docs/METRICS.md` sync test then see the complete metric set even
//! for recording sites that never fire.

pub use wrl_obs::*;

/// Registers every metric in the stack (idempotent). The full set,
/// with name / type / unit / source site / paper section for each, is
/// documented in `docs/METRICS.md`; a sync test keeps that table and
/// this registry equal.
pub fn register_all() {
    crate::harness::HarnessObs::register();
    wrl_trace::ParserObs::register();
    wrl_trace::ParseStatsObs::register();
    wrl_trace::stream::StreamObs::register();
    wrl_machine::CountersObs::register();
    wrl_memsim::SimObs::register();
    wrl_store::StoreObs::register();
    wrl_tracer::TracerObs::register();
    wrl_serve::ServeObs::register();
    wrl_fault::FaultObs::register();
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_all_is_idempotent_and_nonempty() {
        super::register_all();
        super::register_all();
        let snap = wrl_obs::global().snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|m| m.desc.name).collect();
        for expect in [
            "harness.phase.build",
            "trace.parse.words",
            "stream.chunks",
            "machine.cycles",
            "sim.irefs.kernel",
            "store.blocks",
            "tracer.passes",
            "serve.requests.query",
            "fault.forbidden",
        ] {
            assert!(names.contains(&expect), "{expect} missing from registry");
        }
    }
}
