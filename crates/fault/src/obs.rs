//! Observability for chaos campaigns: the `fault.*` counter family.
//!
//! One counter per [`crate::Outcome`] class plus a plans-run total,
//! bumped live as [`crate::run_campaign`] classifies each plan. A
//! healthy campaign records `fault.forbidden = 0` — that row being
//! zero *is* the campaign's pass criterion, so exporting it makes the
//! chaos run auditable from the metrics artifact alone, like every
//! other §4.3 defensive tally. Rows in `docs/METRICS.md` are kept
//! honest by the `metrics_doc_sync` test.

use crate::chaos::Outcome;

wrl_obs::metrics! {
    /// Live tallies for a chaos campaign's outcomes.
    #[derive(Clone)]
    pub struct FaultObs {
        plans: counter "fault.plans", "plans", "§4.3",
            "Fault plans executed by chaos campaigns this run.";
        detected: counter "fault.detected", "plans", "§4.3",
            "Injected faults surfaced as typed errors or defensive tallies.";
        harmless: counter "fault.harmless", "plans", "§4.3",
            "Injected faults with bit-identical results (stalls, slow writes).";
        absorbed: counter "fault.absorbed", "plans", "§4.3",
            "Faults forging well-formed traces, processed deterministically.";
        forbidden: counter "fault.forbidden", "plans", "§4.3",
            "Panics or silently wrong answers under fault (must stay 0).";
    }
}

impl FaultObs {
    /// Bumps the plan total and the matching outcome counter.
    pub fn tally(&self, outcome: &Outcome) {
        self.plans.inc();
        match outcome {
            Outcome::Detected { .. } => self.detected.inc(),
            Outcome::Harmless => self.harmless.inc(),
            Outcome::Absorbed => self.absorbed.inc(),
            Outcome::Forbidden { .. } => self.forbidden.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_tallied_to_their_counter() {
        let obs = FaultObs::register();
        let before = (obs.plans.get(), obs.detected.get(), obs.forbidden.get());
        obs.tally(&Outcome::Detected { what: "x".into() });
        obs.tally(&Outcome::Harmless);
        assert_eq!(obs.plans.get(), before.0 + 2);
        assert_eq!(obs.detected.get(), before.1 + 1);
        assert_eq!(obs.forbidden.get(), before.2, "nothing forbidden here");
    }
}
