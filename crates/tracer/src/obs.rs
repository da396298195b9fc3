//! Observability for the analysis framework: per-pass shape gauges,
//! cumulative work counters, and the §4.3-style sink-failure tally.
//!
//! Rows in `docs/METRICS.md` are kept honest by the
//! `metrics_doc_sync` test.

use crate::driver::StackReport;

wrl_obs::metrics! {
    /// Counters and gauges for the `tracer.*` family.
    #[derive(Clone)]
    pub struct TracerObs {
        passes: counter "tracer.passes", "passes", "§3.4",
            "Completed one-pass analyses (each feeds every composed sink).";
        sinks: gauge "tracer.sinks", "sinks", "§3.4",
            "Analysis sinks composed in the last pass.";
        words: gauge "tracer.words", "words", "§3.4",
            "Trace words in the last pass (each worker of a store pass reads them all).";
        applied: counter "tracer.events.applied", "events", "§3.4",
            "Event-to-sink applications routed (references x sinks: a run of fetches counts once per fetch; a latched sink included, so it differs from references x live sinks only on a pass with a failed slot).";
        sink_errors: counter "tracer.sink_errors", "errors", "§4.3",
            "Sinks that latched a typed error mid-pass and reported it (siblings unaffected).";
    }
}

impl TracerObs {
    /// Records one finished pass.
    pub fn record(&self, report: &StackReport, n_sinks: usize) {
        self.passes.inc();
        self.sinks.set(n_sinks as i64);
        self.words.set(report.words as i64);
        self.applied.add(report.applied);
        self.sink_errors.add(report.failed() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::ParseStats;

    #[test]
    fn record_sets_pass_shape() {
        let obs = TracerObs::register();
        let report = StackReport {
            reports: vec![Err(crate::SinkError::new("x", "boom"))],
            parse: ParseStats::default(),
            words: 17,
            applied: 5,
        };
        let (before, applied) = (obs.passes.get(), obs.applied.get());
        obs.record(&report, 3);
        assert_eq!(obs.passes.get(), before + 1);
        assert_eq!(obs.applied.get(), applied + 5);
        assert_eq!(obs.sink_errors.get(), 1);
    }
}
