//! Observability for the trace path: defensive-check error tallies
//! (recorded live as the parser detects them) and end-of-run exports
//! of the aggregate [`ParseStats`].
//!
//! The split matters: §4.3's redundancy checks are *rare-path* events
//! worth counting the moment they fire (a healthy system records all
//! zeros), while the aggregate parse statistics are already counted
//! exactly by [`ParseStats`] and are exported once per run instead of
//! double-counting every hot-path word.

use crate::parser::{ParseError, ParseStats};

wrl_obs::metrics! {
    /// Live counters for every [`ParseError`] variant. Register once and
    /// attach to a parser with [`crate::TraceParser::attach_obs`]; the
    /// parser bumps the matching counter on each detected error (a cold
    /// path — errors mean a corrupted trace).
    #[derive(Clone)]
    pub struct ParserObs {
        unknown_bb: counter "trace.parse.error.unknown_bb", "errors", "§4.3",
            "Addresses consumed as block ids with no table entry.";
        wrong_space: counter "trace.parse.error.wrong_space", "errors", "§4.3",
            "Kernel-range block ids seen in a user context.";
        bad_control: counter "trace.parse.error.bad_control", "errors", "§4.3",
            "Control-range words with no known opcode.";
        truncated: counter "trace.parse.error.truncated", "errors", "§4.3",
            "Blocks still owed memory words at end of stream.";
        unbalanced_kexit: counter "trace.parse.error.unbalanced_kexit", "errors", "§4.3",
            "KExit control words with no matching KEnter.";
        no_table_for_asid: counter "trace.parse.error.no_table_for_asid", "errors", "§4.3",
            "Context switches to an ASID with no registered table.";
    }
}

impl ParserObs {
    /// Bumps the counter matching one detected error.
    pub(crate) fn tally(&self, e: &ParseError) {
        match e {
            ParseError::UnknownBb { .. } => self.unknown_bb.inc(),
            ParseError::WrongSpace { .. } => self.wrong_space.inc(),
            ParseError::BadControl { .. } => self.bad_control.inc(),
            ParseError::Truncated { .. } => self.truncated.inc(),
            ParseError::UnbalancedKExit { .. } => self.unbalanced_kexit.inc(),
            ParseError::NoTableForAsid { .. } => self.no_table_for_asid.inc(),
        }
    }
}

wrl_obs::metrics! {
    /// Gauges mirroring [`ParseStats`], set once per run by
    /// [`ParseStats::export_obs`].
    pub struct ParseStatsObs mirrors ParseStats {
        words: gauge "trace.parse.words", "words", "§3.3",
            "Raw trace words consumed by the last parse.";
        bb_records: gauge "trace.parse.bb_records", "records", "§3.3",
            "Basic-block records in the last parse.";
        mem_records: gauge "trace.parse.mem_records", "records", "§3.3",
            "Memory-reference records in the last parse.";
        mode_transitions: gauge "trace.parse.mode_transitions", "events", "§4.3",
            "Generation→analysis transitions (trace 'dirt' events).";
        kernel_entries: gauge "trace.parse.kernel_entries", "events", "§3.3",
            "Kernel entries observed in the last parse.";
        ctx_switches: gauge "trace.parse.ctx_switches", "events", "§3.3",
            "Context switches observed in the last parse.";
        errors: gauge "trace.parse.errors", "errors", "§4.3",
            "Total defensive-check errors in the last parse.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbinfo::BbTable;
    use crate::parser::TraceParser;
    use std::sync::Arc;

    #[test]
    fn attached_parser_tallies_errors_live() {
        let obs = ParserObs::register();
        let before = obs.unknown_bb.get();
        let mut p = TraceParser::new(Arc::new(BbTable::new()));
        p.set_user_table(0, Arc::new(BbTable::new()));
        p.attach_obs(obs.clone());
        // An unknown user block id and a kernel address in user context.
        p.parse_all(&[0x0066_0000, 0x8003_0000], &mut ());
        assert_eq!(p.stats.errors, 2);
        assert_eq!(obs.unknown_bb.get(), before + 1);
    }

    #[test]
    fn parse_stats_export_sets_gauges() {
        let s = ParseStats {
            words: 42,
            errors: 3,
            ..ParseStats::default()
        };
        s.export_obs();
        let obs = ParseStatsObs::register();
        assert_eq!((obs.words.get(), obs.errors.get()), (42, 3));
    }
}
