//! chaos: run a seeded fault-injection campaign against the golden
//! trace and report the outcome trichotomy.
//!
//! Usage: `chaos [n_plans] [base_seed] [out_path] [trace_path]`
//!
//! Defaults: 320 plans, the CI smoke seed, stdout only, and the
//! committed `tests/data/golden.w3kt`. The campaign is fully
//! deterministic — `(base_seed, n_plans)` is the whole spec, and any
//! single plan reruns from the `site:seed:intensity` line printed on
//! failure. Exits nonzero if any plan reaches a forbidden outcome
//! (panic or silently wrong answer), which is the chaos smoke job's
//! pass criterion in CI.

use std::process::ExitCode;

use systrace::fault::{campaign, run_campaign, ChaosInput, Outcome};
use systrace::trace::TraceArchive;

/// The CI smoke seed; changing it re-rolls every plan, so keep it
/// fixed unless the stack's fault surface changes intentionally.
const DEFAULT_SEED: u64 = 0x5752_4c94_0600_c4a0;

fn parse_seed(s: &str) -> u64 {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).expect("bad hex seed"),
        None => s.parse().expect("bad seed"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let n_plans: usize = args.get(1).map_or(320, |s| s.parse().expect("bad n_plans"));
    let base_seed = args.get(2).map_or(DEFAULT_SEED, |s| parse_seed(s));
    let out_path = args.get(3).filter(|s| *s != "-");
    let trace_path = args.get(4).map_or("tests/data/golden.w3kt", |s| s.as_str());

    systrace::obs::register_all();
    let archive =
        TraceArchive::load(trace_path).unwrap_or_else(|e| panic!("cannot load {trace_path}: {e}"));
    let input = ChaosInput::new(archive);

    let plans = campaign(base_seed, n_plans);
    let report = run_campaign(&input, &plans);
    let (detected, harmless, absorbed, forbidden) = report.totals();

    let mut doc = String::new();
    doc.push_str(&format!(
        "# chaos campaign: {n_plans} plans, base seed {base_seed:#x}, trace {trace_path}\n\n"
    ));
    doc.push_str(&report.render());
    doc.push_str(&format!(
        "\nsummary: {detected} detected, {harmless} harmless, {absorbed} absorbed, \
         {forbidden} forbidden\n"
    ));
    for (plan, why) in report.forbidden() {
        doc.push_str(&format!("FORBIDDEN {plan} -> {why}\n"));
    }
    // The detailed per-plan log: every line is a rerunnable spec.
    doc.push('\n');
    for (plan, outcome) in &report.results {
        doc.push_str(&format!("{plan} {}\n", outcome.kind()));
    }

    print!("{doc}");
    if let Some(path) = out_path {
        std::fs::write(path, &doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if report
        .results
        .iter()
        .any(|(_, o)| matches!(o, Outcome::Forbidden { .. }))
    {
        eprintln!("chaos: forbidden outcomes present");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
