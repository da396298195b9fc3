//! The chaos campaign: seeded fault-injection plans run against the
//! committed golden trace, asserting the §4.3 trichotomy — every
//! injected fault is *detected* (typed error or defensive tally),
//! *harmless* (bit-identical results), or *absorbed* (the corruption
//! forged a well-formed trace, processed deterministically). The
//! forbidden fourth outcome — a panic or a silently wrong answer —
//! must never occur, at any site, for any seed.
//!
//! Every plan replays from its one-line `site:seed:intensity` spec;
//! a failure here prints the specs to rerun.

use std::time::Duration;
use systrace::fault::{
    campaign, run_campaign, run_plan, ChaosInput, FaultPlan, Layer, Outcome, ALL_SITES,
};
use systrace::trace::{ChunkFate, SeamHooks, TraceArchive};
use systrace::tracer::Stack;
use systrace::AnalyzeCfg;

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";
/// The campaign's fixed base seed; `(BASE_SEED, N_PLANS)` is the
/// entire campaign spec and replays identically anywhere.
const BASE_SEED: u64 = 0x5752_4c94_0600_c4a0;
const N_PLANS: usize = 320;

fn golden_input() -> ChaosInput {
    ChaosInput::new(TraceArchive::load(GOLDEN_PATH).expect("golden archive must load"))
}

#[test]
fn campaign_of_320_seeded_plans_never_reaches_a_forbidden_outcome() {
    let input = golden_input();
    let plans = campaign(BASE_SEED, N_PLANS);
    assert!(plans.len() >= 200, "campaign must be at least 200 plans");
    let report = run_campaign(&input, &plans);
    println!("{}", report.render());

    let forbidden = report.forbidden();
    assert!(
        forbidden.is_empty(),
        "forbidden outcomes (rerun each spec below):\n{}",
        forbidden
            .iter()
            .map(|(p, why)| format!("  {p} -> {why}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // At least one corruption per layer was demonstrably *detected* —
    // the campaign exercises the defenses, not just the happy paths.
    let layers = report.detected_layers();
    for layer in [
        Layer::Parser,
        Layer::Store,
        Layer::Stream,
        Layer::Wire,
        Layer::Tracer,
    ] {
        assert!(
            layers.contains(&layer),
            "{layer:?} detected nothing across {N_PLANS} plans"
        );
    }

    let (detected, harmless, absorbed, f) = report.totals();
    assert_eq!(f, 0);
    assert_eq!(
        detected + harmless + absorbed,
        N_PLANS as u64,
        "every plan classifies into the trichotomy"
    );
    assert!(detected > 0 && harmless > 0);

    // A corruption may be absorbed only where it forges a well-formed
    // trace: in the raw words before the parser.
    for (plan, outcome) in &report.results {
        assert!(
            *outcome != Outcome::Absorbed || plan.site.name().starts_with("parser."),
            "{plan}: absorbed outside the parser sites"
        );
    }
}

#[test]
fn any_plan_replays_identically_from_its_spec_line() {
    let input = golden_input();
    // One plan per site, via the round-robin campaign head.
    for plan in campaign(BASE_SEED ^ 0x0f0f, ALL_SITES.len()) {
        let spec = plan.to_string();
        let replayed: FaultPlan = spec.parse().expect("specs round-trip");
        assert_eq!(replayed, plan);
        let a = run_plan(&input, plan);
        let b = run_plan(&input, replayed);
        assert_eq!(a, b, "{spec}: outcome must be reproducible");
        assert!(
            !matches!(a, Outcome::Forbidden { .. }),
            "{spec}: forbidden outcome {a:?}"
        );
    }
}

/// End to end through the harness: a traced system run parsed on the
/// fly, its driver stalled at the source seam on every fifth drained
/// buffer, predicts exactly what the unhooked after-the-run harness
/// predicts.
#[test]
fn hooked_harness_run_with_stalls_predicts_identically() {
    let w = systrace::workloads::by_name("sed").unwrap();
    let cfg = systrace::kernel::KernelConfig::ultrix().traced();
    let acfg = AnalyzeCfg {
        arith_stalls: systrace::pixie_arith_stalls(&w),
        ..AnalyzeCfg::default()
    };
    let batch = systrace::run_analyzed(&cfg, &w, acfg.clone(), Stack::new(), None).predicted;
    let hooks = SeamHooks::new(|seq| {
        if seq % 5 == 0 {
            ChunkFate::Stall(Duration::from_micros(100))
        } else {
            ChunkFate::Deliver
        }
    });
    let hooked = AnalyzeCfg { hooks, ..acfg };
    let tap = &mut |_: &[u32]| {};
    let stalled = systrace::run_analyzed(&cfg, &w, hooked, Stack::new(), Some(tap)).predicted;
    assert_eq!(stalled, batch);
}
