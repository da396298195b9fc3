//! Differential validation of the driver: for real system traces,
//! feeding the trace to the one incremental [`Driver`] in chunks of
//! any size must produce *bit-identical* `ParseStats` and `SimStats`
//! to the batch `parse_all` path. This is the driver's
//! non-negotiable invariant — how the stream is cut into `feed`
//! calls is allowed to change wall time, never results.
//!
//! One traced machine run per workload supplies the words; the same
//! words then go through the batch reference once and through the
//! driver once per chunk size.

use systrace::kernel::{build_system, KernelConfig, System};
use systrace::memsim::{MemSim, SimStats};
use systrace::trace::{Driver, ParseStats};
use systrace::tracer::Stack;
use systrace::AnalyzeCfg;

/// Mirrors the harness's simulator wiring.
fn fresh_sim(sys: &System) -> MemSim {
    let mut pagemap = sys.pagemap.clone();
    for (token, asid) in sys.thread_parents() {
        pagemap.duplicate_space(
            systrace::memsim::SpaceKey::User(asid),
            systrace::memsim::SpaceKey::User(token),
        );
    }
    MemSim::new(pagemap)
}

/// Batch reference: `parse_all` into a fresh simulator.
fn batch_reference(sys: &System, words: &[u32]) -> (ParseStats, SimStats, u64) {
    let mut parser = sys.parser();
    let mut sim = fresh_sim(sys);
    parser.parse_all(words, &mut sim);
    (parser.stats.clone(), sim.stats.clone(), sim.cycles)
}

fn check_workload(name: &str, cfg: KernelConfig) {
    let w = systrace::workloads::by_name(name).unwrap();
    let mut sys = build_system(&cfg.traced(), &[&w]);
    let run = sys.run(6_000_000_000);
    let words = &run.trace_words[..];
    assert!(
        words.len() > 100_000,
        "{name}: trace too small to be a meaningful differential"
    );

    let (ref_parse, ref_sim, ref_cycles) = batch_reference(&sys, words);
    for chunk_words in [1usize, 64, 4096] {
        let mut driver = Driver::new(sys.parser(), fresh_sim(&sys));
        for chunk in words.chunks(chunk_words) {
            driver.feed(chunk);
        }
        let (report, sim) = driver.finish();
        let tag = format!("{name} chunk={chunk_words}");
        assert_eq!(report.parse, ref_parse, "{tag}: ParseStats diverged");
        assert_eq!(sim.stats, ref_sim, "{tag}: SimStats diverged");
        assert_eq!(sim.cycles, ref_cycles, "{tag}: simulated cycles diverged");
        assert_eq!(report.words, words.len() as u64, "{tag}: word accounting");
        assert_eq!(report.lost_chunks, 0, "{tag}: chunk accounting");
    }
}

#[test]
fn streaming_matches_batch_sed() {
    check_workload("sed", KernelConfig::ultrix());
}

#[test]
fn streaming_matches_batch_yacc() {
    check_workload("yacc", KernelConfig::ultrix());
}

#[test]
fn streaming_matches_batch_egrep() {
    check_workload("egrep", KernelConfig::ultrix());
}

#[test]
fn streaming_matches_batch_tomcatv() {
    check_workload("tomcatv", KernelConfig::mach());
}

/// The full harness path end to end: a run parsed on the fly, inside
/// the drain callback, predicts exactly what the after-the-run parse
/// of the collected trace predicts.
#[test]
fn streamed_harness_matches_batch_harness() {
    let w = systrace::workloads::by_name("sed").unwrap();
    let cfg = KernelConfig::ultrix().traced();
    let acfg = AnalyzeCfg {
        arith_stalls: systrace::pixie_arith_stalls(&w),
        ..AnalyzeCfg::default()
    };
    let batch = systrace::run_analyzed(&cfg, &w, acfg.clone(), Stack::new(), None).predicted;
    let tap = &mut |_: &[u32]| {};
    let streamed = systrace::run_analyzed(&cfg, &w, acfg, Stack::new(), Some(tap)).predicted;
    assert_eq!(streamed, batch);
}
