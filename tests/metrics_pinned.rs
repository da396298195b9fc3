//! Pinned metrics regression test.
//!
//! Re-analyses the committed golden trace (`tests/data/golden.w3kt`)
//! with the observability layer attached and asserts that every
//! deterministic metric in the registry equals the same pinned
//! statistics `tests/golden_trace.rs` pins for the parser — so the
//! metrics layer cannot silently drift from the quantities it claims
//! to export. Also cross-checks the committed
//! `results/metrics-sed-ultrix.json` artifact against the live
//! registry: same schema tag, same metric set, same metadata.
//!
//! Everything lives in ONE `#[test]`: the registry is process-global
//! and tests within a binary run on parallel threads, so splitting
//! these assertions across tests would race on `reset()`.

use systrace::memsim::{MemSim, PageMap, Policy};
use systrace::obs;
use systrace::trace::{Driver, EventVec, ParserObs, TraceArchive};

const GOLDEN_PATH: &str = "tests/data/golden.w3kt";
const ARTIFACT_PATH: &str = "results/metrics-sed-ultrix.json";

// The same pinned golden-trace statistics as tests/golden_trace.rs.
const PINNED_WORDS: i64 = 8192;
const PINNED_BB_RECORDS: i64 = 7524;
const PINNED_MEM_RECORDS: i64 = 646;
const PINNED_KERNEL_ENTRIES: i64 = 8;
const PINNED_CTX_SWITCHES: i64 = 6;

/// Words per chunk fed to the driver in the chunked pass.
const CHUNK_WORDS: usize = 4096;

fn fresh_sim() -> MemSim {
    MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x2000 }))
}

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    match find(snap, name).value {
        obs::ValueSnap::Counter(v) => v,
        ref other => panic!("{name}: expected counter, got {other:?}"),
    }
}

fn gauge(snap: &obs::Snapshot, name: &str) -> i64 {
    match find(snap, name).value {
        obs::ValueSnap::Gauge { value, .. } => value,
        ref other => panic!("{name}: expected gauge, got {other:?}"),
    }
}

fn find<'a>(snap: &'a obs::Snapshot, name: &str) -> &'a obs::MetricSnap {
    snap.metrics
        .iter()
        .find(|m| m.desc.name == name)
        .unwrap_or_else(|| panic!("{name} not registered"))
}

#[test]
fn golden_trace_metrics_match_pinned_stats_and_committed_artifact() {
    obs::register_all();
    obs::global().reset();
    let archive = TraceArchive::load(GOLDEN_PATH).expect("golden archive must load");

    // -- Batch path: parse into a buffer, replay into the simulator
    //    (the metered harness's phase split).
    let mut parser = archive.parser();
    parser.attach_obs(ParserObs::register());
    let mut events = EventVec::default();
    parser.parse_all(&archive.words, &mut events);
    let mut sim = fresh_sim();
    for ev in events.0 {
        ev.apply(&mut sim);
    }
    parser.stats.export_obs();
    sim.stats.export_obs();

    // -- The driver over the same words, fed in fixed-size chunks.
    let mut driver = Driver::new(archive.parser(), fresh_sim());
    for chunk in archive.words.chunks(CHUNK_WORDS) {
        driver.feed(chunk);
    }
    let (report, stream_sim) = driver.finish();
    assert_eq!(report.parse, parser.stats, "driver must match batch");
    assert_eq!(stream_sim.stats, sim.stats, "driven sim must match");

    let snap = obs::global().snapshot();

    // Parse gauges equal the pinned golden statistics.
    assert_eq!(gauge(&snap, "trace.parse.words"), PINNED_WORDS);
    assert_eq!(gauge(&snap, "trace.parse.bb_records"), PINNED_BB_RECORDS);
    assert_eq!(gauge(&snap, "trace.parse.mem_records"), PINNED_MEM_RECORDS);
    assert_eq!(
        gauge(&snap, "trace.parse.kernel_entries"),
        PINNED_KERNEL_ENTRIES
    );
    assert_eq!(
        gauge(&snap, "trace.parse.ctx_switches"),
        PINNED_CTX_SWITCHES
    );
    assert_eq!(gauge(&snap, "trace.parse.errors"), 0);
    for err in [
        "trace.parse.error.unknown_bb",
        "trace.parse.error.wrong_space",
        "trace.parse.error.bad_control",
        "trace.parse.error.truncated",
        "trace.parse.error.unbalanced_kexit",
        "trace.parse.error.no_table_for_asid",
    ] {
        assert_eq!(counter(&snap, err), 0, "{err} on a healthy trace");
    }

    // Simulator gauges equal the simulator's statistics — the
    // export is wired to the right fields. (The kernel iref count
    // legitimately exceeds the parser's: the simulator adds the
    // synthesized TLB-refill handler references of §5.2.)
    assert_eq!(gauge(&snap, "sim.irefs.user") as u64, sim.stats.user_irefs);
    assert_eq!(
        gauge(&snap, "sim.irefs.kernel") as u64,
        sim.stats.kernel_irefs
    );
    assert_eq!(
        sim.stats.kernel_irefs,
        parser.stats.kernel_irefs + sim.stats.synth_irefs,
        "kernel irefs = parsed refs + synthesized refill refs"
    );
    assert_eq!(gauge(&snap, "sim.sanity_violations"), 0);

    // Driver counters are exact and shape-determined.
    let words = PINNED_WORDS as u64;
    let chunks = words.div_ceil(CHUNK_WORDS as u64);
    assert_eq!(counter(&snap, "stream.words"), words);
    assert_eq!(counter(&snap, "stream.chunks"), chunks);
    assert_eq!(counter(&snap, "stream.chunks.lost"), 0);
    match &find(&snap, "stream.chunk.words").value {
        obs::ValueSnap::Histogram(h) => {
            assert_eq!(h.count, chunks);
            assert_eq!(h.sum, words);
        }
        other => panic!("histogram expected, got {other:?}"),
    }

    // -- Committed artifact: schema tag, metric set and metadata must
    //    match the live registry exactly (values differ — the artifact
    //    is a full sed run — but names/kinds/units/sites/papers are
    //    the docs-as-contract surface).
    let text = std::fs::read_to_string(ARTIFACT_PATH).expect("committed metrics artifact");
    let json = obs::parse_json(&text).expect("artifact must be valid JSON");
    let obj = json.as_object().expect("top-level object");
    assert_eq!(obj["schema"].as_str(), Some(obs::SCHEMA), "schema tag");
    let file_metrics = obj["metrics"].as_array().expect("metrics array");
    assert_eq!(
        file_metrics.len(),
        snap.metrics.len(),
        "artifact and registry must list the same metrics (regenerate with obsreport)"
    );
    for fm in file_metrics {
        let fm = fm.as_object().expect("metric object");
        let name = fm["name"].as_str().expect("name");
        let live = find(&snap, name);
        assert_eq!(fm["kind"].as_str(), Some(live.kind.as_str()), "{name} kind");
        assert_eq!(fm["unit"].as_str(), Some(live.desc.unit), "{name} unit");
        assert_eq!(fm["site"].as_str(), Some(live.desc.site), "{name} site");
        assert_eq!(fm["paper"].as_str(), Some(live.desc.paper), "{name} paper");
    }
    // Spot-check run invariants recorded in the artifact.
    let file_value = |name: &str, field: &str| -> i64 {
        file_metrics
            .iter()
            .find(|m| m.as_object().unwrap()["name"].as_str() == Some(name))
            .and_then(|m| m.as_object().unwrap().get(field))
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("{name}.{field} missing in artifact"))
    };
    assert_eq!(file_value("trace.parse.errors", "value"), 0);
    assert_eq!(file_value("sim.sanity_violations", "value"), 0);
    assert_eq!(
        file_value("stream.words", "value"),
        file_value("trace.parse.words", "value"),
        "every fed word was parsed"
    );
    assert!(file_value("machine.cycles", "value") > 0);
}
