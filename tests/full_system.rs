//! Cross-crate integration tests: the complete paper pipeline at the
//! facade level. (Heavier sweeps live in `wrl-bench`; these keep the
//! default test run tractable while still exercising the whole stack.)

use systrace::kernel::{build_system, KernelConfig, Variant};
use systrace::memsim::Policy;

/// The full measured-vs-predicted methodology for one workload on one
/// OS, asserting the paper's quality bars.
fn check_validation(cfg: KernelConfig, workload: &str, max_err_pct: f64) {
    let w = systrace::workloads::by_name(workload).unwrap();
    let row = systrace::validate(&cfg, &w);
    assert_eq!(row.predicted.parse_errors, 0, "{workload}: trace corrupt");
    assert_eq!(row.predicted.sanity_violations, 0);
    let err = row.time_error_pct();
    assert!(
        err <= max_err_pct,
        "{workload}: time error {err:.1}% > {max_err_pct}%"
    );
    // TLB prediction within 25% or 30 misses, whichever is larger
    // (random replacement + invisible explicit fills, §5.2).
    let m = row.measured.utlb_misses as f64;
    let p = row.predicted.stats.utlb_misses as f64;
    assert!(
        (m - p).abs() <= (0.25 * m).max(30.0),
        "{workload}: TLB measured {m} predicted {p}"
    );
}

#[test]
fn ultrix_validation_sed() {
    check_validation(KernelConfig::ultrix(), "sed", 8.0);
}

#[test]
fn ultrix_validation_yacc() {
    check_validation(KernelConfig::ultrix(), "yacc", 8.0);
}

#[test]
fn mach_validation_sed() {
    check_validation(KernelConfig::mach(), "sed", 8.0);
}

#[test]
fn traced_and_untraced_runs_agree_on_output() {
    // The whole point of §4.1: instrumentation must not change what
    // the system computes, only how long it takes.
    let w = systrace::workloads::by_name("yacc").unwrap();
    let mut u = build_system(&KernelConfig::ultrix(), &[&w]);
    let ur = u.run(6_000_000_000);
    let mut t = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let tr = t.run(6_000_000_000);
    assert_eq!(ur.exit_code, tr.exit_code);
    assert_eq!(ur.console, tr.console, "console output differs");
}

#[test]
fn mach_and_ultrix_agree_on_results() {
    let w = systrace::workloads::by_name("egrep").unwrap();
    let mu = systrace::run_measured(&KernelConfig::ultrix(), &w);
    let mm = systrace::run_measured(&KernelConfig::mach(), &w);
    assert_eq!(mu.exit_code, mm.exit_code);
    // Mach does more work for the same job: IPC, server, more kernel.
    assert!(mm.cycles > mu.cycles);
}

#[test]
fn trace_streams_are_complete() {
    // "The traces must be complete. They must represent the kernel
    // and multiple users as they execute on a real machine." (§3.1)
    let w = systrace::workloads::by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::mach().traced(), &[&w]);
    let run = sys.run(6_000_000_000);
    let mut parser = sys.parser();
    parser.parse_all(&run.trace_words, &mut ());
    assert_eq!(parser.stats.errors, 0);
    assert!(parser.stats.kernel_irefs > 0);
    assert!(parser.stats.user_irefs > 0);
    assert!(parser.stats.kernel_entries > 10);
    // The parsed instruction total closely tracks what the machine
    // retired for *original* instructions: the trace is not missing
    // whole swaths of activity. (The traced machine executes the
    // instrumented expansion; the trace reconstructs the original.)
    let orig_insts = parser.stats.user_irefs + parser.stats.kernel_irefs;
    assert!(orig_insts as f64 > 0.04 * sys.machine.counters.insts() as f64);
}

#[test]
fn page_policy_changes_run_time() {
    // §4.2: the virtual-to-physical map affects cache behaviour.
    let w = systrace::workloads::by_name("tomcatv").unwrap();
    let mut times = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = KernelConfig::mach();
        cfg.page_policy = Policy::Random {
            seed,
            base_pfn: 0x2000,
            frames: 8192,
        };
        times.push(systrace::run_measured(&cfg, &w).cycles);
    }
    let min = *times.iter().min().unwrap();
    let max = *times.iter().max().unwrap();
    assert!(max > min, "random page maps produced identical timings");
}

#[test]
fn variant_enum_is_exposed() {
    assert_ne!(Variant::Ultrix, Variant::Mach);
}

#[test]
fn trace_archives_round_trip_through_disk() {
    // Record a real system trace, archive it, reload it, and get
    // identical analysis results — the §3.4 "traces on tape" path.
    let w = systrace::workloads::by_name("yacc").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(6_000_000_000);
    let archive = sys.archive(&run);

    let dir = std::env::temp_dir().join("w3k_archive_test.w3kt");
    archive.save(&dir).unwrap();
    let loaded = systrace::trace::TraceArchive::load(&dir).unwrap();
    std::fs::remove_file(&dir).ok();

    let mut p1 = sys.parser();
    let mut s1 = systrace::trace::EventVec::default();
    p1.parse_all(&run.trace_words, &mut s1);
    let mut p2 = loaded.parser();
    let mut s2 = systrace::trace::EventVec::default();
    p2.parse_all(&loaded.words, &mut s2);
    assert_eq!(p2.stats, p1.stats);
    assert!(s2 == s1, "the loaded archive parses to different events");
}

/// Online analysis (§3.3): feeding each buffer drain through
/// `push_words` as it happens must produce exactly the statistics the
/// offline one-shot parse of the archived words produces — even with
/// a buffer small enough that blocks straddle drains.
#[test]
fn online_analysis_matches_offline() {
    let w = systrace::workloads::by_name("sed").unwrap();
    let cfg = KernelConfig {
        ktrace_bytes: 1 << 18, // 256 KB: force many doorbells
        ..KernelConfig::ultrix().traced()
    };

    let mut sys = build_system(&cfg, &[&w]);
    let mut online = systrace::trace::EventVec::default();
    let mut parser = sys.parser();
    let mut words = Vec::new();
    let run = sys.run_with(2_000_000_000, |chunk| {
        parser.push_words(chunk, &mut online);
        words.extend_from_slice(chunk);
    });
    parser.finish(&mut online);
    assert!(run.drains > 3, "want several drains, got {}", run.drains);
    assert_eq!(parser.stats.errors, 0);

    let mut offline = systrace::trace::EventVec::default();
    let mut p2 = sys.parser();
    p2.parse_all(&words, &mut offline);
    assert_eq!(p2.stats.errors, 0);
    assert!(online == offline, "online and offline parses differ");
}
