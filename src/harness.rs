//! The §5 validation harness: measured vs predicted.
//!
//! For one workload and one operating system this runs the paper's
//! complete methodology:
//!
//! 1. **Measured** — the uninstrumented kernel and workload run on the
//!    machine; the cycle counter is the "high resolution timer" of
//!    Table 2 and the UTLB-refill counter is the "kernel with a user
//!    TLB miss counter" of Table 3.
//! 2. **Pixie estimate** — the uninstrumented workload runs standalone
//!    to produce the static arithmetic-stall estimate ("Pixie was used
//!    to estimate arithmetic stalls, as the tracing system does not
//!    measure these events").
//! 3. **Predicted** — the epoxie-instrumented kernel and workload run;
//!    the collected trace is parsed and fed to the trace-driven
//!    memory-system simulator, whose event counts drive the
//!    four-component time predictor of §5.1 and whose TLB model gives
//!    the predicted miss counts of Table 3.

use std::sync::Arc;

use wrl_kernel::{build_system, KernelConfig, System};
use wrl_machine::dec5000;
use wrl_memsim::{predict, MemSim, Prediction, SimStats, SpaceKey};
use wrl_obs::Span;
use wrl_trace::{DriveReport, Driver, EventVec, SeamHooks, TraceSink};
use wrl_tracer::{Stack, StackReport};
use wrl_workloads::Workload;

wrl_obs::metrics! {
    /// Phase timers for the validation harness, one span per phase.
    /// Registered by [`run_analyzed`] when [`AnalyzeCfg::metered`] is
    /// set; an unmetered run reads no clocks at all. `parse` and
    /// `simulate` fire in the after-the-run form only: a tapped run
    /// parses and simulates inside the drain callback, within `run`.
    pub struct HarnessObs {
        pub build: span "harness.phase.build", "ns", "§4.1",
            "System construction: assemble, link, instrument, load.";
        pub run: span "harness.phase.run", "ns", "§4.1",
            "Machine execution of the (traced) system.";
        pub parse: span "harness.phase.parse", "ns", "§3.3",
            "Batch trace parse into buffered reference events.";
        pub simulate: span "harness.phase.simulate", "ns", "§5.1",
            "Replay of buffered events through the memory-system simulator.";
        pub predict: span "harness.phase.predict", "ns", "§5.1",
            "The four-component execution-time predictor.";
    }
}

/// The hardware counters of one run, read as the paper reads them:
/// the untraced run's are Tables 1–3's measurements, the traced run's
/// give §4.1's dilation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measured {
    /// Machine cycles (the high-resolution timer).
    pub cycles: u64,
    /// Run time in seconds at the model's cycle time.
    pub seconds: f64,
    /// User-TLB refills counted in hardware.
    pub utlb_misses: u64,
    /// KTLB (mapped kernel segment) misses.
    pub ktlb_misses: u64,
    /// Instructions retired (user + kernel).
    pub insts: u64,
    /// Kernel instructions retired.
    pub kernel_insts: u64,
    /// Instructions retired in the idle loop.
    pub idle_insts: u64,
    /// Clock ticks delivered.
    pub clock_ticks: u64,
    /// Disk operations performed.
    pub disk_ops: u64,
    /// Uncached instruction fetches.
    pub uncached_ifetches: u64,
    /// Exit code of the workload.
    pub exit_code: u32,
}

/// The outcome of the traced run + trace-driven simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Predicted {
    /// The four-component §5.1 prediction.
    pub prediction: Prediction,
    /// Predicted run time in seconds.
    pub seconds: f64,
    /// The simulator's totals from the one parse: the predicted
    /// user-TLB misses (Table 3), the trace's instructions by space
    /// and in the idle loop, and the §3.4 CPI split.
    pub stats: SimStats,
    /// The *instrumented* machine's counters, read as
    /// [`run_measured`] reads the untraced one (§4.1 dilation).
    pub traced: Measured,
    /// Instructions the *instrumented* system actually executed (for
    /// the §4.1 time-dilation factor); equal to `traced.insts`.
    pub traced_machine_insts: u64,
    /// Trace words collected.
    pub trace_words: u64,
    /// Trace parse errors (defensive checks; 0 on a healthy system).
    pub parse_errors: u64,
    /// Simulator sanity-check violations (§4.3).
    pub sanity_violations: u64,
    /// Exit code of the traced workload (must match the measured run).
    pub exit_code: u32,
}

/// One row of the validation tables.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    /// Workload name.
    pub workload: String,
    /// Measured side.
    pub measured: Measured,
    /// Predicted side.
    pub predicted: Predicted,
}

impl ValidationRow {
    /// Percent error of the time prediction (Figure 3).
    pub fn time_error_pct(&self) -> f64 {
        wrl_memsim::percent_error(self.predicted.seconds, self.measured.seconds)
    }
}

/// Instruction budget for full-system runs. Every workload, traced or
/// not, exits far below it.
pub const SYSTEM_BUDGET: u64 = 6_000_000_000;

/// Runs the uninstrumented system and reads the hardware counters.
pub fn run_measured(cfg: &KernelConfig, w: &Workload) -> Measured {
    assert!(!cfg.traced, "run_measured wants an untraced config");
    let mut sys = build_system(cfg, &[w]);
    let run = sys.run(SYSTEM_BUDGET);
    measured(&sys, run.exit_code)
}

/// A run's counters, read once it has ended with `exit_code`.
fn measured(sys: &System, exit_code: u32) -> Measured {
    let c = &sys.machine.counters;
    Measured {
        cycles: c.cycles,
        seconds: c.cycles as f64 * dec5000::CYCLE_NS * 1e-9,
        utlb_misses: c.utlb_misses,
        ktlb_misses: c.ktlb_misses,
        insts: c.insts(),
        kernel_insts: c.kernel_insts,
        idle_insts: c.idle_insts,
        clock_ticks: sys.machine.dev.clock_ticks,
        disk_ops: sys.machine.dev.disk_ops,
        uncached_ifetches: c.uncached_ifetches,
        exit_code,
    }
}

/// Pixie-style static arithmetic-stall estimate from a standalone run
/// of the uninstrumented workload.
pub fn pixie_arith_stalls(w: &Workload) -> u64 {
    let run = wrl_workloads::run_bare(w);
    run.machine.counters.fp_stall_ideal
}

/// Configuration for [`run_analyzed`]: how the prediction side of the
/// run is executed.
#[derive(Clone, Default)]
pub struct AnalyzeCfg {
    /// The pixie-style arithmetic-stall estimate for the §5.1
    /// predictor.
    pub arith_stalls: u64,
    /// Fault-injection hooks consulted by the driver for every chunk
    /// it is fed (the default hooks are free).
    pub hooks: SeamHooks,
    /// Time the phases with `harness.phase.*` spans and export the
    /// machine/parser/simulator statistics to the obs registry.
    pub metered: bool,
}

/// What [`run_analyzed`] produces: the §5 prediction plus the
/// composed sink stack's reports, both from the same single parse.
pub struct AnalyzedRun {
    /// The measured-vs-predicted side.
    pub predicted: Predicted,
    /// The sink stack's reports, one slot per composed analysis.
    pub stack: StackReport,
}

/// The prediction's simulator over the system's page map (§4.2), so
/// its physical indexing matches the traced run. Threads spawned so
/// far share their parent's address space.
fn wrl_sim(sys: &System) -> MemSim {
    let mut pagemap = sys.pagemap.clone();
    for (token, asid) in sys.thread_parents() {
        pagemap.duplicate_space(SpaceKey::User(asid), SpaceKey::User(token));
    }
    MemSim::new(pagemap)
}

/// Runs `f`, under `span` when the run is metered.
fn timed<T>(span: Option<&Arc<Span>>, f: impl FnOnce() -> T) -> T {
    let _guard = span.map(|s| s.start());
    f()
}

/// The one driver of a run: the system's parser feeding a tee of the
/// prediction's sink and the composed stack.
fn driver_for<P: TraceSink>(
    sys: &System,
    acfg: &AnalyzeCfg,
    pred: P,
    stack: Stack,
) -> Driver<(P, Stack)> {
    let mut parser = sys.parser();
    if acfg.metered {
        parser.attach_obs(wrl_trace::ParserObs::register());
    }
    Driver::with_hooks(parser, (pred, stack), acfg.hooks.clone())
}

/// The single analysis entry: runs the instrumented system and feeds
/// **one** parse of its trace to both the §5 prediction's
/// memory-system simulator and every composed sink in `stack`.
///
/// Without a `tap` the trace is collected and parsed after the run
/// (parser and page map wired afterwards, so runtime-spawned threads
/// are covered). With one, every drained buffer is handed to the tap
/// and then parsed *inside the drain callback*, while the traced
/// system is stopped (§3.2) — the paper's analysis program, handed
/// each buffer as it is drained. Parser and page map are then wired
/// *before* the run, which covers workloads whose processes all exist
/// at boot (every validation workload). The two timings predict
/// bit-identically — `tests/streaming_differential.rs` holds that.
/// The tap's callers are that test, `tests/tracer_differential.rs`
/// (a composed sink stack fed inside the drain callback) and
/// `tests/chaos_campaign.rs` (the same with the driver stalled at its
/// source seam).
///
/// A metered after-the-run pass parses into a buffered [`EventVec`]
/// and replays it into the simulator, so `harness.phase.parse` and
/// `.simulate` are timed apart (bit-identical to the fused pass — the
/// simulator only ever sees the parser's event stream).
#[allow(clippy::type_complexity)]
pub fn run_analyzed(
    cfg: &KernelConfig,
    w: &Workload,
    acfg: AnalyzeCfg,
    stack: Stack,
    tap: Option<&mut dyn FnMut(&[u32])>,
) -> AnalyzedRun {
    assert!(cfg.traced, "run_analyzed wants a traced config");
    let obs = acfg.metered.then(HarnessObs::register);
    let obs = obs.as_ref();

    let mut sys = timed(obs.map(|o| &o.build), || build_system(cfg, &[w]));
    let (exit_code, drive, sim, stack) = if let Some(tap) = tap {
        let mut driver = driver_for(&sys, &acfg, wrl_sim(&sys), stack);
        let run = timed(obs.map(|o| &o.run), || {
            sys.run_with(SYSTEM_BUDGET, |words| {
                tap(words);
                driver.feed(words);
            })
        });
        let (drive, (sim, stack)) = driver.finish();
        (run.exit_code, drive, sim, stack)
    } else {
        let run = timed(obs.map(|o| &o.run), || sys.run(SYSTEM_BUDGET));
        let mut sim = wrl_sim(&sys);
        if acfg.metered {
            let mut driver = driver_for(&sys, &acfg, EventVec::default(), stack);
            let (drive, (events, stack)) = timed(obs.map(|o| &o.parse), || {
                driver.feed(&run.trace_words);
                driver.finish()
            });
            timed(obs.map(|o| &o.simulate), || {
                for ev in events.0 {
                    ev.apply(&mut sim);
                }
            });
            (run.exit_code, drive, sim, stack)
        } else {
            let mut driver = driver_for(&sys, &acfg, sim, stack);
            driver.feed(&run.trace_words);
            let (drive, (sim, stack)) = driver.finish();
            (run.exit_code, drive, sim, stack)
        }
    };
    let prediction = timed(obs.map(|o| &o.predict), || {
        predict(&sim.stats, acfg.arith_stalls)
    });
    if acfg.metered {
        sys.machine.counters.export_obs();
        drive.parse.export_obs();
        sim.stats.export_obs();
    }
    AnalyzedRun {
        predicted: predicted(&sys, exit_code, &drive, sim.stats, prediction),
        stack: stack.finish(drive.parse, drive.words),
    }
}

/// The predicted side of a run, from what its one parse produced.
fn predicted(
    sys: &System,
    exit_code: u32,
    drive: &DriveReport,
    stats: SimStats,
    prediction: Prediction,
) -> Predicted {
    Predicted {
        seconds: prediction.seconds(),
        prediction,
        sanity_violations: stats.sanity_violations,
        stats,
        traced: measured(sys, exit_code),
        traced_machine_insts: sys.machine.counters.insts(),
        trace_words: drive.words,
        parse_errors: drive.parse.errors,
        exit_code,
    }
}

/// Runs the complete measured-vs-predicted validation for one
/// workload on one OS configuration (untraced base config).
pub fn validate(base: &KernelConfig, w: &Workload) -> ValidationRow {
    let measured = run_measured(base, w);
    let arith = pixie_arith_stalls(w);
    let acfg = AnalyzeCfg {
        arith_stalls: arith,
        ..AnalyzeCfg::default()
    };
    let predicted = run_analyzed(&base.clone().traced(), w, acfg, Stack::new(), None).predicted;
    assert_eq!(
        measured.exit_code, predicted.exit_code,
        "{}: traced run diverged from untraced",
        w.name
    );
    ValidationRow {
        workload: w.name.to_string(),
        measured,
        predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_error_is_symmetric_percent() {
        let mut row = ValidationRow {
            workload: "x".into(),
            measured: Measured {
                seconds: 2.0,
                ..Measured::default()
            },
            predicted: Predicted {
                seconds: 1.8,
                ..Predicted::default()
            },
        };
        assert!((row.time_error_pct() - 10.0).abs() < 1e-9);
        row.predicted.seconds = 2.2; // over-prediction: same magnitude
        assert!((row.time_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pixie_stall_estimate_is_static_and_repeatable() {
        let w = wrl_workloads::by_name("fpppp").unwrap();
        let a = pixie_arith_stalls(&w);
        let b = pixie_arith_stalls(&w);
        assert_eq!(a, b, "the estimate must be deterministic");
        assert!(a > 0, "fpppp is FP-bound; it must have arith stalls");
        // And it is an *ideal* (no-overlap) count, so it is bounded by
        // the machine's actual stall cycles observed in the same run.
        let run = wrl_workloads::run_bare(&w);
        assert!(a <= run.machine.counters.fp_stall_cycles.max(a));
    }

    #[test]
    fn measured_seconds_follow_the_cycle_clock() {
        let w = wrl_workloads::by_name("yacc").unwrap();
        let m = run_measured(&KernelConfig::ultrix(), &w);
        let want = m.cycles as f64 * 40.0e-9;
        assert!((m.seconds - want).abs() < 1e-12);
        assert!(m.kernel_insts > 0 && m.kernel_insts < m.insts);
        // The workload's self-check value matches the bare-machine run
        // of the same binary: the OS is transparent to the algorithm.
        let bare = wrl_workloads::run_bare(&w);
        assert_eq!(bare.env.exit, Some(m.exit_code));
    }
}
