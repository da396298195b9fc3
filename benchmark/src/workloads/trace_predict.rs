//! `trace_predict`: workload → traced machine → drain → parse →
//! simulate → prediction. The only workload where `machine`, `epoxie`
//! and `kernel` do the work, and `store` and `serve` none.

use std::time::{Duration, Instant};

use systrace::epoxie::{build_traced, FullPolicy, Mode};
use systrace::isa::Layout;
use systrace::kernel::KernelConfig;
use systrace::memsim::percent_error;
use systrace::obs::{global, ValueSnap};
use systrace::tracer::Stack;
use systrace::{
    pixie_arith_stalls, run_analyzed, run_measured, AnalyzeCfg, HarnessObs, Measured, Predicted,
};

use crate::panel::{Archives, Cx, Entry};
use crate::run::{digest, Findings, Tally, Workload};
use crate::spans::Spans;

/// The reference side of one panel entry: the untraced run and the
/// pixie arithmetic-stall estimate.
pub struct Reference {
    measured: Measured,
    arith_stalls: u64,
    /// Instructions of the bare run (traced runs only).
    bare_insts: u64,
    /// Text growth under epoxie (traced runs only).
    text_growth_x: f64,
}

/// Every field of a [`Predicted`] as text. Rust prints a float with
/// the fewest digits that read back to the same bits, so two
/// predictions print alike exactly when they are bit-identical, and a
/// field added to the struct later is compared without a change here.
fn printed(p: &Predicted) -> String {
    format!("{p:?}")
}

pub struct TracePredict<'a> {
    cx: &'a Cx,
    traced_cfg: [KernelConfig; 2],
    refs: [Reference; 2],
    /// The warm-up pass's predictions; every later pass must repeat
    /// them bit for bit.
    first: Option<[Predicted; 2]>,
    /// References the simulator replayed in the last traced pass.
    sim_refs: u64,
}

/// The gauges the metered harness exports the simulator's reference
/// counts to.
const SIM_REFS: [&str; 4] = [
    "sim.irefs.user",
    "sim.irefs.kernel",
    "sim.drefs.user",
    "sim.drefs.kernel",
];

impl TracePredict<'_> {
    /// One operation: the harness entry point, as a caller uses it.
    /// Under spans it is the same call with `metered` set: the
    /// harness then times its own phases (`harness.phase.*`), parsing
    /// into a buffer so that parse and simulate are apart, and the
    /// five phase times become the five layer spans, laid end to end
    /// from the start of the call. What the harness does between its
    /// phases stays with the enclosing span.
    fn analyzed(&mut self, i: usize, sp: &Spans) -> Predicted {
        let e = &self.cx.panel[i];
        let acfg = AnalyzeCfg {
            arith_stalls: self.refs[i].arith_stalls,
            metered: sp.on(),
            ..AnalyzeCfg::default()
        };
        let t0 = Instant::now();
        let predicted =
            run_analyzed(&self.traced_cfg[i], &e.workload, acfg, Stack::new(), None).predicted;
        if sp.on() {
            let phases = HarnessObs::register();
            let mut at = t0;
            for (name, phase) in [
                ("kernel.build_system", &phases.build),
                ("machine.run_traced", &phases.run),
                ("trace.parse", &phases.parse),
                ("memsim.simulate", &phases.simulate),
                ("memsim.predict", &phases.predict),
            ] {
                let end = at + Duration::from_nanos(phase.last_ns());
                sp.record(name, at, end);
                at = end;
            }
            if i == 0 {
                self.sim_refs = 0;
            }
            self.sim_refs += exported_sim_refs();
        }
        predicted
    }
}

/// Sum of the [`SIM_REFS`] gauges as the last metered run left them.
fn exported_sim_refs() -> u64 {
    let snap = global().snapshot();
    SIM_REFS
        .iter()
        .map(|name| {
            let m = snap.metrics.iter().find(|m| m.desc.name == *name);
            match m.map(|m| &m.value) {
                Some(ValueSnap::Gauge { value, .. }) => *value as u64,
                _ => panic!("the metered harness exports the gauge {name}"),
            }
        })
        .sum()
}

fn reference(e: &Entry, sp: &Spans) -> Reference {
    let measured = sp.time("machine.run_untraced", || {
        run_measured(&e.base, &e.workload)
    });
    if !sp.on() {
        return Reference {
            measured,
            arith_stalls: pixie_arith_stalls(&e.workload),
            bare_insts: 0,
            text_growth_x: 0.0,
        };
    }
    // `pixie_arith_stalls` is the bare run's ideal FP-stall counter.
    let bare = sp.time("machine.run_bare", || {
        systrace::workloads::run_bare(&e.workload)
    });
    // Stand-alone: the instrumenter on the entry's objects alone.
    let traced = sp.time("epoxie.build_traced", || {
        build_traced(
            &e.workload.objects,
            Layout::user(),
            "__start",
            Mode::Modified,
            FullPolicy::Syscall,
        )
        .expect("the panel's workloads instrument")
    });
    Reference {
        measured,
        arith_stalls: bare.machine.counters.fp_stall_ideal,
        bare_insts: bare.insts,
        text_growth_x: traced.expansion.factor(),
    }
}

impl<'a> Workload<'a> for TracePredict<'a> {
    const NAME: &'static str = "trace_predict";
    type Products = [Reference; 2];

    fn set_up(cx: &'a Cx, sp: &Spans) -> [Reference; 2] {
        [reference(&cx.panel[0], sp), reference(&cx.panel[1], sp)]
    }

    fn digest(refs: &[Reference; 2]) -> u64 {
        digest(refs.iter().flat_map(|r| {
            let m = &r.measured;
            [
                m.cycles,
                m.utlb_misses,
                m.ktlb_misses,
                m.insts,
                m.kernel_insts,
                m.idle_insts,
                m.clock_ticks,
                m.disk_ops,
                m.uncached_ifetches,
                u64::from(m.exit_code),
                r.arith_stalls,
            ]
        }))
    }

    fn new(cx: &'a Cx, refs: [Reference; 2]) -> Self {
        TracePredict {
            cx,
            traced_cfg: [0, 1].map(|i| cx.panel[i].base.clone().traced()),
            refs,
            first: None,
            sim_refs: 0,
        }
    }

    fn words_per_pass(&self) -> u64 {
        let first = self.first.as_ref().expect("the warm-up pass ran");
        first.iter().map(|p| p.trace_words).sum()
    }

    fn pass(&mut self, sp: &Spans, _timed: bool) -> Tally {
        let mut tally = Tally::default();
        let got = [0, 1].map(|i| self.analyzed(i, sp));
        let first = self.first.get_or_insert_with(|| got.clone());
        for ((p, first), r) in got.iter().zip(first.iter()).zip(&self.refs) {
            tally.op(p.exit_code == r.measured.exit_code
                && p.parse_errors == 0
                && p.sanity_violations == 0
                && printed(p) == printed(first));
        }
        tally
    }

    fn finish(self, out: &mut Findings) {
        let first = self.first.as_ref().expect("the warm-up pass ran");
        let traced_insts: u64 = first.iter().map(|p| p.traced_machine_insts).sum();
        let untraced_insts: u64 = self.refs.iter().map(|r| r.measured.insts).sum();
        let dilation_x = traced_insts as f64 / untraced_insts as f64;
        let err_pct = first
            .iter()
            .zip(&self.refs)
            .map(|(p, r)| percent_error(p.seconds, r.measured.seconds))
            .sum::<f64>()
            / first.len() as f64;
        out.own("dilation_x", dilation_x, first.len());
        out.own("predict_err_pct", err_pct, first.len());
        // This workload stores no archive; the panel's are made here,
        // after the timed region, for the metric every workload reports.
        let arch = Archives::build(self.cx, &Spans::new(false));
        out.own("bytes_per_word", arch.bytes_per_word(), arch.bytes.len());

        let words = self.words_per_pass() as f64;
        out.layer("memsim.predict_err_pct", err_pct);
        out.layer(
            "epoxie.text_growth_x",
            self.refs.iter().map(|r| r.text_growth_x).sum::<f64>() / 2.0,
        );
        out.rate(
            "machine.run_traced.minst_per_s",
            "machine.run_traced",
            traced_insts as f64 / 1e6,
        );
        out.rate(
            "machine.run_untraced.minst_per_s",
            "machine.run_untraced",
            untraced_insts as f64 / 1e6,
        );
        out.rate(
            "machine.run_bare.minst_per_s",
            "machine.run_bare",
            self.refs.iter().map(|r| r.bare_insts).sum::<u64>() as f64 / 1e6,
        );
        out.layer("machine.trace_words", words);
        out.rate("trace.parse.mwords_per_s", "trace.parse", words / 1e6);
        out.layer(
            "trace.parse.errors",
            first.iter().map(|p| p.parse_errors).sum::<u64>() as f64,
        );
        out.rate(
            "memsim.simulate.mevents_per_s",
            "memsim.simulate",
            self.sim_refs as f64 / 1e6,
        );
        out.layer(
            "memsim.sanity_violations",
            first.iter().map(|p| p.sanity_violations).sum::<u64>() as f64,
        );
    }
}
