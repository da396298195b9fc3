//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one or more tables or
//! figures of the paper (see DESIGN.md's experiment index). The
//! helpers here keep their output formats consistent.
//!
//! Table 1, Table 2, Table 3, Figure 3 and the §5.1 idle ablation are
//! views of one set of runs (§5.1–5.2): [`validate_panel`] validates
//! every workload once per operating system, and each view in
//! [`VIEWS`] renders from that panel.

#![forbid(unsafe_code)]

use systrace::kernel::{layout::CLOCK_DILATION, KernelConfig};
use systrace::memsim::{percent_error, Prediction, IDLE_DILATION};
use systrace::workloads::{by_name, Workload};
use systrace::ValidationRow;

/// Workload subset selection from argv: all twelve by default, or the
/// names given on the command line (useful for quick runs).
pub fn selected_workloads() -> Vec<Workload> {
    workloads_named(std::env::args().skip(1))
}

/// The workloads `args` names, or all twelve when it names none.
pub fn workloads_named(args: impl IntoIterator<Item = String>) -> Vec<Workload> {
    // Skip flag-like arguments so harness flags (e.g. the `--quiet`
    // that `cargo test -q` forwards to test binaries) never read as
    // workload names.
    let names: Vec<String> = args.into_iter().filter(|a| !a.starts_with('-')).collect();
    if names.is_empty() {
        return systrace::workloads::all();
    }
    let named = |n: &String| by_name(n).unwrap_or_else(|| panic!("unknown workload {n}"));
    names.iter().map(named).collect()
}

/// One workload validated on both operating systems: a row of
/// Tables 2 and 3.
pub struct PanelEntry<'w> {
    /// The workload (Table 1 prints its description).
    pub workload: &'w Workload,
    /// The validation on Mach.
    pub mach: ValidationRow,
    /// The validation on Ultrix.
    pub ultrix: ValidationRow,
}

/// The §5 validation panel, in workload order.
pub type Panel<'w> = [PanelEntry<'w>];

/// Runs [`systrace::validate`] once per workload × {Mach, Ultrix}.
///
/// Panics if a trace did not parse cleanly, so that no view renders a
/// corrupt trace's numbers.
pub fn validate_panel(workloads: &[Workload]) -> Vec<PanelEntry<'_>> {
    let validate = |cfg: KernelConfig, w: &Workload| {
        let row = systrace::validate(&cfg, w);
        let (os, errors) = (cfg.variant, row.predicted.parse_errors);
        assert_eq!(errors, 0, "{} on {os:?}: trace corrupt", w.name);
        row
    };
    let entry = |workload| PanelEntry {
        workload,
        mach: validate(KernelConfig::mach(), workload),
        ultrix: validate(KernelConfig::ultrix(), workload),
    };
    workloads.iter().map(entry).collect()
}

/// A view of the panel: a renderer from the panel to text.
pub type View = fn(&Panel) -> String;

/// Every view of the panel with the name of the file it is written
/// to, `<name>.txt`.
pub const VIEWS: [(&str, View); 5] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("figure3", figure3),
    ("idle_scale", idle_scale),
];

/// The body of a view: a rule `width` dashes long, one line per entry
/// (the workload's name, then `row` of the entry), and the rule again.
fn ruled(panel: &Panel, width: usize, row: impl Fn(&PanelEntry) -> String) -> String {
    let rule = "-".repeat(width);
    let rows: String = panel
        .iter()
        .map(|e| format!("{:9} {}\n", e.workload.name, row(e)))
        .collect();
    format!("{rule}\n{rows}{rule}\n")
}

/// A row of Tables 2 and 3: `os` of the Mach row, then of the Ultrix
/// row.
fn mach_then_ultrix(os: impl Fn(&ValidationRow) -> String) -> impl Fn(&PanelEntry) -> String {
    move |e| format!("| {} | {}", os(&e.mach), os(&e.ultrix))
}

/// Table 1: "Experimental workloads with execution times for a
/// DECstation 5000/200" — the workload inventory with untraced run
/// times measured by the machine's cycle counter (Ultrix).
pub fn table1(panel: &Panel) -> String {
    let body = ruled(panel, 100, |e| {
        let m = &e.ultrix.measured;
        let words: Vec<_> = e.workload.description.split_whitespace().collect();
        let description = words.join(" ");
        format!(
            "{:>9.4} s  {:>11} insts  {:>7} utlb  | {description}",
            m.seconds, m.insts, m.utlb_misses
        )
    });
    format!(
        "Table 1: experimental workloads (untraced Ultrix, measured run time)\n{body}\
         (inputs are scaled ~100x down from the paper's; see EXPERIMENTS.md)\n"
    )
}

/// Table 2: "Run Times, measured and predicted, in seconds" — the
/// headline validation, for both Mach and Ultrix.
pub fn table2(panel: &Panel) -> String {
    let os = |r: &ValidationRow| {
        let (measured, predicted) = (fmt_s(r.measured.seconds), fmt_s(r.predicted.seconds));
        format!("{measured} {predicted} {:>5.1}%", r.time_error_pct())
    };
    let body = ruled(panel, 72, mach_then_ultrix(os));
    format!(
        "Table 2: run times, measured and predicted (seconds)\n          \
         | Mach meas Mach pred   err% | Ultx meas Ultx pred   err%\n{body}\
         predicted = CPU cycles + memory stalls + pixie arith stalls + scaled idle I/O\n"
    )
}

/// Table 3: "TLB misses, measured and predicted" — the hardware UTLB
/// counter of the uninstrumented run vs the trace-driven TLB
/// simulation, for both systems.
pub fn table3(panel: &Panel) -> String {
    let os = |r: &ValidationRow| {
        let (measured, predicted) = (r.measured.utlb_misses, r.predicted.utlb_misses);
        format!("{measured:>10} {predicted:>10}")
    };
    let body = ruled(panel, 58, mach_then_ultrix(os));
    format!(
        "Table 3: user TLB misses, measured and predicted\n          \
         |  Mach meas  Mach pred |  Ultx meas  Ultx pred\n{body}\
         error sources: explicit kernel TLB writes are invisible to the simulator,\n\
         and both TLBs use random replacement (§5.2)\n"
    )
}

/// Figure 3: "Error in predicted execution times for Ultrix" — the
/// percent-error bar chart across the workloads.
pub fn figure3(panel: &Panel) -> String {
    let errs: Vec<f64> = panel.iter().map(|e| e.ultrix.time_error_pct()).collect();
    let over5 = errs.iter().filter(|&&err| err > 5.0).count();
    let body = ruled(panel, 70, |e| {
        let err = e.ultrix.time_error_pct();
        format!("{err:>6.2}% |{}", bar(err, 4.0))
    });
    format!(
        "Figure 3: percent error in predicted execution time (Ultrix)\n{body}\
         {over5} of {} workloads above 5% (the paper had 3: sed, compress, liv)\n",
        errs.len()
    )
}

/// The idle scales of the ablation: the idle loop's own slowdown (the
/// model's), the overall slowdown the clock divisor compensates, and
/// 15, the paper's overall slowdown, which it used as the idle scale
/// (§5.1).
const SCALES: [f64; 3] = [IDLE_DILATION, CLOCK_DILATION as f64, 15.0];

/// Ablation of the §5.1 idle-time scaling constant.
///
/// The predictor converts idle-loop instructions in the trace into
/// untraced I/O-wait time by dividing out the instrumentation's time
/// dilation. The paper used its single overall slowdown (15) for
/// this; our runtime slows the memory-op-free idle loop less than
/// average code, so the calibrated model uses the idle loop's own
/// measured slowdown (7.5). This view recomputes every Ultrix
/// prediction under each of `SCALES` to show how strongly the
/// constant dominates the error budget for I/O-bound workloads — the
/// paper's "estimates of idle time are one of the dominant sources of
/// error". The 7.5 column is Figure 3's error.
pub fn idle_scale(panel: &Panel) -> String {
    let errs: Vec<[f64; 3]> = panel.iter().map(|e| idle_scale_errors(&e.ultrix)).collect();
    let [worst_7_5, worst_12, worst_15] =
        [0, 1, 2].map(|k| errs.iter().map(|e| e[k]).fold(0.0, f64::max));
    let body = ruled(panel, 58, |e| {
        let p = &e.ultrix.predicted;
        let idle_pct = 100.0 * p.idle_insts as f64 / p.trace_insts.max(1) as f64;
        let [at_7_5, at_12, at_15] = idle_scale_errors(&e.ultrix);
        format!("| {idle_pct:>5.1}% | {at_7_5:>7.2}% | {at_12:>7.2}% | {at_15:>7.2}%")
    });
    format!(
        "Idle-scale ablation: predicted-time error (Ultrix) per constant\n          \
         |  idle% | err @7.5 | err @12  | err @15\n{body}\
         worst-case error: {worst_7_5:.1}% @7.5, {worst_12:.1}% @12, {worst_15:.1}% @15\n\
         the paper's own sed error (12%) is this mechanism: an idle scale\n\
         calibrated on average code, applied to the idle loop (§5.1)\n"
    )
}

/// A row's predicted-time error at each of [`SCALES`].
fn idle_scale_errors(row: &ValidationRow) -> [f64; 3] {
    SCALES.map(|scale| {
        let io_stall_cycles = row.predicted.idle_insts as f64 * scale;
        let predicted = Prediction {
            io_stall_cycles,
            ..row.predicted.prediction
        };
        percent_error(predicted.seconds(), row.measured.seconds)
    })
}

/// Formats seconds like the paper's tables (3 significant-ish digits).
fn fmt_s(s: f64) -> String {
    let precision = if s >= 10.0 { 1 } else { 3 };
    format!("{s:8.precision$}")
}

/// A horizontal bar for the Figure-3-style error chart, at most 120
/// characters.
fn bar(pct: f64, scale: f64) -> String {
    let n = (pct * scale).round() as usize;
    "#".repeat(n.min(120))
}

/// The fifteen `(size, ways)` geometries of the cache sweep, in
/// output-table order.
pub fn sweep_geometries() -> Vec<(u32, usize)> {
    [16u32 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10]
        .into_iter()
        .flat_map(|size| [1usize, 2, 4].into_iter().map(move |ways| (size, ways)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systrace::memsim::{predict, SimStats};
    use systrace::{Measured, Predicted};

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_s(0.1234).trim(), "0.123");
        assert_eq!(fmt_s(12.34).trim(), "12.3");
        assert_eq!(bar(2.0, 4.0), "########");
        assert_eq!(bar(1000.0, 4.0).len(), 120);
    }

    #[test]
    fn workload_selection_defaults_to_all() {
        // argv in tests contains the test binary name only.
        assert_eq!(selected_workloads().len(), 12);
    }

    #[test]
    fn workload_names_skip_flags_and_keep_their_order() {
        let names = ["--quiet", "liv", "sed"].map(String::from);
        let picked: Vec<_> = workloads_named(names).iter().map(|w| w.name).collect();
        assert_eq!(picked, ["liv", "sed"]);
    }

    fn workload(name: &'static str, description: &'static str) -> Workload {
        Workload {
            name,
            description,
            max_insts: 0,
            objects: Vec::new(),
            files: Vec::new(),
        }
    }

    /// A row whose prediction comes out of the model as the harness's
    /// does: `insts` traced instructions, `idle` of them in the idle
    /// loop, no stalls.
    fn row(measured_s: f64, utlb: [u64; 2], insts: u64, idle: u64) -> ValidationRow {
        let stats = SimStats {
            user_irefs: insts,
            idle_insts: idle,
            ..SimStats::default()
        };
        let prediction = predict(&stats, 0);
        ValidationRow {
            workload: String::new(),
            measured: Measured {
                seconds: measured_s,
                utlb_misses: utlb[0],
                insts: 123_456_789,
                ..Measured::default()
            },
            predicted: Predicted {
                prediction,
                seconds: prediction.seconds(),
                utlb_misses: utlb[1],
                trace_insts: insts,
                kernel_insts: 0,
                idle_insts: idle,
                traced_machine_insts: 0,
                trace_words: 0,
                mode_transitions: 0,
                parse_errors: 0,
                sanity_violations: 0,
                exit_code: 0,
            },
        }
    }

    /// Two workloads: `alpha` runs 10–20 s with 20M idle instructions
    /// of 300M on Ultrix; `beta` has an empty Ultrix trace and a 0 s
    /// measurement.
    fn with_panel(check: impl FnOnce(&Panel)) {
        let workloads = [
            workload("alpha", "Two  lines\n of   text."),
            workload("beta", "Second."),
        ];
        let panel = [
            PanelEntry {
                workload: &workloads[0],
                mach: row(12.5, [35, 37], 250_000_000, 0),
                ultrix: row(10.0, [13, 15], 300_000_000, 20_000_000),
            },
            PanelEntry {
                workload: &workloads[1],
                mach: row(0.125, [0, 1], 2_500_000, 0),
                ultrix: row(0.0, [1_234_567, 7_654_321], 0, 0),
            },
        ];
        check(&panel);
    }

    fn text(lines: &[&str]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn table1_prints_ultrix_measurements_and_one_line_descriptions() {
        let rule = "-".repeat(100);
        with_panel(|panel| {
            assert_eq!(
                table1(panel),
                text(&[
                    "Table 1: experimental workloads (untraced Ultrix, measured run time)",
                    &rule,
                    "alpha       10.0000 s    123456789 insts       13 utlb  | Two lines of text.",
                    "beta         0.0000 s    123456789 insts  1234567 utlb  | Second.",
                    &rule,
                    "(inputs are scaled ~100x down from the paper's; see EXPERIMENTS.md)",
                ])
            )
        });
    }

    #[test]
    fn table2_switches_to_one_decimal_from_ten_seconds() {
        let rule = "-".repeat(72);
        with_panel(|panel| {
            assert_eq!(
                table2(panel),
                text(&[
                    "Table 2: run times, measured and predicted (seconds)",
                    "          | Mach meas Mach pred   err% | Ultx meas Ultx pred   err%",
                    &rule,
                    "alpha     |     12.5     10.0  20.0% |     10.0     17.2  72.0%",
                    "beta      |    0.125    0.100  20.0% |    0.000    0.000   0.0%",
                    &rule,
                    "predicted = CPU cycles + memory stalls + pixie arith stalls + scaled idle I/O",
                ])
            )
        });
    }

    #[test]
    fn table3_prints_measured_and_predicted_utlb_misses() {
        let rule = "-".repeat(58);
        with_panel(|panel| {
            assert_eq!(
                table3(panel),
                text(&[
                    "Table 3: user TLB misses, measured and predicted",
                    "          |  Mach meas  Mach pred |  Ultx meas  Ultx pred",
                    &rule,
                    "alpha     |         35         37 |         13         15",
                    "beta      |          0          1 |    1234567    7654321",
                    &rule,
                    "error sources: explicit kernel TLB writes are invisible to the simulator,",
                    "and both TLBs use random replacement (§5.2)",
                ])
            )
        });
    }

    #[test]
    fn figure3_caps_its_bars_and_counts_the_workloads_above_five_percent() {
        let rule = "-".repeat(70);
        let capped = format!("alpha      72.00% |{}", "#".repeat(120));
        with_panel(|panel| {
            assert_eq!(
                figure3(panel),
                text(&[
                    "Figure 3: percent error in predicted execution time (Ultrix)",
                    &rule,
                    &capped,
                    "beta        0.00% |",
                    &rule,
                    "1 of 2 workloads above 5% (the paper had 3: sed, compress, liv)",
                ])
            )
        });
    }

    #[test]
    fn the_idle_dilation_column_is_figure_3s_error() {
        with_panel(|panel| {
            for e in panel {
                let model_column = idle_scale_errors(&e.ultrix)[0];
                assert_eq!(model_column.to_bits(), e.ultrix.time_error_pct().to_bits());
            }
        });
    }

    #[test]
    fn idle_scale_prints_every_scale_and_reads_an_empty_trace_as_idle_free() {
        let rule = "-".repeat(58);
        with_panel(|panel| {
            assert_eq!(
                idle_scale(panel),
                text(&[
                    "Idle-scale ablation: predicted-time error (Ultrix) per constant",
                    "          |  idle% | err @7.5 | err @12  | err @15",
                    &rule,
                    "alpha     |   6.7% |   72.00% |  108.00% |  132.00%",
                    "beta      |   0.0% |    0.00% |    0.00% |    0.00%",
                    &rule,
                    "worst-case error: 72.0% @7.5, 108.0% @12, 132.0% @15",
                    "the paper's own sed error (12%) is this mechanism: an idle scale",
                    "calibrated on average code, applied to the idle loop (§5.1)",
                ])
            )
        });
    }
}
