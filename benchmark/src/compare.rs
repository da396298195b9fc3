//! `benchmark compare <set-a> <set-b>`: two sets of run outputs, one
//! verdict per workload and end-to-end metric.
//!
//! A set is a directory of files, each the standard output of one
//! run; the `metric` lines are what is read. The verdict follows the
//! rule the benchmark's bounds exist for: `worse` when B's median is
//! worse than A's by more than the metric's bound, `better` when it is
//! better by more than the bound, `unresolved` when either side's
//! interquartile range is wider than the bound and the two sides'
//! runs overlap (the sets cannot tell), `same` otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;

/// `workload → metric → values`, one value per run.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Same,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// Adds the `metric <workload> <name> <value> <unit> ...` lines of one
/// run's output to `set`.
pub fn read_run(text: &str, set: &mut Set) {
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if f.next() != Some("metric") {
            continue;
        }
        if let (Some(workload), Some(name), Some(Ok(value))) =
            (f.next(), f.next(), f.next().map(str::parse::<f64>))
        {
            set.entry(workload.to_string())
                .or_default()
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }
}

fn read_set(dir: &Path) -> std::io::Result<Set> {
    let mut set = Set::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    for f in files {
        read_run(&std::fs::read_to_string(f)?, &mut set);
    }
    Ok(set)
}

/// Median and quartiles of one side; a single run is its own median.
fn summary(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    stats::sort(&mut v);
    if v.len() < 2 {
        [v[0]; 3]
    } else {
        stats::quartiles(&v)
    }
}

/// `(share by which B's median is worse than A's, verdict)`.
pub fn judge(a: &[f64], b: &[f64], m: &EndToEnd) -> (f64, Verdict) {
    let ([a1, a2, a3], [b1, b2, b3]) = (summary(a), summary(b));
    let worse_by = match m.better {
        Better::Lower => (b2 - a2) / a2,
        Better::Higher => (a2 - b2) / a2,
    };
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let verdict = if spread > m.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
}

/// Renders the comparison, workloads and metrics in the benchmark's
/// own order; the flag says whether any row is `worse`. `range %` is
/// the distance between the lowest and the highest run of both sides
/// as a share of A's median: 0 for a count that repeated exactly.
pub fn render(a: &Set, b: &Set) -> (String, bool) {
    let mut out =
        format!(
        "{:16} {:16} {:>2} {:>12} {:>12} {:>12} {:>2} {:>12} {:>12} {:>12} {:>8} {:>9} {:>7}  {}\n",
        "workload", "metric", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3",
        "range %", "B worse %", "bound %", "verdict"
    );
    let mut any_worse = false;
    for workload in crate::WORKLOADS {
        for m in &END_TO_END {
            let of = |set: &'_ Set| set.get(workload).and_then(|w| w.get(m.name)).cloned();
            let (Some(va), Some(vb)) = (of(a), of(b)) else {
                continue;
            };
            let (worse_by, verdict) = judge(&va, &vb, m);
            any_worse |= verdict == Verdict::Worse;
            let ([a1, a2, a3], [b1, b2, b3]) = (summary(&va), summary(&vb));
            let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(&va), min_max(&vb));
            out.push_str(&format!(
                "{workload:16} {:16} {:>2} {a1:>12.4} {a2:>12.4} {a3:>12.4} {:>2} {b1:>12.4} {b2:>12.4} {b3:>12.4} {:>8.3} {:>+9.2} {:>7.1}  {}\n",
                m.name,
                va.len(),
                vb.len(),
                (a_hi.max(b_hi) - a_lo.min(b_lo)) / a2 * 100.0,
                worse_by * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    (out, any_worse)
}

/// The `compare` subcommand; the exit code.
pub fn main(a: &str, b: &str) -> i32 {
    let sets = read_set(Path::new(a)).and_then(|sa| Ok((sa, read_set(Path::new(b))?)));
    match sets {
        Ok((sa, sb)) if !sa.is_empty() && !sb.is_empty() => {
            let (table, any_worse) = render(&sa, &sb);
            print!("{table}");
            i32::from(any_worse)
        }
        Ok(_) => {
            eprintln!("compare: a set holds no `metric` line");
            2
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn metric_lines_are_read_and_other_lines_are_not() {
        let mut set = Set::new();
        read_run(
            "# header\nmetric serve_query op_p50_us 41.5 us n=100\ndiag serve_query drift_pct 3\n\
             metric serve_query op_p50_us 43.5 us n=100\n{\"correct\":true}\n",
            &mut set,
        );
        assert_eq!(set["serve_query"]["op_p50_us"], vec![41.5, 43.5]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn tight_sets_are_judged_by_their_medians_against_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = |f: f64| a.map(|x| x * f);
        // peak_rss_mb: lower is better, bound 5 %.
        assert_eq!(judge(&a, &up(1.02), m("peak_rss_mb")).1, Verdict::Same);
        assert_eq!(judge(&a, &up(1.08), m("peak_rss_mb")).1, Verdict::Worse);
        assert_eq!(judge(&a, &up(0.90), m("peak_rss_mb")).1, Verdict::Better);
        // mwords_per_s: higher is better, so a drop is what is worse.
        let bound = m("mwords_per_s").bound;
        assert_eq!(
            judge(&a, &up(1.0 - bound - 0.05), m("mwords_per_s")).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &up(1.0 + bound + 0.05), m("mwords_per_s")).1,
            Verdict::Better
        );
        let (worse_by, _) = judge(&a, &up(1.08), m("peak_rss_mb"));
        assert!((worse_by - 0.08).abs() < 1e-12);
    }

    #[test]
    fn wide_overlapping_sets_are_unresolved_and_disjoint_ones_are_not() {
        // Spread far beyond 5 %, ranges overlapping.
        let a = [60.0, 80.0, 100.0, 120.0, 140.0];
        let b = [70.0, 90.0, 110.0, 130.0, 150.0];
        assert_eq!(judge(&a, &b, m("peak_rss_mb")).1, Verdict::Unresolved);
        // As wide, but every run of B is above every run of A.
        let c = a.map(|x| x + 200.0);
        assert_eq!(judge(&a, &c, m("peak_rss_mb")).1, Verdict::Worse);
    }

    #[test]
    fn a_single_run_a_side_compares_as_its_own_median() {
        assert_eq!(judge(&[6.6], &[6.6], m("dilation_x")).1, Verdict::Same);
        assert_eq!(judge(&[6.6], &[6.8], m("dilation_x")).1, Verdict::Worse);
    }

    #[test]
    fn the_table_flags_a_worse_row() {
        let mut a = Set::new();
        let mut b = Set::new();
        read_run("metric archive_scan bytes_per_word 1.00 B/word", &mut a);
        read_run("metric archive_scan bytes_per_word 1.10 B/word", &mut b);
        read_run("metric archive_scan unknown_metric 1 x", &mut a);
        let (table, any_worse) = render(&a, &b);
        assert!(any_worse);
        assert!(table.lines().nth(1).unwrap().ends_with("worse"));
        assert_eq!(table.lines().count(), 2);
    }
}
