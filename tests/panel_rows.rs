//! The §5 validation panel pinned in tier-1: the sub-panel
//! {sed, yacc} × {Mach, Ultrix} renders, in each of the eight views,
//! the rows committed under `results/`, byte for byte, and its
//! validations meet the paper's quality bars. The `cycles` view pins
//! each prediction to the cycle.

use systrace::ValidationRow;

/// The quality bars of one validation (§5.2): a clean trace, the
/// predicted time within `max_err_pct`, and the predicted TLB misses
/// within 25% or 30 misses, whichever is larger (random replacement +
/// invisible explicit fills).
fn check_validation(what: &str, row: &ValidationRow, max_err_pct: f64) {
    assert_eq!(row.predicted.parse_errors, 0, "{what}: trace corrupt");
    assert_eq!(row.predicted.sanity_violations, 0, "{what}");
    let err = row.time_error_pct();
    assert!(err <= max_err_pct, "{what}: time error {err:.1}%");
    let m = row.measured.utlb_misses as f64;
    let p = row.predicted.stats.utlb_misses as f64;
    let tlb_ok = (m - p).abs() <= (0.25 * m).max(30.0);
    assert!(tlb_ok, "{what}: TLB measured {m} predicted {p}");
}

/// The line of `text` that is `workload`'s row.
fn row_of<'t>(text: &'t str, workload: &str) -> Option<&'t str> {
    let named = |l: &&str| l.split_whitespace().next() == Some(workload);
    text.lines().find(named)
}

#[test]
fn sed_and_yacc_rows_of_every_view_are_the_committed_ones() {
    let workloads = wrl_bench::workloads_named(["sed", "yacc"].map(String::from));
    let panel = wrl_bench::validate_panel(&workloads);
    let [sed, yacc] = &panel[..] else {
        unreachable!()
    };
    check_validation("sed on Mach", &sed.mach, 8.0);
    check_validation("sed on Ultrix", &sed.ultrix, 8.0);
    check_validation("yacc on Ultrix", &yacc.ultrix, 8.0);
    // Table 2's committed Mach yacc error is 8.5%.
    check_validation("yacc on Mach", &yacc.mach, 9.0);

    for (name, render) in wrl_bench::VIEWS {
        let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect(&path);
        let rendered = render(&panel);
        for w in &workloads {
            let row = row_of(&rendered, w.name);
            assert!(row.is_some(), "{name} renders no {} row", w.name);
            assert_eq!(row, row_of(&committed, w.name), "{name}.txt, {}", w.name);
        }
    }
}
