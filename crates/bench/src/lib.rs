//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md's experiment index). The helpers here
//! keep their output formats consistent.

#![forbid(unsafe_code)]

use systrace::kernel::KernelConfig;
use systrace::ValidationRow;

/// Workload subset selection from argv: all twelve by default, or the
/// names given on the command line (useful for quick runs).
pub fn selected_workloads() -> Vec<systrace::workloads::Workload> {
    // Skip flag-like arguments so harness flags (e.g. the `--quiet`
    // that `cargo test -q` forwards to test binaries) never read as
    // workload names.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if args.is_empty() {
        systrace::workloads::all()
    } else {
        args.iter()
            .map(|n| {
                systrace::workloads::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}"))
            })
            .collect()
    }
}

/// Runs the full validation for one workload on both operating
/// systems, like the paper's Tables 2 and 3.
pub fn validate_both(w: &systrace::workloads::Workload) -> (ValidationRow, ValidationRow) {
    let mach = systrace::validate(&KernelConfig::mach(), w);
    let ultrix = systrace::validate(&KernelConfig::ultrix(), w);
    (mach, ultrix)
}

/// Formats seconds like the paper's tables (3 significant-ish digits).
pub fn fmt_s(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:8.1}")
    } else {
        format!("{s:8.3}")
    }
}

/// Prints a horizontal bar for the Figure-3-style error chart.
pub fn bar(pct: f64, scale: f64) -> String {
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
}
