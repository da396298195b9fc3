//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md's experiment index). The helpers here
//! keep their output formats consistent.

#![forbid(unsafe_code)]

use systrace::kernel::KernelConfig;
use systrace::memsim::{AssocCache, PageMap, SpaceKey};
use systrace::trace::{Space, TraceSink};
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

/// The cache-design-sweep analysis sink (§3.1's motivating study):
/// one I-cache and one D-cache fed through a page map. Shared by
/// `cache_sweep` and `store_bench`; `tests/store_farm.rs` reproduces
/// it independently to pin farm-vs-sequential equality.
#[derive(Debug)]
pub struct CacheStudy {
    /// The instruction cache under study.
    pub icache: AssocCache,
    /// The data cache under study.
    pub dcache: AssocCache,
    pagemap: PageMap,
    cur_asid: u8,
}

impl CacheStudy {
    /// A study of one geometry (16-byte lines), translating through
    /// `pagemap`.
    pub fn new(size: u32, ways: usize, pagemap: PageMap) -> CacheStudy {
        CacheStudy {
            icache: AssocCache::new(size, 16, ways),
            dcache: AssocCache::new(size, 16, ways),
            pagemap,
            cur_asid: 1,
        }
    }

    fn translate(&mut self, vaddr: u32, space: Space) -> u32 {
        match vaddr {
            0x8000_0000..=0xbfff_ffff => vaddr & 0x1fff_ffff,
            _ => {
                let key = if vaddr >= 0xc000_0000 {
                    SpaceKey::Kernel
                } else {
                    match space {
                        Space::User(a) => SpaceKey::User(a),
                        Space::Kernel => SpaceKey::User(self.cur_asid),
                    }
                };
                self.pagemap.translate(key, vaddr)
            }
        }
    }
}

impl TraceSink for CacheStudy {
    fn iref(&mut self, vaddr: u32, space: Space, _idle: bool) {
        let pa = self.translate(vaddr, space);
        self.icache.access(pa);
    }
    fn dref(&mut self, vaddr: u32, _store: bool, _w: systrace::isa::Width, space: Space) {
        let pa = self.translate(vaddr, space);
        self.dcache.access(pa);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
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
