//! The DECstation 5000/200, stated once.
//!
//! The paper validates against one machine, so its numbers are
//! constants, not options: the whole-machine simulator (the *measured*
//! column of Tables 2 and 3), the trace-driven simulator and the §5.1
//! predictor (the *predicted* column) all read this module, and the
//! two columns cannot disagree on a parameter.

use crate::cache::CacheCfg;

/// Instruction cache: 64 KB direct-mapped, 16 B lines.
pub const ICACHE: CacheCfg = CacheCfg {
    size: 64 * 1024,
    line: 16,
};
/// Data cache: 64 KB direct-mapped write-through, 4 B lines.
pub const DCACHE: CacheCfg = CacheCfg {
    size: 64 * 1024,
    line: 4,
};
/// Write-buffer depth in entries.
pub const WB_ENTRIES: usize = 4;
/// Cycles for one write-buffer entry to retire.
pub const WB_DRAIN_CYCLES: u64 = 5;
/// I-cache miss penalty in cycles.
pub const IMISS_PENALTY: u64 = 15;
/// D-cache read-miss penalty in cycles.
pub const DMISS_PENALTY: u64 = 15;
/// Uncached-access penalty in cycles.
pub const UNCACHED_PENALTY: u64 = 20;
/// Pipeline cycles to enter an exception handler.
pub const EXC_ENTRY_CYCLES: u64 = 4;
/// Pipeline cycles for `rfe`.
pub const RFE_CYCLES: u64 = 3;
/// Disk operation latency in cycles.
pub const DISK_LATENCY: u64 = 60_000;
/// Cycle time in nanoseconds (the 25 MHz clock).
pub const CYCLE_NS: f64 = 40.0;

/// Cycles the long-running operations take.
pub mod lat {
    /// FP add/subtract.
    pub const FP_ADD: u64 = 2;
    /// FP multiply.
    pub const FP_MUL: u64 = 5;
    /// FP divide.
    pub const FP_DIV: u64 = 19;
    /// FP convert.
    pub const FP_CVT: u64 = 3;
    /// FP compare.
    pub const FP_CMP: u64 = 2;
    /// Integer multiply (HI/LO ready).
    pub const INT_MUL: u64 = 12;
    /// Integer divide.
    pub const INT_DIV: u64 = 35;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed number stands on these: a changed constant
    /// fails here, by name, before it moves Table 2.
    #[test]
    fn the_eleven_values_are_pinned() {
        assert_eq!((ICACHE.size, ICACHE.line), (65536, 16));
        assert_eq!((DCACHE.size, DCACHE.line), (65536, 4));
        assert_eq!((WB_ENTRIES, WB_DRAIN_CYCLES), (4, 5));
        assert_eq!(
            (IMISS_PENALTY, DMISS_PENALTY, UNCACHED_PENALTY),
            (15, 15, 20)
        );
        assert_eq!((EXC_ENTRY_CYCLES, RFE_CYCLES), (4, 3));
        assert_eq!(DISK_LATENCY, 60_000);
        assert_eq!(CYCLE_NS, 40.0);
        assert_eq!(
            [
                lat::FP_ADD,
                lat::FP_MUL,
                lat::FP_DIV,
                lat::FP_CVT,
                lat::FP_CMP
            ],
            [2, 5, 19, 3, 2]
        );
        assert_eq!((lat::INT_MUL, lat::INT_DIV), (12, 35));
    }
}
