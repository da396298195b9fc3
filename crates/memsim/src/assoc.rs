//! Set-associative cache model for design-space studies.
//!
//! The tracing system's purpose was "accurate simulations of the
//! large memory systems that are required by state-of-the-art
//! processors" (§3.1); the traces fed follow-on studies of cache and
//! page-placement design ([7, 9, 18]). The machine itself is
//! direct-mapped like the DECstation, but trace-driven exploration
//! wants associativity — this LRU model provides it.

/// The `line`-byte lines that `n` word accesses at `paddr`,
/// `paddr + 4`, ... touch: per line, the first access's address and
/// how many of the `n` fall on it. `line` is a power of two, as every
/// cache here asserts, so the offset in a line is a mask, not a
/// division.
pub(crate) fn line_spans(paddr: u32, n: u32, line: u32) -> impl Iterator<Item = (u32, u32)> {
    debug_assert!(line.is_power_of_two());
    let (mut pa, mut left) = (paddr, n);
    std::iter::from_fn(move || {
        (left > 0).then(|| {
            let on_line = (line - (pa & (line - 1))).div_ceil(4).min(left);
            let span = (pa, on_line);
            pa = pa.wrapping_add(4 * on_line);
            left -= on_line;
            span
        })
    })
}

/// A set-associative, LRU, tag-only cache.
#[derive(Clone, Debug)]
pub struct AssocCache {
    /// Sets × ways tags: set `s` is `tags[s * ways..][..ways]`, its
    /// first `fill[s]` valid and most recently used first.
    tags: Vec<u32>,
    fill: Vec<u32>,
    ways: usize,
    line_shift: u32,
    set_mask: u32,
    /// Accesses observed.
    pub accesses: u64,
    /// Misses observed.
    pub misses: u64,
}

impl AssocCache {
    /// The geometry rule [`AssocCache::new`] asserts: `size`, `line`
    /// and `ways` are powers of two and there are at least `ways`
    /// lines.
    pub fn valid_geometry(size: u32, line: u32, ways: usize) -> bool {
        size.is_power_of_two()
            && line.is_power_of_two()
            && ways.is_power_of_two()
            && ways <= (size / line) as usize
    }

    /// Creates a cache of `size` bytes, `line`-byte lines and `ways`
    /// ways (`ways == 1` is direct-mapped, `ways == size/line` fully
    /// associative).
    ///
    /// # Panics
    ///
    /// Panics unless [`AssocCache::valid_geometry`] holds.
    pub fn new(size: u32, line: u32, ways: usize) -> AssocCache {
        assert!(
            AssocCache::valid_geometry(size, line, ways),
            "cache geometry {size}/{line}/{ways}"
        );
        let nsets = (size / line) as usize / ways;
        AssocCache {
            tags: vec![0; nsets * ways],
            fill: vec![0; nsets],
            ways,
            line_shift: line.trailing_zeros(),
            set_mask: (nsets as u32) - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `paddr`; returns true on hit. Misses allocate with
    /// LRU replacement.
    pub fn access(&mut self, paddr: u32) -> bool {
        self.accesses += 1;
        let lineno = paddr >> self.line_shift;
        let set = (lineno & self.set_mask) as usize;
        let tag = lineno >> self.set_mask.trailing_ones();
        let fill = self.fill[set] as usize;
        let ways = &mut self.tags[set * self.ways..][..self.ways];
        if let Some(pos) = ways[..fill].iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            return true;
        }
        let fill = (fill + 1).min(self.ways);
        self.fill[set] = fill as u32;
        ways[..fill].rotate_right(1);
        ways[0] = tag;
        self.misses += 1;
        false
    }

    /// `k` word accesses at `paddr`, `paddr + 4`, ...: one lookup per
    /// line they touch, and the rest of each line a hit on the line
    /// that lookup just made most recent.
    pub fn access_run(&mut self, paddr: u32, k: u32) {
        for (pa, on_line) in line_spans(paddr, k, 1 << self.line_shift) {
            self.access(pa);
            self.accesses += u64::from(on_line - 1);
        }
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_matches_conflict_pattern() {
        let mut c = AssocCache::new(1024, 16, 1);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(1024)); // conflicts in a direct-mapped cache
        assert!(!c.access(0));
    }

    #[test]
    fn two_way_resolves_the_same_conflict() {
        let mut c = AssocCache::new(1024, 16, 2);
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(c.access(0)); // both fit in a 2-way set
        assert!(c.access(1024));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = AssocCache::new(64, 16, 2); // 2 sets, 2 ways
                                                // Set 0 lines: 0, 32, 64, ...
        c.access(0);
        c.access(32);
        c.access(0); // 0 is now MRU
        assert!(!c.access(64)); // evicts 32
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    fn fully_associative_has_no_conflicts_within_capacity() {
        let mut c = AssocCache::new(256, 16, 16);
        for i in 0..16 {
            assert!(!c.access(i * 16));
        }
        for i in 0..16 {
            assert!(c.access(i * 16), "line {i} evicted within capacity");
        }
    }

    #[test]
    fn miss_ratio_accounting() {
        let mut c = AssocCache::new(256, 16, 2);
        for _ in 0..3 {
            c.access(0);
        }
        assert_eq!(c.accesses, 3);
        assert_eq!(c.misses, 1);
        assert!((c.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }
}
