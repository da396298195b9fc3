//! The five repo analyses, as [`AnalysisSink`]s.
//!
//! Each of these used to be welded into its own harness entry or
//! experiment binary; here they are ordinary sinks, so any subset runs
//! composed over one parse. Bit-identity with the dedicated passes
//! they replace is pinned by `tests/tracer_differential.rs`:
//!
//! * [`CacheSink`] — the §3.1 cache-design-study geometry (the sink
//!   `cache_sweep` and `store_bench` replay);
//! * [`MemSim`] — the full memory-system simulation behind the §5
//!   TLB/time predictions, named `tlb`;
//! * [`DilationSink`] — the §4.1 trace-expansion measurements (words
//!   and references per traced instruction);
//! * [`PagemapSink`] — the §4.2 page-mapping study (distinct pages
//!   and frames touched per address space);
//! * [`DefenseSink`] — the §4.3 defensive checks (space/address
//!   sanity, alignment) as a standalone watchdog.

use wrl_isa::{seg, Width};
use wrl_memsim::{AssocCache, MemSim, PageMap, SpaceKey};
use wrl_trace::{Space, TraceSink, Wants};

use crate::sink::{space_label, AnalysisSink, SinkError, SinkReport};

/// The §3.1 cache-design-study sink: one I-cache and one D-cache of a
/// chosen geometry (16-byte lines), physically indexed through a page
/// map.
#[derive(Debug)]
pub struct CacheSink {
    /// The instruction cache under study.
    pub icache: AssocCache,
    /// The data cache under study.
    pub dcache: AssocCache,
    size: u32,
    ways: usize,
    pagemap: PageMap,
    cur_asid: u8,
}

impl CacheSink {
    /// Line size of both caches, in bytes.
    pub const LINE: u32 = 16;

    /// A study of one geometry, translating through `pagemap`.
    ///
    /// # Panics
    ///
    /// Panics unless [`AssocCache::valid_geometry`] holds for `size`,
    /// [`CacheSink::LINE`] and `ways`.
    pub fn new(size: u32, ways: usize, pagemap: PageMap) -> CacheSink {
        CacheSink {
            icache: AssocCache::new(size, Self::LINE, ways),
            dcache: AssocCache::new(size, Self::LINE, ways),
            size,
            ways,
            pagemap,
            cur_asid: 1,
        }
    }

    fn translate(&mut self, vaddr: u32, space: Space) -> u32 {
        if let Some((paddr, _)) = seg::unmapped(vaddr) {
            return paddr;
        }
        let key = SpaceKey::of(vaddr, space, self.cur_asid);
        self.pagemap.translate(key, vaddr)
    }
}

impl TraceSink for CacheSink {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        let pa = self.translate(vaddr, space);
        self.icache.access_run(pa, n);
    }

    fn dref(&mut self, vaddr: u32, _store: bool, _w: Width, space: Space) {
        let pa = self.translate(vaddr, space);
        self.dcache.access(pa);
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
}

impl AnalysisSink for CacheSink {
    fn name(&self) -> String {
        format!("cache:{}:{}", self.size, self.ways)
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("icache_accesses", self.icache.accesses);
        r.push("icache_misses", self.icache.misses);
        r.push("icache_miss_ratio", self.icache.miss_ratio());
        r.push("dcache_accesses", self.dcache.accesses);
        r.push("dcache_misses", self.dcache.misses);
        r.push("dcache_miss_ratio", self.dcache.miss_ratio());
        Ok(r)
    }
}

/// The full memory-system simulation as an analysis sink: caches,
/// write buffer, and the TLB whose misses drive the Table 3
/// predictions. The report carries every [`wrl_memsim::SimStats`]
/// counter so bit-identity with a dedicated simulation pass is a
/// field-for-field report comparison.
impl AnalysisSink for MemSim {
    fn name(&self) -> String {
        "tlb".into()
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let s = &self.stats;
        let mut r = SinkReport::new(self.name());
        r.push("user_irefs", s.user_irefs);
        r.push("kernel_irefs", s.kernel_irefs);
        r.push("user_drefs", s.user_drefs);
        r.push("kernel_drefs", s.kernel_drefs);
        r.push("imisses", s.imisses);
        r.push("imisses_kernel", s.imisses_kernel);
        r.push("dmisses", s.dmisses);
        r.push("dmisses_kernel", s.dmisses_kernel);
        r.push("uncached", s.uncached);
        r.push("wb_stall_cycles", s.wb_stall_cycles);
        r.push("utlb_misses", s.utlb_misses);
        r.push("synth_irefs", s.synth_irefs);
        r.push("idle_insts", s.idle_insts);
        r.push("stores", s.stores);
        r.push("sanity_violations", s.sanity_violations);
        r.push("kernel_cycles", s.kernel_cycles);
        r.push("user_cycles", s.user_cycles);
        r.push("cycles", self.cycles);
        Ok(r)
    }
}

/// The §4.1 trace-expansion sink: how many trace words and memory
/// references the traced system emits per original instruction — the
/// denominator side of the paper's "factor of 10–25" dilation claim.
/// Wants the word hook (it counts raw words).
#[derive(Debug, Default)]
pub struct DilationSink {
    words: u64,
    irefs: u64,
    drefs: u64,
    ctx_switches: u64,
    mode_transitions: u64,
}

impl TraceSink for DilationSink {
    fn irefs(&mut self, _v: u32, n: u32, _s: Space, _i: bool) {
        self.irefs += u64::from(n);
    }

    fn dref(&mut self, _v: u32, _st: bool, _w: Width, _s: Space) {
        self.drefs += 1;
    }

    fn ctx_switch(&mut self, _a: u8) {
        self.ctx_switches += 1;
    }

    fn mode_transition(&mut self, _g: bool) {
        self.mode_transitions += 1;
    }

    fn wants(&self) -> Wants {
        Wants::Words
    }

    fn word(&mut self, _pos: u64) {
        self.words += 1;
    }
}

impl AnalysisSink for DilationSink {
    fn name(&self) -> String {
        "dilation".into()
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("words", self.words);
        r.push("insts", self.irefs);
        r.push("drefs", self.drefs);
        r.push("ctx_switches", self.ctx_switches);
        r.push("mode_transitions", self.mode_transitions);
        if self.irefs > 0 {
            r.push("words_per_inst", self.words as f64 / self.irefs as f64);
            r.push(
                "refs_per_inst",
                (self.irefs + self.drefs) as f64 / self.irefs as f64,
            );
        }
        Ok(r)
    }
}

/// The §4.2 page-mapping sink: distinct virtual pages touched per
/// address space, and the frames a mapping policy hands them. The
/// rows of the spaces referenced come back as report children,
/// ordered by space key.
pub struct PagemapSink {
    pagemap: PageMap,
    cur_asid: u8,
    /// Per space, by [`SpaceKey::index`]: (distinct pages via the map,
    /// references).
    rows: [(u64, u64); SpaceKey::COUNT],
    pages_before: u64,
}

impl PagemapSink {
    /// A page-usage study translating through `pagemap` (its
    /// pre-existing mappings are not counted as touched).
    pub fn new(pagemap: PageMap) -> PagemapSink {
        let pages_before = pagemap.len() as u64;
        PagemapSink {
            pagemap,
            cur_asid: 1,
            rows: [(0, 0); SpaceKey::COUNT],
            pages_before,
        }
    }

    /// Counts `n` references to `vaddr`'s page.
    fn touch(&mut self, vaddr: u32, n: u32, space: Space) {
        // kseg0/kseg1 are unmapped segments: no page map involved.
        if seg::unmapped(vaddr).is_some() {
            return;
        }
        let key = SpaceKey::of(vaddr, space, self.cur_asid);
        let before = self.pagemap.len() as u64;
        self.pagemap.translate(key, vaddr);
        let row = &mut self.rows[key.index() as usize];
        row.0 += self.pagemap.len() as u64 - before;
        row.1 += u64::from(n);
    }
}

impl TraceSink for PagemapSink {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        self.touch(vaddr, n, space);
    }

    fn dref(&mut self, vaddr: u32, _store: bool, _w: Width, space: Space) {
        self.touch(vaddr, 1, space);
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
}

impl AnalysisSink for PagemapSink {
    fn name(&self) -> String {
        "pagemap".into()
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        let rows = || (0u32..).zip(&self.rows).filter(|(_, row)| row.1 > 0);
        r.push("spaces", rows().count() as u64);
        r.push(
            "pages_mapped",
            self.pagemap.len() as u64 - self.pages_before,
        );
        r.push("mapped_refs", rows().map(|(_, v)| v.1).sum::<u64>());
        for (key, (pages, refs)) in rows() {
            let mut child = SinkReport::new(space_label(key.checked_sub(1)));
            child.push("pages", *pages);
            child.push("refs", *refs);
            r.children.push(child);
        }
        Ok(r)
    }
}

/// The §4.3 defensive-check sink: the parser's redundancy checks,
/// runnable standalone over any source. Kernel irefs must carry
/// kernel addresses (and vice versa), user refs must never carry
/// kernel addresses, and data references must be aligned to their
/// width.
#[derive(Debug, Default)]
pub struct DefenseSink {
    irefs: u64,
    drefs: u64,
    sanity_violations: u64,
    user_kernel_drefs: u64,
    misaligned: u64,
    mode_transitions: u64,
}

impl TraceSink for DefenseSink {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        self.irefs += u64::from(n);
        // The same check MemSim applies (§4.3): kernel instruction
        // addresses must be in the kernel instruction address space.
        let is_kaddr = vaddr >= 0x8000_0000;
        if matches!(space, Space::Kernel) != is_kaddr {
            self.sanity_violations += u64::from(n);
        }
    }

    fn dref(&mut self, vaddr: u32, _store: bool, w: Width, space: Space) {
        self.drefs += 1;
        // Kernel legally touches user memory (copyin/copyout), but a
        // user-mode reference to a kernel address is always wrong.
        if matches!(space, Space::User(_)) && vaddr >= 0x8000_0000 {
            self.user_kernel_drefs += 1;
        }
        if !vaddr.is_multiple_of(w.bytes()) {
            self.misaligned += 1;
        }
    }

    fn mode_transition(&mut self, _g: bool) {
        self.mode_transitions += 1;
    }
}

impl AnalysisSink for DefenseSink {
    fn name(&self) -> String {
        "defense".into()
    }

    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        let mut r = SinkReport::new(self.name());
        r.push("irefs", self.irefs);
        r.push("drefs", self.drefs);
        r.push("sanity_violations", self.sanity_violations);
        r.push("user_kernel_drefs", self.user_kernel_drefs);
        r.push("misaligned", self.misaligned);
        r.push("mode_transitions", self.mode_transitions);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_memsim::Policy;

    #[test]
    fn defense_flags_wrong_space_and_misalignment() {
        let mut d = DefenseSink::default();
        d.irefs(0x0040_0000, 1, Space::Kernel, false);
        d.irefs(0x8003_0000, 1, Space::Kernel, false);
        d.dref(0x8000_0001, false, Width::Word, Space::User(1));
        let r = d.finish().unwrap();
        assert_eq!(r.get_u64("sanity_violations"), Some(1));
        assert_eq!(r.get_u64("user_kernel_drefs"), Some(1));
        assert_eq!(r.get_u64("misaligned"), Some(1));
    }

    #[test]
    fn pagemap_rows_count_distinct_pages_per_space() {
        let mut p = PagemapSink::new(PageMap::new(Policy::FirstFree { base_pfn: 0x100 }));
        p.irefs(0x0040_0000, 1, Space::User(1), false);
        p.irefs(0x0040_0004, 1, Space::User(1), false); // same page
        p.irefs(0x0040_1000, 1, Space::User(1), false); // next page
        p.dref(0xc000_0000, false, Width::Word, Space::Kernel);
        p.irefs(0x8003_0000, 1, Space::Kernel, false); // kseg0: unmapped
        let r = p.finish().unwrap();
        assert_eq!(r.get_u64("spaces"), Some(2));
        assert_eq!(r.get_u64("pages_mapped"), Some(3));
        assert_eq!(r.get_u64("mapped_refs"), Some(4));
        assert_eq!(r.children[0].sink, "kernel");
        assert_eq!(r.children[0].get_u64("pages"), Some(1));
        assert_eq!(r.children[1].sink, "asid:1");
        assert_eq!(r.children[1].get_u64("pages"), Some(2));
    }

    #[test]
    fn dilation_counts_words_via_hooks() {
        let mut d = DilationSink::default();
        assert_eq!(d.wants(), Wants::Words);
        for i in 0..10 {
            d.word(i);
        }
        d.irefs(0x8000_0000, 1, Space::Kernel, false);
        d.irefs(0x8000_0004, 1, Space::Kernel, false);
        let r = d.finish().unwrap();
        assert_eq!(r.get_u64("words"), Some(10));
        assert_eq!(r.get("words_per_inst"), Some(&crate::Value::F64(5.0)));
    }
}
