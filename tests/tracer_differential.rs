//! The tracer differential: a composed one-pass stack is
//! *bit-identical* to dedicated single-analysis passes.
//!
//! * Five ported analyses (cache study, TLB simulation, dilation,
//!   pagemap, defensive checks) composed in one stack vs each run
//!   alone — equal report-for-report, over the in-memory stream and
//!   over stores at block sizes {1, 7, 4096} with the sinks spread
//!   over 1/2/3/4 workers, word-hook sinks included, each pass
//!   routing exactly events × sinks applications.
//! * A real machine run through the harness: the same five-sink
//!   stack rides the prediction's own parse (one parser a run), and
//!   composing it leaves the prediction bit-identical.
//! * Grounding against the pre-existing dedicated implementations:
//!   the `cache_sweep` study sink and a raw [`MemSim`] pass.
//! * The isolation contract on every drive path: a sink that latches
//!   a fault reports it typed in its own slot and leaves its siblings
//!   bit-identical.
//! * The three new window analyses pin their golden-trace reports
//!   byte-for-byte (sampled duty-cycle windows, per-ASID working-set
//!   curves, phase change-points).

use systrace::memsim::{AssocCache, MemSim, PageMap, Policy, SpaceKey};
use systrace::store::{FarmCfg, TraceStore};
use systrace::trace::{EventVec, RefEvent, Space, TraceArchive, TraceSink, Wants};
use systrace::tracer::{
    analyze_store, analyze_words, build_stack, AnalysisSink, CacheSink, DefenseSink, DilationSink,
    PagemapSink, SinkError, SinkReport, Stack, StackReport, TracerObs,
};

mod common;
use common::{counter, golden};

/// The page-map policy every dedicated pass and every spec-built sink
/// uses (same as `tracedump sim`).
fn pm() -> PageMap {
    PageMap::new(Policy::FirstFree { base_pfn: 0x2000 })
}

/// The five ported analyses, freshly constructed in a fixed order.
fn five() -> Vec<Box<dyn AnalysisSink + Send>> {
    vec![
        Box::new(CacheSink::new(65536, 2, pm())),
        Box::new(MemSim::new(pm())),
        Box::new(DilationSink::default()),
        Box::new(PagemapSink::new(pm())),
        Box::new(DefenseSink::default()),
    ]
}

/// The event-only subset (no word hook): every worker's driver takes
/// the event path.
fn event_only() -> Vec<Box<dyn AnalysisSink + Send>> {
    vec![
        Box::new(CacheSink::new(65536, 2, pm())),
        Box::new(MemSim::new(pm())),
        Box::new(PagemapSink::new(pm())),
        Box::new(DefenseSink::default()),
    ]
}

/// Runs each sink of `make()` alone over the in-memory stream — the
/// dedicated passes the composed run must reproduce exactly.
fn dedicated(a: &TraceArchive, make: fn() -> Vec<Box<dyn AnalysisSink + Send>>) -> Vec<SinkReport> {
    make()
        .into_iter()
        .map(|sink| {
            let mut stack = Stack::new();
            stack.push_boxed(sink);
            let mut report = analyze_words(a.parser(), &a.words, stack);
            assert_eq!(report.failed(), 0, "a dedicated pass never fails");
            report.reports.remove(0).expect("no failure")
        })
        .collect()
}

#[test]
fn composed_one_pass_is_bit_identical_to_dedicated_passes() {
    let a = golden();
    let expected = dedicated(&a, five);

    // In-memory composed pass.
    let mut stack = Stack::new();
    for s in five() {
        stack.push_boxed(s);
    }
    let composed = analyze_words(a.parser(), &a.words, stack);
    assert_eq!(composed.failed(), 0);
    assert_eq!(composed.words, a.words.len() as u64);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            composed.ok(i).expect("slot succeeded"),
            want,
            "composed slot {i} diverged from its dedicated pass"
        );
    }
}

/// Events in `a`'s stream from a parse that shares no code with the
/// `Stack`: every buffered event counts one, a run of fetches one per
/// fetch.
fn events_in(a: &TraceArchive) -> u64 {
    let mut buf = EventVec::default();
    a.parser().parse_all(&a.words, &mut buf);
    buf.0
        .iter()
        .map(|e| match e {
            RefEvent::Iref { n, .. } => u64::from(*n),
            _ => 1,
        })
        .sum()
}

#[test]
fn composed_store_passes_match_dedicated_at_every_block_size_and_worker_count() {
    let a = golden();
    let expected_five = dedicated(&a, five);
    let expected_events = dedicated(&a, event_only);
    let events = events_in(&a);

    for block_words in [1usize, 7, 4096] {
        let store = TraceStore::from_archive(&a, block_words);
        for workers in [1usize, 2, 3, 4] {
            let cfg = FarmCfg { workers };
            // The full five-sink stack: dilation wants the word hook, so
            // the worker that holds it drives word-at-a-time while the
            // others take the event path.
            let mut stack = Stack::new();
            for s in five() {
                stack.push_boxed(s);
            }
            let report = analyze_store(&store, stack, cfg).expect("store pass succeeds");
            let tag = format!("block={block_words} workers={workers}");
            assert_eq!(report.failed(), 0, "{tag}");
            assert_eq!(report.words, a.words.len() as u64, "{tag}");
            assert_eq!(
                report.applied,
                expected_five.len() as u64 * events,
                "{tag}: five-stack applied"
            );
            for (i, want) in expected_five.iter().enumerate() {
                assert_eq!(report.ok(i).unwrap(), want, "{tag}: five-stack slot {i}");
            }

            // The event-only stack, spread the same way: every worker
            // parses the whole stream in order, so the spread must be
            // invisible in the reports.
            let mut stack = Stack::new();
            for s in event_only() {
                stack.push_boxed(s);
            }
            let report = analyze_store(&store, stack, cfg).expect("store pass succeeds");
            assert_eq!(report.failed(), 0, "{tag}");
            assert_eq!(
                report.applied,
                expected_events.len() as u64 * events,
                "{tag}: event-stack applied"
            );
            for (i, want) in expected_events.iter().enumerate() {
                assert_eq!(report.ok(i).unwrap(), want, "{tag}: event-stack slot {i}");
            }
        }
    }
}

/// The harness feeds the prediction's simulator and the composed
/// stack from one parse: the stack's report carries that parse's
/// statistics, and composing five sinks (dilation wants the word hook, so
/// the whole tee takes the word-at-a-time path) changes nothing the
/// prediction sees.
#[test]
fn harness_run_feeds_prediction_and_stack_from_one_parse() {
    use systrace::kernel::KernelConfig;
    use systrace::AnalyzeCfg;

    let w = systrace::workloads::by_name("sed").unwrap();
    let cfg = KernelConfig::ultrix().traced();
    let acfg = AnalyzeCfg {
        arith_stalls: systrace::pixie_arith_stalls(&w),
        ..AnalyzeCfg::default()
    };
    let plain = systrace::run_analyzed(&cfg, &w, acfg.clone(), Stack::new(), None);
    assert_eq!(plain.stack.reports.len(), 0);
    assert_eq!(plain.stack.words, plain.predicted.trace_words);

    for tapped in [false, true] {
        let mut stack = Stack::new();
        for s in five() {
            stack.push_boxed(s);
        }
        let mut noop = |_: &[u32]| {};
        let tap = tapped.then_some(&mut noop as &mut dyn FnMut(&[u32]));
        let run = systrace::run_analyzed(&cfg, &w, acfg.clone(), stack, tap);
        let tag = format!("parsed in the drain callback: {tapped}");
        assert_eq!(run.predicted, plain.predicted, "{tag}");
        assert_eq!(run.stack.failed(), 0, "{tag}");
        assert_eq!(run.stack.parse, plain.stack.parse, "{tag}");
        assert_eq!(run.stack.words, run.predicted.trace_words, "{tag}");
        assert_eq!(run.stack.parse.words, run.predicted.trace_words, "{tag}");
        assert_eq!(run.stack.parse.errors, run.predicted.parse_errors, "{tag}");
    }
}

/// The original `cache_sweep` study sink, reproduced as in
/// `tests/store_farm.rs`, so [`CacheSink`] is checked against an
/// independent reference copy — not just against itself.
#[derive(Debug)]
struct CacheStudy {
    icache: AssocCache,
    dcache: AssocCache,
    pagemap: PageMap,
    cur_asid: u8,
}

impl CacheStudy {
    fn new(size: u32, ways: usize) -> CacheStudy {
        CacheStudy {
            icache: AssocCache::new(size, 16, ways),
            dcache: AssocCache::new(size, 16, ways),
            pagemap: pm(),
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
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, _idle: bool) {
        for i in 0..n {
            let pa = self.translate(vaddr + 4 * i, space);
            self.icache.access(pa);
        }
    }
    fn dref(&mut self, vaddr: u32, _store: bool, _w: systrace::isa::Width, space: Space) {
        let pa = self.translate(vaddr, space);
        self.dcache.access(pa);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.cur_asid = asid;
    }
}

#[test]
fn cache_sink_matches_the_dedicated_cache_study_across_a_sweep() {
    let a = golden();
    for size in [16u32 << 10, 64 << 10, 256 << 10] {
        for ways in [1usize, 2, 4] {
            let mut study = CacheStudy::new(size, ways);
            a.parser().parse_all(&a.words, &mut study);

            let report = analyze_words(
                a.parser(),
                &a.words,
                Stack::new().with(CacheSink::new(size, ways, pm())),
            );
            let r = report.ok(0).expect("cache slot succeeded");
            let tag = format!("size={size} ways={ways}");
            assert_eq!(
                r.get_u64("icache_accesses"),
                Some(study.icache.accesses),
                "{tag}"
            );
            assert_eq!(
                r.get_u64("icache_misses"),
                Some(study.icache.misses),
                "{tag}"
            );
            assert_eq!(
                r.get_u64("dcache_accesses"),
                Some(study.dcache.accesses),
                "{tag}"
            );
            assert_eq!(
                r.get_u64("dcache_misses"),
                Some(study.dcache.misses),
                "{tag}"
            );
        }
    }
}

#[test]
fn tlb_sink_matches_a_dedicated_memsim_pass_field_for_field() {
    let a = golden();
    let mut sim = MemSim::new(pm());
    a.parser().parse_all(&a.words, &mut sim);

    let report = analyze_words(a.parser(), &a.words, Stack::new().with(MemSim::new(pm())));
    let r = report.ok(0).expect("tlb slot succeeded");
    let s = &sim.stats;
    for (field, want) in [
        ("user_irefs", s.user_irefs),
        ("kernel_irefs", s.kernel_irefs),
        ("user_drefs", s.user_drefs),
        ("kernel_drefs", s.kernel_drefs),
        ("imisses", s.imisses),
        ("imisses_kernel", s.imisses_kernel),
        ("dmisses", s.dmisses),
        ("dmisses_kernel", s.dmisses_kernel),
        ("uncached", s.uncached),
        ("wb_stall_cycles", s.wb_stall_cycles),
        ("utlb_misses", s.utlb_misses),
        ("synth_irefs", s.synth_irefs),
        ("idle_insts", s.idle_insts),
        ("stores", s.stores),
        ("sanity_violations", s.sanity_violations),
        ("kernel_cycles", s.kernel_cycles),
        ("user_cycles", s.user_cycles),
        ("cycles", sim.cycles),
    ] {
        assert_eq!(r.get_u64(field), Some(want), "{field}");
    }
}

/// The one failing test double: counts parsed events, a run of
/// fetches one per fetch (and raw words, when it is built to want
/// them) and, once `fail_at` events have passed, has latched a fault
/// that `finish` reports typed.
struct Fussy {
    events: u64,
    words: Option<u64>,
    fail_at: Option<u64>,
}

impl TraceSink for Fussy {
    fn irefs(&mut self, _v: u32, n: u32, _s: Space, _i: bool) {
        self.events += u64::from(n);
    }
    fn dref(&mut self, _v: u32, _st: bool, _w: systrace::isa::Width, _s: Space) {
        self.events += 1;
    }
    fn ctx_switch(&mut self, _a: u8) {
        self.events += 1;
    }
    fn mode_transition(&mut self, _g: bool) {
        self.events += 1;
    }
    fn wants(&self) -> Wants {
        match self.words {
            Some(_) => Wants::Words,
            None => Wants::Events,
        }
    }
    fn word(&mut self, _pos: u64) {
        self.words = self.words.map(|w| w + 1);
    }
}

impl AnalysisSink for Fussy {
    fn name(&self) -> String {
        "fussy".into()
    }
    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        if self.fail_at.is_some_and(|at| self.events >= at) {
            return Err(SinkError::new(self.name(), "injected"));
        }
        let mut r = SinkReport::new(self.name());
        r.push("events", self.events);
        r.push("words", self.words.unwrap_or(0));
        Ok(r)
    }
}

/// A sink that latches a fault in the middle slot, on each way a
/// stack is driven — the inline event path, and the slots spread over
/// two workers with and without a word-hook sink: the typed error
/// lands in exactly that slot under the right name, both siblings
/// equal an unfaulted pass field for field, and the failure is
/// counted once.
#[test]
fn a_latched_failure_stays_in_its_own_slot_on_every_drive_path() {
    let a = golden();
    let store = TraceStore::from_archive(&a, 4096);
    let two = FarmCfg { workers: 2 };
    let stack = |words: bool, fail_at: Option<u64>| {
        let mut stack = Stack::new()
            .with(CacheSink::new(65536, 2, pm()))
            .with(Fussy {
                events: 0,
                words: words.then_some(0),
                fail_at,
            })
            .with(DefenseSink::default());
        stack.attach_obs(TracerObs::register());
        stack
    };
    let inline = |s: Stack| analyze_words(a.parser(), &a.words, s);
    let stored = |s: Stack| analyze_store(&store, s, two).expect("store pass succeeds");
    type Run<'a> = &'a dyn Fn(Stack) -> StackReport;
    let paths: [(&str, bool, Run); 3] = [
        ("inline events", false, &inline),
        ("2 workers, events", false, &stored),
        ("2 workers, words", true, &stored),
    ];
    for (tag, words, run) in paths {
        let clean = run(stack(words, None));
        assert_eq!(clean.failed(), 0, "{tag}");
        let fussy = clean.ok(1).expect("a healthy fussy reports");
        assert_eq!(fussy.get_u64("events").map(|e| e * 3), Some(clean.applied));
        let seen_words = if words { a.words.len() as u64 } else { 0 };
        assert_eq!(fussy.get_u64("words"), Some(seen_words), "{tag}");

        let before = counter("tracer.sink_errors");
        let faulted = run(stack(words, Some(3)));
        assert_eq!(counter("tracer.sink_errors") - before, 1, "{tag}");
        assert_eq!(faulted.failed(), 1, "{tag}");
        let err = faulted.reports[1]
            .as_ref()
            .expect_err("the fault is reported");
        assert_eq!(
            (err.sink.as_str(), err.what.as_str()),
            ("fussy", "injected")
        );
        for i in [0, 2] {
            assert!(faulted.reports[i].is_ok(), "{tag}: slot {i}");
            assert_eq!(faulted.reports[i], clean.reports[i], "{tag}: slot {i}");
        }
        assert_eq!(faulted.parse, clean.parse, "{tag}");
        assert_eq!(faulted.words, clean.words, "{tag}");
        // No hook can abort: the latched sink still saw every event.
        assert_eq!(faulted.applied, clean.applied, "{tag}");
    }
}

/// The three new window analyses on the golden trace, pinned
/// byte-for-byte (the §3.2 sampled duty cycle, §6 working sets, and
/// window-to-window phase detection). `Value::F64` renders the
/// shortest round-tripping decimal, so these strings are exact.
#[test]
fn golden_window_analyses_pin_their_reports() {
    let a = golden();
    let stack =
        build_stack("sampled:256:768:1,wset:256,phase:256", &pm()).expect("the pinned spec parses");
    let report = analyze_words(a.parser(), &a.words, stack);
    assert_eq!(report.failed(), 0);
    assert_eq!(
        report.render(),
        "\
sink sampled:256:768:1
  windows = 9
  words = 8192
  sampled_words = 2048
  sampled_irefs = 8131
  sampled_drefs = 150
  coverage = 0.25
  est_irefs = 32524.0
  est_drefs = 600.0
sink wset:256
  spaces = 2
  refs = 32607
  pages = 17
  sink asid:1
    windows = 1
    pages = 3
    peak = 3
    mean = 3.0
    refs = 55
  sink kernel
    windows = 128
    pages = 14
    peak = 7
    mean = 1.421875
    refs = 32552
sink phase:256
  windows = 127
  change_points = 8
  mean_distance = 0.057357016880826416
  max_distance = 0.8888888888888888
  cp0 = 1
  cp1 = 80
  cp2 = 81
  cp3 = 83
  cp4 = 86
  cp5 = 116
  cp6 = 118
  cp7 = 119
"
    );
}
