//! What a sink reports must not depend on how the parser groups the
//! instruction fetches it hands over.
//!
//! * Every sink `build_stack` knows renders a pinned report over the
//!   golden trace and over a hand-built trace whose blocks sit where
//!   grouping could drift: across a page, across the top of the
//!   address space, over three pages, in kseg0/kseg1/kseg2, at an
//!   unaligned address, behind idle flags, in the wrong space, and
//!   cut by memory words and by a kernel entry.
//! * [`Singles`] hands every run over one fetch at a time: each sink
//!   fed runs reports exactly what it reports fed single fetches, over
//!   that trace, the golden trace and recorded sed-Ultrix and
//!   yacc-Mach runs. The reference shares no run code with the sinks
//!   it checks, so it stays independent of them.

use std::sync::Arc;

use systrace::isa::Width;
use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::{PageMap, Policy};
use systrace::trace::{
    ctl, BbInfo, BbTable, BbTraceFlags, CtlOp, Driver, MemOp, Space, TraceArchive, TraceParser,
    TraceSink, Wants,
};
use systrace::tracer::{analyze_words, build_stack, StackReport};

mod common;
use common::golden;

/// Every sink of the spec grammar: two cache geometries, the memory
/// system, the page study, the defensive checks, the three word or
/// window sinks with windows small enough to roll inside one block.
const EVERY_SINK: &str =
    "cache:16k:4,cache:64k:1,tlb,pagemap,defense,dilation,sampled:256:768:1,wset:7,phase:7";

fn pm() -> PageMap {
    PageMap::new(Policy::FirstFree { base_pfn: 0x2000 })
}

fn op(index: u16, store: bool) -> MemOp {
    MemOp {
        index,
        store,
        width: Width::Word,
    }
}

fn block(orig_vaddr: u32, n_insts: u16, ops: Vec<MemOp>) -> BbInfo {
    BbInfo {
        orig_vaddr,
        n_insts,
        ops,
        flags: BbTraceFlags::default(),
    }
}

// Kernel block ids.
const K_IDLE: u32 = 0x8010_0000;
const K_STOP: u32 = 0x8010_0010;
const K_USER_ADDR: u32 = 0x8010_0020;
const K_KSEG2: u32 = 0x8010_0030;
const K_KSEG1: u32 = 0x8010_0040;
// User block ids.
const U_STRADDLE: u32 = 0x0060_0000;
const U_WRAP: u32 = 0x0060_0010;
const U_LONG: u32 = 0x0060_0020;
const U_MID: u32 = 0x0060_0030;
const U_UNALIGNED: u32 = 0x0060_0040;

fn kernel_table() -> Arc<BbTable> {
    let mut t = BbTable::new();
    // kseg0, across a page, starts the idle counter.
    let mut idle = block(0x8000_1ff8, 5, vec![]);
    idle.flags.idle_start = true;
    t.insert(K_IDLE, idle);
    let mut stop = block(0x8000_3000, 3, vec![op(1, false)]);
    stop.flags.idle_stop = true;
    t.insert(K_STOP, stop);
    // Kernel code at a user address: a sanity violation, across a page.
    t.insert(K_USER_ADDR, block(0x0050_0ffc, 4, vec![]));
    // Mapped kernel text across a page, a store mid-block.
    t.insert(K_KSEG2, block(0xc000_0ff0, 9, vec![op(6, true)]));
    // Uncached kernel text across a page.
    t.insert(K_KSEG1, block(0xa000_0ff4, 6, vec![]));
    Arc::new(t)
}

fn user_table() -> Arc<BbTable> {
    let mut t = BbTable::new();
    t.insert(U_STRADDLE, block(0x0040_0ff8, 6, vec![op(3, false)]));
    // Wraps at 2^32: two fetches at the top, two at address 0.
    t.insert(U_WRAP, block(0xffff_fff8, 4, vec![]));
    // 1100 instructions over three pages, memory words at 10 and 700.
    t.insert(
        U_LONG,
        block(0x0041_0f00, 1100, vec![op(10, false), op(700, true)]),
    );
    t.insert(
        U_MID,
        block(0x0042_0000, 8, vec![op(1, false), op(5, true)]),
    );
    // Not word-aligned: the first fetch sits two bytes below a page
    // end, so the second starts the next page mid-line.
    t.insert(U_UNALIGNED, block(0x0043_0ffe, 3, vec![]));
    Arc::new(t)
}

fn hand_built_parser() -> TraceParser {
    TraceParser::with_tables(kernel_table(), [(1, user_table()), (2, user_table())])
}

/// 64 rounds over both user spaces; each round enters the kernel
/// twice, once in the middle of the long block. The trace ends inside
/// the long block, one memory word short, so the end-of-stream flush
/// emits its tail.
fn hand_built_words() -> Vec<u32> {
    let mut w = Vec::new();
    for r in 0..64u32 {
        w.push(ctl(CtlOp::CtxSwitch, 1 + (r % 2) as u8));
        w.extend([U_STRADDLE, 0x1000_0000 + r * 64]);
        w.extend([U_MID, 0x1000_0100 + r * 8, 0x1000_0200 + r * 4]);
        w.push(ctl(CtlOp::KEnter, 0));
        w.extend([K_IDLE, K_STOP, 0x8003_0000 + r * 4]);
        w.extend([K_USER_ADDR, K_KSEG2, 0xc000_2000 + r * 4, K_KSEG1]);
        w.push(ctl(CtlOp::KExit, 0));
        w.push(U_WRAP);
        w.extend([U_LONG, 0x1001_0000 + r * 4]);
        w.extend([ctl(CtlOp::KEnter, 0), K_IDLE, K_STOP, 0x8003_1000]);
        w.push(ctl(CtlOp::KExit, 0));
        w.extend([0x1002_0000 + r * 4, U_UNALIGNED]);
        if r % 16 == 15 {
            w.extend([ctl(CtlOp::TraceOff, 0), ctl(CtlOp::TraceOn, 0)]);
        }
    }
    w.extend([U_LONG, 0x1001_0000]);
    w
}

fn every_sink_over(parser: TraceParser, words: &[u32]) -> StackReport {
    let stack = build_stack(EVERY_SINK, &pm()).expect("the spec parses");
    let report = analyze_words(parser, words, stack);
    assert_eq!(report.failed(), 0);
    report
}

#[test]
fn every_sink_pins_its_report_on_golden() {
    let a = golden();
    let report = every_sink_over(a.parser(), &a.words);
    assert_eq!(report.render(), GOLDEN_REPORTS);
}

#[test]
fn every_sink_pins_its_report_on_a_hand_built_trace() {
    let words = hand_built_words();
    let report = every_sink_over(hand_built_parser(), &words);
    assert_eq!(report.parse.errors, 1, "the last long block is cut short");
    assert_eq!(report.render(), HAND_BUILT_REPORTS);
}

/// Forwards every hook to the wrapped sink, but a run of `n` fetches
/// as `n` runs of one.
struct Singles<S>(S);

impl<S: TraceSink> TraceSink for Singles<S> {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool) {
        for i in 0..n {
            self.0.irefs(vaddr + 4 * i, 1, space, idle);
        }
    }
    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.0.dref(vaddr, store, width, space);
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.0.ctx_switch(asid);
    }
    fn mode_transition(&mut self, generating: bool) {
        self.0.mode_transition(generating);
    }
    fn wants(&self) -> Wants {
        self.0.wants()
    }
    fn word(&mut self, pos: u64) {
        self.0.word(pos);
    }
}

/// Every sink over `words` fed runs, then fed single fetches: the two
/// passes must agree on every report, the parse and the applications
/// routed (references × sinks).
fn runs_match_singles(tag: &str, parser: impl Fn() -> TraceParser, words: &[u32]) {
    let runs = every_sink_over(parser(), words);
    let stack = build_stack(EVERY_SINK, &pm()).expect("the spec parses");
    let mut driver = Driver::new(parser(), Singles(stack));
    driver.feed(words);
    let (drive, Singles(stack)) = driver.finish();
    let singles = stack.finish(drive.parse, drive.words);
    for (i, (r, s)) in runs.reports.iter().zip(&singles.reports).enumerate() {
        assert_eq!(r, s, "{tag}: slot {i}");
    }
    assert_eq!(runs.parse, singles.parse, "{tag}");
    assert_eq!(
        (runs.words, runs.applied),
        (singles.words, singles.applied),
        "{tag}"
    );
}

fn recorded(workload: &str, cfg: KernelConfig) -> TraceArchive {
    let w = systrace::workloads::by_name(workload).expect("a known workload");
    let mut sys = build_system(&cfg.traced(), &[&w]);
    let run = sys.run(8_000_000_000);
    sys.archive(&run)
}

#[test]
fn runs_report_what_single_fetches_do() {
    runs_match_singles("hand-built", hand_built_parser, &hand_built_words());
    let a = golden();
    runs_match_singles("golden", || a.parser(), &a.words);
    for (workload, cfg) in [
        ("sed", KernelConfig::ultrix()),
        ("yacc", KernelConfig::mach()),
    ] {
        let a = recorded(workload, cfg);
        runs_match_singles(workload, || a.parser(), &a.words);
    }
}

const GOLDEN_REPORTS: &str = "\
sink cache:16384:4
  icache_accesses = 31961
  icache_misses = 146
  icache_miss_ratio = 0.004568067332060949
  dcache_accesses = 646
  dcache_misses = 162
  dcache_miss_ratio = 0.25077399380804954
sink cache:65536:1
  icache_accesses = 31961
  icache_misses = 146
  icache_miss_ratio = 0.004568067332060949
  dcache_accesses = 646
  dcache_misses = 165
  dcache_miss_ratio = 0.25541795665634676
sink tlb
  user_irefs = 44
  kernel_irefs = 31953
  user_drefs = 11
  kernel_drefs = 639
  imisses = 156
  imisses_kernel = 140
  dmisses = 287
  dmisses_kernel = 287
  uncached = 4
  wb_stall_cycles = 0
  utlb_misses = 4
  synth_irefs = 36
  idle_insts = 8149
  stores = 278
  sanity_violations = 0
  kernel_cycles = 38438
  user_cycles = 284
  cycles = 38722
sink pagemap
  spaces = 1
  pages_mapped = 4
  mapped_refs = 291
  sink asid:1
    pages = 4
    refs = 291
sink defense
  irefs = 31961
  drefs = 646
  sanity_violations = 0
  user_kernel_drefs = 0
  misaligned = 0
  mode_transitions = 1
sink dilation
  words = 8192
  insts = 31961
  drefs = 646
  ctx_switches = 6
  mode_transitions = 1
  words_per_inst = 0.2563123807139952
  refs_per_inst = 1.0202121335377492
sink sampled:256:768:1
  windows = 9
  words = 8192
  sampled_words = 2048
  sampled_irefs = 8131
  sampled_drefs = 150
  coverage = 0.25
  est_irefs = 32524.0
  est_drefs = 600.0
sink wset:7
  spaces = 2
  refs = 32607
  pages = 17
  sink asid:1
    windows = 8
    pages = 3
    peak = 2
    mean = 1.625
    refs = 55
  sink kernel
    windows = 4651
    pages = 14
    peak = 4
    mean = 1.1328746506127714
    refs = 32552
sink phase:7
  windows = 4658
  change_points = 135
  mean_distance = 0.05269844678262132
  max_distance = 1.0
  cp0 = 5
  cp1 = 8
  cp2 = 2935
  cp3 = 2944
  cp4 = 2952
  cp5 = 2961
  cp6 = 2962
  cp7 = 2963
";

const HAND_BUILT_REPORTS: &str = "\
sink cache:16384:4
  icache_accesses = 75084
  icache_misses = 2266
  icache_miss_ratio = 0.030179532257205263
  dcache_accesses = 513
  dcache_misses = 290
  dcache_miss_ratio = 0.5653021442495126
sink cache:65536:1
  icache_accesses = 75084
  icache_misses = 18500
  icache_miss_ratio = 0.24639070907250546
  dcache_accesses = 513
  dcache_misses = 348
  dcache_miss_ratio = 0.6783625730994152
sink tlb
  user_irefs = 72844
  kernel_irefs = 2591
  user_drefs = 321
  kernel_drefs = 231
  imisses = 18336
  imisses_kernel = 224
  dmisses = 283
  dmisses_kernel = 94
  uncached = 384
  wb_stall_cycles = 0
  utlb_misses = 39
  synth_irefs = 351
  idle_insts = 640
  stores = 192
  sanity_violations = 384
  kernel_cycles = 15041
  user_cycles = 347359
  cycles = 362400
sink pagemap
  spaces = 3
  pages_mapped = 32
  mapped_refs = 74061
  sink kernel
    pages = 4
    refs = 768
  sink asid:1
    pages = 14
    refs = 36096
  sink asid:2
    pages = 14
    refs = 37197
sink defense
  irefs = 75084
  drefs = 513
  sanity_violations = 384
  user_kernel_drefs = 0
  misaligned = 0
  mode_transitions = 8
sink dilation
  words = 1610
  insts = 75084
  drefs = 513
  ctx_switches = 64
  mode_transitions = 8
  words_per_inst = 0.021442650897661286
  refs_per_inst = 1.006832347770497
sink sampled:256:768:1
  windows = 2
  words = 1610
  sampled_words = 319
  sampled_irefs = 13920
  sampled_drefs = 104
  coverage = 0.19813664596273292
  est_irefs = 55680.0
  est_drefs = 416.0
sink wset:7
  spaces = 3
  refs = 75597
  pages = 38
  sink asid:1
    windows = 5148
    pages = 13
    peak = 5
    mean = 1.0804195804195804
    refs = 36032
  sink asid:2
    windows = 5305
    pages = 13
    peak = 5
    mean = 1.0786050895381716
    refs = 37133
  sink kernel
    windows = 348
    pages = 12
    peak = 5
    mean = 3.4195402298850577
    refs = 2432
sink phase:7
  windows = 10799
  change_points = 778
  mean_distance = 0.07728602739484379
  max_distance = 1.0
  cp0 = 1
  cp1 = 2
  cp2 = 3
  cp3 = 4
  cp4 = 5
  cp5 = 6
  cp6 = 7
  cp7 = 8
";
