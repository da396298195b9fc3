//! The two traced systems every workload runs on, and the set-up
//! steps the workloads share: recording a trace and building the
//! four archives.

use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::{PageMap, Policy, SpaceKey};
use systrace::store::{
    crc32_bytes, crc32_words, filter_stream, BlockFormat, Predicate, TraceStore,
};
use systrace::trace::TraceArchive;
use systrace::workloads::Workload;

use crate::gen;
use crate::run::Findings;
use crate::spans::Spans;

/// Words per archive block.
pub const BLOCK_WORDS: usize = 4096;
/// Instruction budget of a full-system run, as in the harness.
pub const SYSTEM_BUDGET: u64 = 6_000_000_000;

/// One panel entry: a workload on an operating system.
pub struct Entry {
    pub workload: Workload,
    /// The untraced configuration; `.clone().traced()` gives the
    /// traced one.
    pub base: KernelConfig,
}

/// What a run is made from: the panel and the seed.
pub struct Cx {
    pub seed: u64,
    pub panel: [Entry; 2],
}

impl Cx {
    /// `sed` on Ultrix (deterministic first-free page placement) and
    /// `yacc` on Mach (random page placement, seeded from the run
    /// seed).
    pub fn new(seed: u64) -> Cx {
        let mut mach = KernelConfig::mach();
        match &mut mach.page_policy {
            Policy::Random { seed: s, .. } => *s = gen::placement_seed(seed),
            other => panic!("the Mach configuration places pages at random, not {other:?}"),
        }
        let workload =
            |name| systrace::workloads::by_name(name).expect("a Table-1 workload of this name");
        Cx {
            seed,
            panel: [
                Entry {
                    workload: workload("sed"),
                    base: KernelConfig::ultrix(),
                },
                Entry {
                    workload: workload("yacc"),
                    base: mach,
                },
            ],
        }
    }
}

/// One recorded trace with what later steps need beside it.
pub struct Recorded {
    pub archive: TraceArchive,
    /// The system's page map with thread spaces duplicated, as the
    /// harness hands it to the simulator.
    pub pagemap: PageMap,
    pub traced_insts: u64,
    pub drains: u64,
}

/// Runs the traced system of `e` and keeps its trace.
pub fn record(e: &Entry, sp: &Spans) -> Recorded {
    let cfg = e.base.clone().traced();
    let mut sys = sp.time("kernel.build_system", || build_system(&cfg, &[&e.workload]));
    let run = sp.time("machine.run_traced", || sys.run(SYSTEM_BUDGET));
    let mut pagemap = sys.pagemap.clone();
    for (token, asid) in sys.thread_parents() {
        pagemap.duplicate_space(SpaceKey::User(asid), SpaceKey::User(token));
    }
    Recorded {
        archive: sys.archive(&run),
        pagemap,
        traced_insts: sys.machine.counters.insts(),
        drains: run.drains,
    }
}

/// The four archives, in catalog order: `(name, panel entry, format)`.
pub const ARCHIVES: [(&str, usize, BlockFormat); 4] = [
    ("sed-ultrix.v3", 0, BlockFormat::Row),
    ("sed-ultrix.v4", 0, BlockFormat::Columnar),
    ("yacc-mach.v3", 1, BlockFormat::Row),
    ("yacc-mach.v4", 1, BlockFormat::Columnar),
];

/// The products of the archive set-up: both recorded traces and the
/// four serialized archives (in memory; no file is written).
pub struct Archives {
    pub recorded: [Recorded; 2],
    pub bytes: [Vec<u8>; 4],
}

impl Archives {
    /// Records both panel entries and encodes and serializes each
    /// trace in both block formats: the store's write path.
    pub fn build(cx: &Cx, sp: &Spans) -> Archives {
        let recorded = [record(&cx.panel[0], sp), record(&cx.panel[1], sp)];
        let bytes = ARCHIVES.map(|(_, entry, format)| {
            let span = match format {
                BlockFormat::Row => "store.encode_v3",
                BlockFormat::Columnar => "store.encode_v4",
            };
            let store = sp.time(span, || {
                TraceStore::from_archive_with(&recorded[entry].archive, BLOCK_WORDS, format)
            });
            sp.time("store.serialize", || store.encode())
        });
        Archives { recorded, bytes }
    }

    /// The recorded words archive `a` holds.
    pub fn words(&self, a: usize) -> &[u32] {
        &self.recorded[ARCHIVES[a].1].archive.words
    }

    /// A digest of everything later passes read, to check that a
    /// repeated set-up made the same products.
    pub fn digest(&self) -> u64 {
        let words = self.recorded.iter().fold(0u32, |d, r| {
            d.rotate_left(7) ^ crc32_words(&r.archive.words)
        });
        let bytes = self
            .bytes
            .iter()
            .fold(0u32, |d, b| d.rotate_left(7) ^ crc32_bytes(b));
        u64::from(words) << 32 | u64::from(bytes)
    }

    /// Serialized bytes of the four archives ÷ trace words stored.
    pub fn bytes_per_word(&self) -> f64 {
        let bytes: usize = self.bytes.iter().map(Vec::len).sum();
        let words: usize = (0..4).map(|a| self.words(a).len()).sum();
        bytes as f64 / words as f64
    }
}

/// Instructions the panel's programs execute on the untraced systems:
/// the denominator of `dilation_x`.
pub fn untraced_insts(cx: &Cx) -> u64 {
    let insts = |e: &Entry| systrace::run_measured(&e.base, &e.workload).insts;
    cx.panel.iter().map(insts).sum()
}

/// The two exact end-to-end metrics, which are properties of the
/// panel: every workload reports them (the benchmark's contract wants
/// each listed metric from each workload). A workload that starts
/// from archives has `arch` from its set-up and runs the untraced
/// systems here, after its timed region.
pub fn exact_metrics(cx: &Cx, arch: &Archives, out: &mut Findings) {
    let traced: u64 = arch.recorded.iter().map(|r| r.traced_insts).sum();
    out.own(
        "dilation_x",
        traced as f64 / untraced_insts(cx) as f64,
        arch.recorded.len(),
    );
    out.own("bytes_per_word", arch.bytes_per_word(), arch.bytes.len());
}

/// One panel entry's seeded queries with the answers the benchmark
/// worked out itself, by [`filter_stream`] over the recorded words.
pub struct QuerySet {
    pub preds: Vec<Predicate>,
    pub expected: Vec<Vec<u32>>,
}

impl QuerySet {
    pub fn new(seed: u64, entry: usize, rec: &Recorded) -> QuerySet {
        let asids: Vec<u8> = rec.archive.user_tables.iter().map(|(a, _)| *a).collect();
        let preds = gen::queries(seed, entry, rec.archive.words.len() as u64, &asids);
        let expected = preds
            .iter()
            .map(|p| filter_stream(&rec.archive.words, p))
            .collect();
        QuerySet { preds, expected }
    }
}
