//! `archive_analyze`: the offline analysis path the paper's studies
//! use. A pass runs a four-sink stack over the `sed` v3 archive
//! sequentially and over the `yacc` v4 archive on the two-worker farm.
//! The parser and the sinks do most of the work and store decode
//! little, and the store is read another way than in `archive_scan`:
//! streamed into a parser, through the farm.

use systrace::store::{FarmCfg, TraceStore};
use systrace::trace::EventVec;
use systrace::tracer::{analyze_store, analyze_words, build_stack, Stack, StackReport};

use super::archive_scan::{decode_rate, decode_span, scan_equals, write_path_layers};
use crate::panel::{exact_metrics, Archives, Cx, ARCHIVES};
use crate::run::{Findings, Tally, Workload};
use crate::spans::Spans;

/// The composed analyses: a direct-mapped 64 KB cache study, the full
/// memory-system and TLB simulation, working-set curves and the phase
/// detector. All four take parsed events, so the farm can spread them.
const STACK: &str = "cache:64k:1,tlb,wset:4096,phase:4096";

/// The two analysed archives: `(archive, farm workers, span)`.
const JOBS: [(usize, usize, &str); 2] =
    [(0, 1, "tracer.analyze_seq"), (3, 2, "tracer.analyze_farm")];

pub struct Products {
    arch: Archives,
    /// The opened stores of [`JOBS`].
    stores: [TraceStore; 2],
}

pub struct ArchiveAnalyze<'a> {
    cx: &'a Cx,
    p: Products,
    /// `analyze_words` over the recorded words: what both schedules
    /// must reproduce.
    reference: [StackReport; 2],
    slots_failed: u64,
}

fn farm(workers: usize) -> FarmCfg {
    FarmCfg {
        workers,
        ..FarmCfg::default()
    }
}

fn same(a: &StackReport, b: &StackReport) -> bool {
    a.failed() == 0 && a.reports == b.reports && a.parse == b.parse && a.words == b.words
}

/// A fresh sink stack for `job`, over its entry's page map.
fn stack(arch: &Archives, job: usize) -> Stack {
    let entry = ARCHIVES[JOBS[job].0].1;
    build_stack(STACK, &arch.recorded[entry].pagemap).expect("STACK is a valid spec")
}

impl ArchiveAnalyze<'_> {
    fn analysed_words(&self) -> u64 {
        JOBS.iter()
            .map(|(a, ..)| self.p.arch.words(*a).len() as u64)
            .sum()
    }
}

impl<'a> Workload<'a> for ArchiveAnalyze<'a> {
    const NAME: &'static str = "archive_analyze";
    fn threads() -> String {
        "2 farm workers on the yacc-mach.v4 half of a pass".into()
    }
    type Products = Products;

    fn set_up(cx: &'a Cx, sp: &Spans) -> Products {
        let arch = Archives::build(cx, sp);
        let stores = JOBS.map(|(a, ..)| {
            sp.time("store.open", || TraceStore::decode_any(&arch.bytes[a]))
                .expect("a freshly serialized archive opens")
        });
        Products { arch, stores }
    }

    fn digest(p: &Products) -> u64 {
        p.arch.digest()
    }

    fn new(cx: &'a Cx, p: Products) -> Self {
        let reference = [0, 1].map(|job| {
            let rec = &p.arch.recorded[ARCHIVES[JOBS[job].0].1];
            analyze_words(
                rec.archive.parser(),
                &rec.archive.words,
                stack(&p.arch, job),
            )
        });
        ArchiveAnalyze {
            cx,
            p,
            reference,
            slots_failed: 0,
        }
    }

    fn words_per_pass(&self) -> u64 {
        self.analysed_words()
    }

    fn pass(&mut self, sp: &Spans, _timed: bool) -> Tally {
        let mut tally = Tally::default();
        for (job, (_, workers, span)) in JOBS.iter().enumerate() {
            let got = sp.time(span, || {
                analyze_store(
                    &self.p.stores[job],
                    stack(&self.p.arch, job),
                    farm(*workers),
                )
            });
            tally.op(sp.time("bench.check", || match &got {
                Ok(report) => {
                    self.slots_failed += report.failed() as u64;
                    same(report, &self.reference[job])
                }
                Err(_) => false,
            }));
        }
        tally
    }

    /// Splits decode and parse out of the analysis spans: the same
    /// stores through an empty stack (the driver then decodes every
    /// block and parses nothing), a bare block-reader scan, and a bare
    /// parse of the same words.
    fn probes(&mut self, sp: &Spans) -> Tally {
        let mut tally = Tally::default();
        for (job, (a, ..)) in JOBS.iter().enumerate() {
            let store = &self.p.stores[job];
            let words = self.p.arch.words(*a);
            let empty = sp.time("tracer.empty_stack", || {
                analyze_store(store, Stack::new(), farm(1))
            });
            tally.op(empty.is_ok_and(|r| r.words == words.len() as u64));
            tally.op(scan_equals(store, words, sp));
            let mut parser = store.parser();
            let mut events = EventVec::default();
            sp.time("trace.parse", || parser.parse_all(words, &mut events));
            tally.op(parser.stats == self.reference[job].parse);
        }
        tally
    }

    fn finish(self, out: &mut Findings) {
        exact_metrics(self.cx, &self.p.arch, out);
        write_path_layers(&self.p.arch, out);
        for (a, _, span) in JOBS {
            let mwords = self.p.arch.words(a).len() as f64 / 1e6;
            let format = ARCHIVES[a].2;
            out.rate(&format!("{span}.mwords_per_s"), span, mwords);
            out.rate(decode_rate(format), decode_span(format), mwords);
        }
        let mwords = self.analysed_words() as f64 / 1e6;
        out.rate(
            "tracer.empty_stack.mwords_per_s",
            "tracer.empty_stack",
            mwords,
        );
        out.rate("trace.parse.mwords_per_s", "trace.parse", mwords);
        out.layer(
            "trace.parse.errors",
            self.reference.iter().map(|r| r.parse.errors as f64).sum(),
        );
        // What the sinks cost beyond decoding and parsing for them.
        out.layer(
            "tracer.sinks.self_s",
            out.busy_s("tracer.analyze_seq") + out.busy_s("tracer.analyze_farm")
                - out.busy_s("tracer.empty_stack")
                - out.busy_s("trace.parse"),
        );
        out.layer("tracer.slots_failed", self.slots_failed as f64);
    }
}
