//! The chaos engine: run one [`FaultPlan`] against a golden trace and
//! classify what the stack did about it.
//!
//! Every plan ends in exactly one [`Outcome`]:
//!
//! * **Detected** — the stack surfaced the fault as a typed error, a
//!   parse-error tally, or a lost-chunk count. The §4.3 discipline at
//!   work: damage you can name.
//! * **Harmless** — the fault demonstrably changed nothing: results
//!   are bit-identical to the unfaulted baseline. Stalls *must* land
//!   here (they may only cost throughput).
//! * **Absorbed** — the corrupted input happens to be a well-formed
//!   trace in its own right (a flip forging a valid word, a
//!   truncation at a record boundary). Indistinguishable from a
//!   different trace, so no detector can fire — but the stack must
//!   still process it deterministically, which the engine verifies by
//!   comparing a batch parse against a chunk-fed driver parse of the
//!   same corrupted words.
//! * **Forbidden** — a panic, or a silently wrong answer (different
//!   results with no error raised, or nondeterminism). The campaign's
//!   invariant is that this set is empty.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::inject::{
    flip_byte_bits_in, flip_word_bits, flip_zonemap_bits, short_read, store_regions,
    truncate_words, v4_column_target,
};
use crate::plan::{FaultPlan, FaultSite, Layer};
use crate::SplitMix64;
use wrl_serve::{Catalog, Client, ClientCfg, ServeCfg, ServeHooks, Server, WireFate};
use wrl_store::{filter_stream, BlockFormat, Predicate, TraceStore};
use wrl_trace::{
    ChunkFate, CollectSink, DriveReport, Driver, ParseStats, SeamHooks, TraceArchive, TraceSink,
    Wants,
};
use wrl_tracer::{
    analyze_words, AnalysisSink, DefenseSink, DilationSink, SinkError, SinkReport, Stack,
};

/// How the stack handled one injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The fault was surfaced: a typed error, parse-error tallies, or
    /// a nonzero lost-chunk count.
    Detected {
        /// What fired (an error's display text or a tally name).
        what: String,
    },
    /// Results are bit-identical to the unfaulted baseline.
    Harmless,
    /// The corrupted input is itself a well-formed trace — nothing to
    /// detect — and the stack processed it deterministically.
    Absorbed,
    /// A panic, a silently wrong answer, or nondeterminism. Must
    /// never happen.
    Forbidden {
        /// What went wrong.
        why: String,
    },
}

impl Outcome {
    /// Short classification label (for tables and tallies).
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Detected { .. } => "detected",
            Outcome::Harmless => "harmless",
            Outcome::Absorbed => "absorbed",
            Outcome::Forbidden { .. } => "forbidden",
        }
    }
}

/// The golden input a campaign attacks, prepared once: the archive,
/// its unfaulted baseline results, and its block-store encoding.
pub struct ChaosInput {
    /// The pristine trace (tables + words).
    pub archive: TraceArchive,
    /// Baseline sink state from a sequential batch parse.
    pub baseline: CollectSink,
    /// Baseline statistics from the same parse.
    pub baseline_stats: ParseStats,
    /// The archive encoded as a block store (block size
    /// [`ChaosInput::BLOCK_WORDS`]), the store injectors' target and
    /// the wire sites' served catalog.
    pub store_bytes: Vec<u8>,
    /// The same archive encoded as a columnar v4 store — the target
    /// of the v4-specific injector sites (`store.column`,
    /// `store.zonemap`).
    pub store_bytes_v4: Vec<u8>,
}

impl ChaosInput {
    /// Words per store block — small enough that the golden trace
    /// spans tens of blocks, so block-granular faults have targets.
    pub const BLOCK_WORDS: usize = 256;
    /// Words per driver chunk, matching the block size so stream
    /// faults likewise have tens of chunks to pick from.
    pub const CHUNK_WORDS: usize = 256;

    /// Prepares a campaign input from a pristine archive.
    pub fn new(archive: TraceArchive) -> ChaosInput {
        let mut parser = archive.parser();
        let mut baseline = CollectSink::default();
        parser.parse_all(&archive.words, &mut baseline);
        let baseline_stats = parser.stats.clone();
        let store_bytes = TraceStore::from_archive(&archive, Self::BLOCK_WORDS).encode();
        let store_bytes_v4 =
            TraceStore::from_archive_with(&archive, Self::BLOCK_WORDS, BlockFormat::Columnar)
                .encode();
        ChaosInput {
            archive,
            baseline,
            baseline_stats,
            store_bytes,
            store_bytes_v4,
        }
    }

    /// Chunks the golden word stream spans at
    /// [`ChaosInput::CHUNK_WORDS`] words per chunk.
    pub fn n_chunks(&self) -> u64 {
        self.archive.words.len().div_ceil(Self::CHUNK_WORDS) as u64
    }

    fn sinks_equal(&self, sink: &CollectSink) -> bool {
        sink.irefs == self.baseline.irefs
            && sink.drefs == self.baseline.drefs
            && sink.switches == self.baseline.switches
    }
}

/// Batch-parses `words` with the input's tables.
fn batch(input: &ChaosInput, words: &[u32]) -> (ParseStats, CollectSink) {
    let mut parser = input.archive.parser();
    let mut sink = CollectSink::default();
    parser.parse_all(words, &mut sink);
    (parser.stats, sink)
}

/// Feeds `words` to a hooked driver in [`ChaosInput::CHUNK_WORDS`]
/// chunks, returning the report and sink.
fn stream(input: &ChaosInput, words: &[u32], hooks: SeamHooks) -> (DriveReport, CollectSink) {
    let mut driver = Driver::with_hooks(input.archive.parser(), CollectSink::default(), hooks);
    for chunk in words.chunks(ChaosInput::CHUNK_WORDS) {
        driver.feed(chunk);
    }
    driver.finish()
}

/// Classifies a corrupted word stream: errors ⇒ detected; identical
/// results ⇒ harmless; otherwise the corruption forged a well-formed
/// trace, which is absorbed only if batch and streaming parses of it
/// agree exactly (determinism is the last line of defence when no
/// detector can fire).
fn classify_words(input: &ChaosInput, words: &[u32]) -> Outcome {
    let (stats, sink) = batch(input, words);
    if stats.errors > 0 {
        return Outcome::Detected {
            what: format!("trace.parse.error tallies ({} errors)", stats.errors),
        };
    }
    if stats == input.baseline_stats && input.sinks_equal(&sink) {
        return Outcome::Harmless;
    }
    let (report, ssink) = stream(input, words, SeamHooks::default());
    if report.parse == stats
        && report.lost_chunks == 0
        && ssink.irefs == sink.irefs
        && ssink.drefs == sink.drefs
        && ssink.switches == sink.switches
    {
        Outcome::Absorbed
    } else {
        Outcome::Forbidden {
            why: "batch and chunk-fed parses of the corrupted words disagree".into(),
        }
    }
}

/// Classifies a corrupted store encoding: any typed error on decode
/// or word extraction ⇒ detected; bit-identical words ⇒ harmless; a
/// store that decodes cleanly to *different* words is a silent wrong
/// answer ⇒ forbidden (the meta CRC and per-block CRCs exist exactly
/// to make this branch unreachable).
fn classify_store(input: &ChaosInput, bytes: &[u8]) -> Outcome {
    let store = match TraceStore::decode_any(bytes) {
        Ok(s) => s,
        Err(e) => {
            return Outcome::Detected {
                what: e.to_string(),
            }
        }
    };
    match store.words() {
        Err(e) => Outcome::Detected {
            what: e.to_string(),
        },
        Ok(words) if words == input.archive.words => Outcome::Harmless,
        Ok(_) => Outcome::Forbidden {
            why: "store decoded cleanly to different words".into(),
        },
    }
}

/// [`classify_store`] plus the query read path: when the full word
/// extraction comes through clean, a panel of ASID and window
/// queries (index pruning, then run copies out of decoded blocks)
/// must each either raise a typed error or answer exactly what the
/// reference filter selects from the pristine words — never a third
/// thing.
fn classify_store_v4(input: &ChaosInput, bytes: &[u8]) -> Outcome {
    let base = classify_store(input, bytes);
    if base != Outcome::Harmless {
        return base;
    }
    let store = TraceStore::decode_any(bytes).expect("classified harmless above");
    let panel = [
        Predicate {
            asid: Some(0),
            window: None,
        },
        Predicate {
            asid: Some(1),
            window: None,
        },
        Predicate {
            asid: None,
            window: Some((64, 700)),
        },
        Predicate {
            asid: Some(0),
            window: Some((10, 2000)),
        },
    ];
    for pred in panel {
        match store.query(&pred) {
            Err(e) => {
                return Outcome::Detected {
                    what: e.to_string(),
                }
            }
            Ok(q) if q.words == filter_stream(&input.archive.words, &pred) => {}
            Ok(_) => {
                return Outcome::Forbidden {
                    why: format!("query answered wrongly without an error ({pred:?})"),
                }
            }
        }
    }
    Outcome::Harmless
}

/// Distinct random values in `0..n` ( `count` clamped to `n`).
fn pick_distinct(rng: &mut SplitMix64, n: u64, count: u64) -> HashSet<u64> {
    let mut set = HashSet::new();
    while (set.len() as u64) < count.min(n) {
        set.insert(rng.below(n));
    }
    set
}

fn run_site(input: &ChaosInput, plan: FaultPlan) -> Outcome {
    let mut rng = SplitMix64::new(plan.seed);
    let intensity = plan.intensity.max(1);
    match plan.site {
        FaultSite::ParserBitFlip => {
            let mut words = input.archive.words.clone();
            flip_word_bits(&mut words, &mut rng, intensity);
            classify_words(input, &words)
        }
        FaultSite::ParserTruncate => {
            let mut words = input.archive.words.clone();
            truncate_words(&mut words, &mut rng);
            classify_words(input, &words)
        }
        FaultSite::StoreBlock
        | FaultSite::StoreIndex
        | FaultSite::StoreHeader
        | FaultSite::StoreTrailer => {
            let mut bytes = input.store_bytes.clone();
            let r = store_regions(&bytes).expect("golden store is well-formed");
            let region = match plan.site {
                FaultSite::StoreBlock => r.blocks,
                FaultSite::StoreIndex => r.index,
                FaultSite::StoreHeader => r.header,
                _ => r.trailer,
            };
            flip_byte_bits_in(&mut bytes, region, &mut rng, intensity);
            classify_store(input, &bytes)
        }
        FaultSite::StoreShortRead => {
            let mut bytes = input.store_bytes.clone();
            short_read(&mut bytes, &mut rng);
            classify_store(input, &bytes)
        }
        FaultSite::StoreColumn => {
            let mut bytes = input.store_bytes_v4.clone();
            let target =
                v4_column_target(&bytes, &mut rng).expect("golden v4 store has column targets");
            flip_byte_bits_in(&mut bytes, target, &mut rng, intensity);
            classify_store_v4(input, &bytes)
        }
        FaultSite::StoreZonemap => {
            let mut bytes = input.store_bytes_v4.clone();
            assert!(
                flip_zonemap_bits(&mut bytes, &mut rng, intensity),
                "golden v4 store has zonemaps"
            );
            classify_store_v4(input, &bytes)
        }
        FaultSite::StreamStall => {
            // Stall every k-th chunk at the source seam; by contract
            // this may only cost throughput.
            let every = 1 + u64::from(intensity);
            let hooks = SeamHooks::new(move |seq| {
                if seq % every == 0 {
                    ChunkFate::Stall(Duration::from_micros(200))
                } else {
                    ChunkFate::Deliver
                }
            });
            let (report, sink) = stream(input, &input.archive.words, hooks);
            if report.lost_chunks == 0
                && report.parse == input.baseline_stats
                && input.sinks_equal(&sink)
            {
                Outcome::Harmless
            } else {
                Outcome::Forbidden {
                    why: "stalls changed results".into(),
                }
            }
        }
        FaultSite::StreamDrop => {
            // Drop chunks at the source seam; every drop must be
            // counted in `lost_chunks`, never silently shorten the
            // stream.
            let dropped = pick_distinct(&mut rng, input.n_chunks(), u64::from(intensity));
            let n_dropped = dropped.len() as u64;
            let hooks = SeamHooks::new(move |seq| {
                if dropped.contains(&seq) {
                    ChunkFate::Drop
                } else {
                    ChunkFate::Deliver
                }
            });
            let (report, _) = stream(input, &input.archive.words, hooks);
            if report.lost_chunks == n_dropped {
                Outcome::Detected {
                    what: format!("stream.chunks.lost = {n_dropped}"),
                }
            } else {
                Outcome::Forbidden {
                    why: format!(
                        "dropped {n_dropped} chunks but lost_chunks = {}",
                        report.lost_chunks
                    ),
                }
            }
        }
        FaultSite::WireCorrupt
        | FaultSite::WireDrop
        | FaultSite::WirePartial
        | FaultSite::WireStall => run_wire(input, plan, &mut rng),
        FaultSite::TracerSink => run_tracer_sink(input, intensity, &mut rng),
    }
}

/// A sink that faults at a seeded ordinal of one seeded callback and
/// reports the typed [`SinkError`] from `finish` — the `tracer.sink`
/// injector. `seen` reaching `at` is the latch.
struct FailingSink {
    /// Which callback fails: 0 `irefs`, 1 `dref`, 2 `ctx_switch`,
    /// 3 `word`.
    hook: u8,
    /// Fail on the `at`-th reference or invocation of that callback
    /// (1-based; a run of fetches is one reference per fetch).
    at: u64,
    seen: u64,
}

impl FailingSink {
    fn tick(&mut self, hook: u8, n: u32) {
        if hook == self.hook {
            self.seen += u64::from(n);
        }
    }
}

impl TraceSink for FailingSink {
    fn irefs(&mut self, _v: u32, n: u32, _s: wrl_trace::Space, _i: bool) {
        self.tick(0, n);
    }
    fn dref(&mut self, _v: u32, _st: bool, _w: wrl_isa::Width, _s: wrl_trace::Space) {
        self.tick(1, 1);
    }
    fn ctx_switch(&mut self, _a: u8) {
        self.tick(2, 1);
    }
    fn wants(&self) -> Wants {
        if self.hook == 3 {
            Wants::Words
        } else {
            Wants::Events
        }
    }
    fn word(&mut self, _pos: u64) {
        self.tick(3, 1);
    }
}

impl AnalysisSink for FailingSink {
    fn name(&self) -> String {
        "chaos.fail".into()
    }
    fn finish(&mut self) -> Result<SinkReport, SinkError> {
        if self.seen >= self.at {
            return Err(SinkError::new(self.name(), "injected sink fault"));
        }
        Ok(SinkReport::new(self.name()))
    }
}

/// `tracer.sink`: one analysis sink faults mid-pass inside a composed
/// stack. The stack's isolation contract: the error surfaces *typed*
/// in exactly that sink's entry (detected), the pass never panics, and the
/// sibling sinks' reports stay bit-identical to an unfaulted pass of
/// the same stream. A seeded ordinal past the stream's events fires
/// nothing — then the faulty sink must be indistinguishable from a
/// healthy one (harmless).
fn run_tracer_sink(input: &ChaosInput, intensity: u32, rng: &mut SplitMix64) -> Outcome {
    let hook = rng.below(4) as u8;
    let at = 1 + rng.below(512 * u64::from(intensity));
    let baseline = analyze_words(
        input.archive.parser(),
        &input.archive.words,
        Stack::new()
            .with(DilationSink::default())
            .with(DefenseSink::default()),
    );
    let faulted = analyze_words(
        input.archive.parser(),
        &input.archive.words,
        Stack::new()
            .with(DilationSink::default())
            .with(FailingSink { hook, at, seen: 0 })
            .with(DefenseSink::default()),
    );
    let siblings_exact = faulted.ok(0) == baseline.ok(0)
        && faulted.ok(2) == baseline.ok(1)
        && faulted.parse == baseline.parse
        && faulted.words == baseline.words;
    if !siblings_exact {
        return Outcome::Forbidden {
            why: format!("a failing sink perturbed its siblings (hook {hook}, at {at})"),
        };
    }
    match &faulted.reports[1] {
        Err(e) if e.sink == "chaos.fail" => Outcome::Detected {
            what: format!("typed sink error: {e}"),
        },
        Err(e) => Outcome::Forbidden {
            why: format!("sink error misattributed to {}", e.sink),
        },
        // The seeded ordinal lay beyond the stream: nothing fired,
        // and the pass proved unperturbed above.
        Ok(_) => Outcome::Harmless,
    }
}

/// Runs one wire-layer plan: serve the golden store on a loopback
/// socket with a fault seam that shapes exactly the first response
/// frame, query it, then prove the server survived by running a clean
/// query on a fresh connection and comparing it word-for-word against
/// the archive.
///
/// Corrupting fates (`wire.corrupt`, `wire.drop`) must surface as a
/// typed client error: the frame CRC covers the whole body and the
/// length prefix is range-checked, so *any* single-bit flip and *any*
/// truncation point must land detected — an `Ok` answer from the
/// damaged exchange means the wire let corruption through silently,
/// which is forbidden. Merely-slow fates (`wire.partial` short-write
/// storms, `wire.stall` mid-frame pauses) are harmless by contract:
/// the shaped exchange must *succeed bit-identically* — an error (or
/// a wrong answer) from a fault that only delays bytes is forbidden.
fn run_wire(input: &ChaosInput, plan: FaultPlan, rng: &mut SplitMix64) -> Outcome {
    let store = TraceStore::decode_any(&input.store_bytes).expect("golden store decodes");
    let fate = match plan.site {
        FaultSite::WireCorrupt => WireFate::FlipBit {
            at: rng.next_u64(),
            bit: rng.below(8) as u8,
        },
        FaultSite::WirePartial => WireFate::Trickle {
            // 64..256 bytes per writability event: a genuine storm on
            // a 32 KB query response, still bounded well under a
            // second of event-loop passes.
            chunk: 64 + rng.below(192) as usize,
        },
        FaultSite::WireStall => WireFate::StallMid {
            at: rng.next_u64(),
            // 1..=8 reactor ticks ≈ ≤ 40 ms at the 5 ms tick below —
            // far inside the client's 60-tick (300 ms) stall budget.
            ticks: 1 + rng.below(8) as u32,
        },
        _ => WireFate::CutAfter { at: rng.next_u64() },
    };
    let benign = matches!(plan.site, FaultSite::WirePartial | FaultSite::WireStall);
    // Damage only the first response; the recovery probe below rides
    // the same server and must come through clean.
    let hooks = ServeHooks::on_response(move |seq| match seq {
        0 => fate,
        _ => WireFate::Deliver,
    });
    let mut catalog = Catalog::new();
    catalog.add("golden", Arc::new(store));
    // Short ticks keep the worst case (a flipped length prefix makes
    // the client wait for bytes that never come) bounded well under a
    // second per plan.
    let cfg = ServeCfg {
        read_timeout: Duration::from_millis(5),
        max_stalls: 60,
        ..ServeCfg::default()
    };
    let ccfg = ClientCfg {
        read_timeout: Duration::from_millis(5),
        max_stalls: 60,
        ..ClientCfg::default()
    };
    let server = match Server::start_with_hooks("127.0.0.1:0", catalog, cfg, hooks) {
        Ok(s) => s,
        Err(e) => {
            return Outcome::Forbidden {
                why: format!("loopback server failed to start: {e}"),
            }
        }
    };
    let everything = Predicate::default();
    let damaged = Client::connect_cfg(server.addr(), ccfg)
        .map_err(wrl_serve::ServeError::Io)
        .and_then(|mut c| c.query("golden", &everything));
    // Whatever the shaped exchange did, the server must still answer
    // a fresh connection perfectly.
    let probe = |on_ok: Outcome| {
        let clean = Client::connect_cfg(server.addr(), ccfg)
            .map_err(wrl_serve::ServeError::Io)
            .and_then(|mut c| c.query("golden", &everything));
        match clean {
            Ok(q) if q.words == input.archive.words => on_ok,
            Ok(_) => Outcome::Forbidden {
                why: "server answered the recovery probe wrongly".into(),
            },
            Err(e2) => Outcome::Forbidden {
                why: format!("server did not recover after the fault: {e2}"),
            },
        }
    };
    let outcome = match (benign, damaged) {
        (false, Ok(_)) => Outcome::Forbidden {
            why: "damaged response decoded cleanly (CRC failed to fire)".into(),
        },
        (false, Err(e)) => probe(Outcome::Detected {
            what: format!("client error: {e}"),
        }),
        (true, Ok(q)) if q.words == input.archive.words => probe(Outcome::Harmless),
        (true, Ok(_)) => Outcome::Forbidden {
            why: "shaped response arrived with wrong words".into(),
        },
        (true, Err(e)) => Outcome::Forbidden {
            why: format!("a merely-slow wire fault surfaced as an error: {e}"),
        },
    };
    server.shutdown();
    outcome
}

/// Runs one plan against the input, converting any panic on the
/// injection path into [`Outcome::Forbidden`] (worker-thread panics
/// propagate through the joins inside, so they are caught here too).
pub fn run_plan(input: &ChaosInput, plan: FaultPlan) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| run_site(input, plan))) {
        Ok(outcome) => outcome,
        Err(e) => {
            let why = e
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".into());
            Outcome::Forbidden {
                why: format!("panic: {why}"),
            }
        }
    }
}

/// One finished campaign: every plan with its outcome, in order.
pub struct CampaignReport {
    /// Plans and their outcomes.
    pub results: Vec<(FaultPlan, Outcome)>,
}

impl CampaignReport {
    /// Totals as (detected, harmless, absorbed, forbidden).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for (_, o) in &self.results {
            match o {
                Outcome::Detected { .. } => t.0 += 1,
                Outcome::Harmless => t.1 += 1,
                Outcome::Absorbed => t.2 += 1,
                Outcome::Forbidden { .. } => t.3 += 1,
            }
        }
        t
    }

    /// The forbidden outcomes (plan + reason) — must be empty.
    pub fn forbidden(&self) -> Vec<(FaultPlan, String)> {
        self.results
            .iter()
            .filter_map(|(p, o)| match o {
                Outcome::Forbidden { why } => Some((*p, why.clone())),
                _ => None,
            })
            .collect()
    }

    /// Layers with at least one *detected* fault.
    pub fn detected_layers(&self) -> HashSet<Layer> {
        self.results
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Detected { .. }))
            .map(|(p, _)| p.site.layer())
            .collect()
    }

    /// A per-site outcome table (markdown), for logs and artifacts.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| site | plans | detected | harmless | absorbed | forbidden |\n\
             |---|---|---|---|---|---|\n",
        );
        for site in crate::plan::ALL_SITES {
            let mut row = [0u64; 4];
            let mut n = 0u64;
            for (_, o) in self.results.iter().filter(|(p, _)| p.site == site) {
                n += 1;
                match o {
                    Outcome::Detected { .. } => row[0] += 1,
                    Outcome::Harmless => row[1] += 1,
                    Outcome::Absorbed => row[2] += 1,
                    Outcome::Forbidden { .. } => row[3] += 1,
                }
            }
            out.push_str(&format!(
                "| {site} | {n} | {} | {} | {} | {} |\n",
                row[0], row[1], row[2], row[3]
            ));
        }
        let (d, h, a, f) = self.totals();
        out.push_str(&format!(
            "| **total** | {} | {d} | {h} | {a} | {f} |\n",
            self.results.len()
        ));
        out
    }
}

/// Runs every plan, tallying outcomes into the `fault.*` metric
/// family as it goes.
pub fn run_campaign(input: &ChaosInput, plans: &[FaultPlan]) -> CampaignReport {
    let obs = crate::obs::FaultObs::register();
    let results = plans
        .iter()
        .map(|&plan| {
            let outcome = run_plan(input, plan);
            obs.tally(&outcome);
            (plan, outcome)
        })
        .collect();
    CampaignReport { results }
}
