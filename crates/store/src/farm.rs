//! The replay farm: fan one stored trace across many analysis sinks
//! at once.
//!
//! The paper's methodology is *on-the-fly* analysis (§3.4) because
//! traces are too big to keep — but a cache study still wants to run
//! the same reference stream through fifteen cache geometries. The
//! compressed store makes the trace cheap to keep; the farm makes
//! re-running it cheap: one [`TraceStore`] is replayed into N sinks
//! with the sinks spread over worker threads, and the result is
//! guaranteed bit-identical to feeding each sink from a sequential
//! [`wrl_trace::TraceParser::parse_all`] pass.
//!
//! [`drive`] is the store's source for the one [`Driver`]: it pumps
//! the block reader into `feed`. [`replay`] is `drive` into a
//! broadcast sink: the words are decoded and parsed *once*, batches
//! of parsed [`RefEvent`]s go to every worker over bounded channels,
//! and each worker owns a round-robin share of the sinks and applies
//! every batch to each of them. Amortising the decode and the parse —
//! the expensive, table-driven part — across all N sinks is the win,
//! even on a single CPU.
//!
//! Ordering argument: the driver produces batches in stream order and
//! each per-worker channel is FIFO; a worker applies batches in
//! arrival order, one whole batch per sink at a time. No event is
//! reordered, dropped or duplicated, so any deterministic
//! [`TraceSink`] finishes in the state a sequential parse leaves it
//! in. A worker that applied fewer batches than were broadcast is a
//! typed [`StoreError::FarmDesync`], never silently different state.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread;

use wrl_isa::Width;
use wrl_trace::{DriveReport, Driver, RefEvent, Seam, SeamHooks, Space, TraceSink};

use crate::container::{BlockCache, Predicate, QueryResult, StoreError, TraceStore};

/// Bound of each worker's channel, in batches.
const DEPTH: usize = 4;

/// Farm shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct FarmCfg {
    /// Worker threads. Sinks are dealt round-robin across workers;
    /// extra workers beyond the sink count are not spawned.
    pub workers: usize,
    /// Events per broadcast batch.
    pub batch_events: usize,
}

impl Default for FarmCfg {
    fn default() -> FarmCfg {
        FarmCfg {
            workers: 4,
            batch_events: 8192,
        }
    }
}

/// What one replay did.
#[derive(Clone, Debug)]
pub struct FarmReport {
    /// The single decode+parse pass: parse statistics, blocks
    /// (chunks) and words fed.
    pub run: DriveReport,
    /// Worker threads actually used.
    pub workers: usize,
    /// Sinks fed.
    pub sinks: usize,
    /// Event batches broadcast.
    pub batches: u64,
}

/// A [`TraceSink`] that buffers events and broadcasts each full batch
/// to every worker channel, sharing one allocation per batch.
struct Broadcast {
    txs: Vec<SyncSender<Arc<Vec<RefEvent>>>>,
    batch: Vec<RefEvent>,
    batch_events: usize,
    batches: u64,
}

impl Broadcast {
    fn new(txs: Vec<SyncSender<Arc<Vec<RefEvent>>>>, batch_events: usize) -> Broadcast {
        let batch_events = batch_events.max(1);
        Broadcast {
            txs,
            batch: Vec::with_capacity(batch_events),
            batch_events,
            batches: 0,
        }
    }

    fn push(&mut self, ev: RefEvent) {
        self.batch.push(ev);
        if self.batch.len() >= self.batch_events {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = Arc::new(std::mem::replace(
            &mut self.batch,
            Vec::with_capacity(self.batch_events),
        ));
        self.batches += 1;
        for tx in &self.txs {
            // A send failure means that worker panicked; its join
            // below will surface the panic.
            let _ = tx.send(batch.clone());
        }
    }
}

impl TraceSink for Broadcast {
    fn iref(&mut self, vaddr: u32, space: Space, idle: bool) {
        self.push(RefEvent::Iref { vaddr, space, idle });
    }

    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.push(RefEvent::Dref {
            vaddr,
            store,
            width,
            space,
        });
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.push(RefEvent::CtxSwitch(asid));
    }

    fn mode_transition(&mut self, generating: bool) {
        self.push(RefEvent::ModeTransition(generating));
    }
}

/// Drives the whole store through one [`Driver`] into `sink`: one
/// continuous parse across all blocks (a basic block's words may
/// straddle two store blocks), every block CRC-checked as it is
/// decoded, the reader recycling one decode buffer across the file.
/// A decode or CRC failure aborts with the block's typed error.
pub fn drive<S: TraceSink>(
    store: &TraceStore,
    sink: S,
    hooks: &SeamHooks,
) -> Result<(DriveReport, S), StoreError> {
    let mut driver = Driver::with_hooks(store.parser(), sink, hooks.clone());
    let mut reader = store.block_reader();
    while let Some(block) = reader.next_block() {
        driver.feed(block?);
    }
    Ok(driver.finish())
}

/// Replays the whole store into every sink, spreading the sinks
/// across `cfg.workers` threads behind one shared decode+parse.
/// Returns the report and the sinks in their original order, each in
/// exactly the state a sequential `parse_all` pass would have left it
/// in. `hooks` is consulted by the driver per block at
/// [`Seam::Source`] and by every worker per batch at
/// [`Seam::Worker`] (production callers pass the default).
pub fn replay<S: TraceSink + Send>(
    store: &TraceStore,
    sinks: Vec<S>,
    cfg: FarmCfg,
    hooks: &SeamHooks,
) -> Result<(FarmReport, Vec<S>), StoreError> {
    let n_sinks = sinks.len();
    let workers = cfg.workers.clamp(1, n_sinks.max(1));
    // Deal sinks round-robin, remembering original positions so the
    // returned vector matches the input order.
    let mut shares: Vec<Vec<(usize, S)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, s) in sinks.into_iter().enumerate() {
        shares[i % workers].push((i, s));
    }

    let (run, batches, shares) = thread::scope(|scope| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (w, mut share) in shares.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Arc<Vec<RefEvent>>>(DEPTH);
            txs.push(tx);
            handles.push(scope.spawn(move || {
                let mut applied = 0u64;
                for (seq, batch) in rx.into_iter().enumerate() {
                    if !hooks.deliver(Seam::Worker(w), seq as u64) {
                        continue;
                    }
                    applied += 1;
                    for (_, sink) in share.iter_mut() {
                        for &ev in batch.iter() {
                            ev.apply(sink);
                        }
                    }
                }
                (share, applied)
            }));
        }

        // On a block error the broadcast sink is dropped inside
        // `drive`, which closes the channels; the scope then joins
        // the drained workers.
        let (run, mut feed) = drive(store, Broadcast::new(txs, cfg.batch_events), hooks)?;
        feed.flush();
        let batches = feed.batches;
        drop(feed); // close the channels so workers drain and exit
        let mut shares = Vec::with_capacity(workers);
        for (w, h) in handles.into_iter().enumerate() {
            let (share, applied) = h.join().expect("farm worker panicked");
            // Every worker must have applied every broadcast batch; a
            // shortfall means its sinks silently missed events.
            if applied != batches {
                return Err(StoreError::FarmDesync {
                    worker: w,
                    applied,
                    expected: batches,
                });
            }
            shares.push(share);
        }
        Ok((run, batches, shares))
    })?;

    let mut out: Vec<Option<S>> = (0..n_sinks).map(|_| None).collect();
    for (i, s) in shares.into_iter().flatten() {
        out[i] = Some(s);
    }
    let sinks = out
        .into_iter()
        .map(|s| s.expect("every sink returns"))
        .collect();
    Ok((
        FarmReport {
            run,
            workers,
            sinks: n_sinks,
            batches,
        },
        sinks,
    ))
}

/// Runs [`TraceStore::query`] with the block work spread over
/// `workers` threads. Blocks filter independently (each block's
/// entering ASID context comes from the index), so workers pull
/// block indices from a shared counter, filter their blocks locally,
/// and the results are stitched back in stream order — bit-identical
/// to the sequential query by construction. This is the entry the
/// `wrl-serve` service uses so one big query saturates all cores.
pub fn query_parallel(
    store: &TraceStore,
    pred: &Predicate,
    workers: usize,
) -> Result<QueryResult, StoreError> {
    let picked = store.matching_blocks(pred);
    let skipped = (store.n_blocks() - picked.len()) as u32;
    let workers = workers.clamp(1, picked.len().max(1));
    if workers == 1 || picked.len() < 8 {
        // Too little work to pay a scoped-thread spawn per request —
        // the sequential query (identical results: both paths visit
        // `picked` in stream order).
        return store.query(pred);
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (picked, next) = (&picked, &next);
                scope.spawn(move || {
                    let mut mine: Vec<(usize, Vec<u32>)> = Vec::new();
                    // One one-slot cache per worker: the decode buffer
                    // reused across its blocks.
                    let mut cache = BlockCache::new(1);
                    loop {
                        let at = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&block) = picked.get(at) else {
                            return Ok(mine);
                        };
                        let mut out = Vec::new();
                        store.filter_block_into(block, pred, &mut out, &mut cache)?;
                        mine.push((at, out));
                    }
                })
            })
            .collect();
        let mut parts: Vec<(usize, Vec<u32>)> = Vec::with_capacity(picked.len());
        let mut failed: Option<StoreError> = None;
        for h in handles {
            match h.join().expect("query worker panicked") {
                Ok(mine) => parts.extend(mine),
                Err(e) => failed = Some(e),
            }
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(parts),
        }
    });
    let mut parts = parts?;
    parts.sort_unstable_by_key(|(at, _)| *at);
    let mut words = Vec::with_capacity(parts.iter().map(|(_, w)| w.len()).sum());
    for (_, part) in parts {
        words.extend_from_slice(&part);
    }
    Ok(QueryResult {
        blocks_decoded: picked.len() as u32,
        blocks_skipped: skipped,
        words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::bbinfo::{BbInfo, BbTraceFlags, MemOp};
    use wrl_trace::{ctl, BbTable, ChunkFate, CollectSink, CtlOp, TraceArchive};

    /// A trace with kernel + user activity, context switches and
    /// nested kernel entries, so ordering bugs have something to bite.
    fn busy_store(block_words: usize) -> TraceStore {
        let mut kt = BbTable::new();
        for i in 0..8u32 {
            kt.insert(
                0x8003_0000 + i * 0x40,
                BbInfo {
                    orig_vaddr: 0x8001_0000 + i * 0x40,
                    n_insts: 3,
                    ops: vec![MemOp {
                        index: 1,
                        store: i % 2 == 0,
                        width: Width::Word,
                    }],
                    flags: BbTraceFlags::default(),
                },
            );
        }
        let mut ut = BbTable::new();
        for i in 0..8u32 {
            ut.insert(
                0x0040_0000 + i * 0x40,
                BbInfo {
                    orig_vaddr: 0x0041_0000 + i * 0x40,
                    n_insts: 2,
                    ops: vec![],
                    flags: BbTraceFlags::default(),
                },
            );
        }
        let mut words = vec![ctl(CtlOp::CtxSwitch, 5)];
        for i in 0..3000u32 {
            let k = i % 8;
            words.push(0x0040_0000 + k * 0x40);
            if i % 7 == 0 {
                words.push(ctl(CtlOp::KEnter, 3));
                words.push(0x8003_0000 + k * 0x40);
                words.push(0x8040_0000 + (i % 16) * 4); // its data word
                words.push(ctl(CtlOp::KExit, 0));
            }
        }
        words.push(ctl(CtlOp::Eof, 0));
        let a = TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: vec![(5, Arc::new(ut))],
            words,
        };
        TraceStore::from_archive(&a, block_words)
    }

    fn sequential(store: &TraceStore, n: usize) -> Vec<CollectSink> {
        let words = store.words().unwrap();
        (0..n)
            .map(|_| {
                let mut sink = CollectSink::default();
                store.parser().parse_all(&words, &mut sink);
                sink
            })
            .collect()
    }

    fn assert_identical(farmed: &[CollectSink], baseline: &[CollectSink]) {
        assert_eq!(farmed.len(), baseline.len());
        for (f, b) in farmed.iter().zip(baseline) {
            assert_eq!(f.irefs, b.irefs);
            assert_eq!(f.drefs, b.drefs);
        }
    }

    fn no_hooks() -> SeamHooks {
        SeamHooks::default()
    }

    #[test]
    fn replay_matches_sequential_for_any_worker_count() {
        let store = busy_store(256);
        let baseline = sequential(&store, 5);
        for workers in [1, 2, 4, 8] {
            let sinks = vec![CollectSink::default(); 5];
            let cfg = FarmCfg {
                workers,
                batch_events: 100, // small batches: exercise batching
            };
            let (report, farmed) = replay(&store, sinks, cfg, &no_hooks()).unwrap();
            assert_identical(&farmed, &baseline);
            assert_eq!(report.workers, workers.min(5));
            assert_eq!(report.run.words, store.n_words);
            assert_eq!(report.run.chunks, store.n_blocks() as u64);
            assert!(report.batches > 0);
        }
    }

    #[test]
    fn zero_sinks_still_reports_a_parse() {
        let store = busy_store(256);
        let (report, sinks) =
            replay::<CollectSink>(&store, vec![], FarmCfg::default(), &no_hooks()).unwrap();
        assert!(sinks.is_empty());
        assert_eq!(report.run.words, store.n_words);
        assert!(report.run.parse.bb_records > 0);
    }

    #[test]
    fn stalled_workers_change_nothing() {
        use std::time::Duration;
        let store = busy_store(256);
        let baseline = sequential(&store, 3);
        let hooks = SeamHooks::new(|seam, seq| {
            if seam == Seam::Worker(0) && seq % 2 == 0 {
                ChunkFate::Stall(Duration::from_micros(100))
            } else {
                ChunkFate::Deliver
            }
        });
        let cfg = FarmCfg {
            workers: 3,
            batch_events: 200,
        };
        let (_, farmed) = replay(&store, vec![CollectSink::default(); 3], cfg, &hooks).unwrap();
        assert_identical(&farmed, &baseline);
    }

    #[test]
    fn dropped_batch_is_a_typed_desync() {
        let store = busy_store(256);
        let hooks = SeamHooks::new(|seam, seq| {
            if seam == Seam::Worker(1) && seq == 1 {
                ChunkFate::Drop
            } else {
                ChunkFate::Deliver
            }
        });
        let cfg = FarmCfg {
            workers: 2,
            batch_events: 100,
        };
        let err = replay(&store, vec![CollectSink::default(); 2], cfg, &hooks)
            .expect_err("a dropped batch must abort the replay");
        match err {
            StoreError::FarmDesync {
                worker,
                applied,
                expected,
            } => {
                assert_eq!(worker, 1);
                assert_eq!(applied + 1, expected);
            }
            other => panic!("wrong error type: {other}"),
        }
    }

    #[test]
    fn a_block_dropped_at_the_source_is_reported_lost() {
        let store = busy_store(256);
        let hooks = SeamHooks::new(|seam, seq| {
            if seam == Seam::Source && seq == 2 {
                ChunkFate::Drop
            } else {
                ChunkFate::Deliver
            }
        });
        let (run, _) = drive(&store, CollectSink::default(), &hooks).unwrap();
        assert_eq!(run.lost_chunks, 1);
        assert_eq!(run.chunks, store.n_blocks() as u64);
    }

    #[test]
    fn parallel_query_is_bit_identical_to_sequential() {
        let store = busy_store(64);
        let full = store.words().unwrap();
        for pred in [
            Predicate::default(),
            Predicate {
                asid: Some(5),
                ..Predicate::default()
            },
            Predicate {
                window: Some((100, 2000)),
                asid: Some(5),
            },
        ] {
            let seq = store.query(&pred).unwrap();
            assert_eq!(seq.words, crate::filter_stream(&full, &pred), "{pred:?}");
            for workers in [1, 2, 4, 8] {
                let par = query_parallel(&store, &pred, workers).unwrap();
                assert_eq!(par, seq, "workers={workers} {pred:?}");
            }
        }
    }

    #[test]
    fn v4_replay_and_query_match_the_row_store() {
        let v3 = busy_store(64);
        let a = v3.to_archive().unwrap();
        let v4 = TraceStore::from_archive_with(&a, 64, crate::BlockFormat::Columnar);
        let baseline = sequential(&v3, 3);
        let (_, farmed) = replay(
            &v4,
            vec![CollectSink::default(); 3],
            FarmCfg::default(),
            &no_hooks(),
        )
        .unwrap();
        assert_identical(&farmed, &baseline);
        for pred in [
            Predicate {
                asid: Some(5),
                ..Predicate::default()
            },
            Predicate {
                window: Some((100, 2000)),
                asid: Some(5),
            },
        ] {
            let seq = v3.query(&pred).unwrap();
            let par = query_parallel(&v4, &pred, 4).unwrap();
            assert_eq!(par.words, seq.words, "{pred:?}");
        }
    }

    #[test]
    fn parallel_query_surfaces_block_corruption() {
        let store = busy_store(64);
        let mut bytes = store.encode();
        let tail_at = bytes.len() - crate::container::TRAILER_BYTES;
        let index_pos =
            u64::from_le_bytes(bytes[tail_at + 4..tail_at + 12].try_into().unwrap()) as usize;
        bytes[index_pos - 1] ^= 0xff;
        let bad = TraceStore::decode(&bytes).unwrap();
        let err = query_parallel(&bad, &Predicate::default(), 4).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CrcMismatch { .. } | StoreError::BlockCodec { .. }
        ));
    }

    #[test]
    fn corrupt_block_aborts_the_replay() {
        let store = busy_store(128);
        let mut bytes = store.encode();
        // Flip the last byte of the block area (just before the index,
        // whose position the trailer records).
        let tail_at = bytes.len() - crate::container::TRAILER_BYTES;
        let index_pos =
            u64::from_le_bytes(bytes[tail_at + 4..tail_at + 12].try_into().unwrap()) as usize;
        bytes[index_pos - 1] ^= 0xff;
        let bad = TraceStore::decode(&bytes).unwrap();
        let err = replay(
            &bad,
            vec![CollectSink::default(); 2],
            FarmCfg::default(),
            &no_hooks(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StoreError::CrcMismatch { .. } | StoreError::BlockCodec { .. }
        ));
    }
}
