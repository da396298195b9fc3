//! The store as a source for the one [`Driver`], and the parallel
//! query.
//!
//! The paper's methodology is *on-the-fly* analysis (§3.4) because
//! traces are too big to keep — but a cache study still wants to run
//! the same reference stream through fifteen cache geometries. The
//! compressed store makes the trace cheap to keep and cheap to re-run:
//! [`drive`] pumps the store's block reader into a driver, one
//! continuous parse across all blocks, bit-identical to a sequential
//! [`wrl_trace::TraceParser::parse_all`] pass. Spreading sinks over
//! threads is `wrl_tracer::analyze_store`'s business: each worker is
//! one more [`drive`] over its own share of the sinks.

use std::ops::ControlFlow;
use std::thread;

use wrl_trace::{DriveReport, Driver, TraceSink};

use crate::container::{BlockCache, Predicate, StoreError, TraceStore};

/// How many workers a store pass may use.
#[derive(Clone, Copy, Debug)]
pub struct FarmCfg {
    /// Worker threads. Sinks are dealt round-robin across workers,
    /// and each worker drives the whole store for its share; extra
    /// workers beyond the sink count are not spawned.
    pub workers: usize,
}

impl Default for FarmCfg {
    fn default() -> FarmCfg {
        FarmCfg { workers: 4 }
    }
}

/// Drives the whole store through one [`Driver`] into `sink`: one
/// continuous parse across all blocks (a basic block's words may
/// straddle two store blocks), every block CRC-checked as it is
/// decoded, the reader recycling one decode buffer across the file.
/// A decode or CRC failure aborts with the block's typed error.
pub fn drive<S: TraceSink>(store: &TraceStore, sink: S) -> Result<(DriveReport, S), StoreError> {
    let mut driver = Driver::new(store.parser(), sink);
    let mut reader = store.block_reader();
    while let Some(block) = reader.next_block() {
        driver.feed(block?);
    }
    Ok(driver.finish())
}

/// [`TraceStore::query_spans`] with the block work spread over
/// `workers` threads. Blocks filter independently (each block's
/// entering ASID context comes from the index), so workers pull
/// block indices from a shared counter and filter their blocks
/// locally; `emit` is then handed each block's part in stream order
/// — the same words, in the same order, as the sequential query, by
/// construction. Once `emit` returns `Break` no further part is
/// handed over. The `wrl-serve` service answers unwindowed queries
/// through it, so one big query uses every worker.
pub fn query_parallel_spans(
    store: &TraceStore,
    pred: &Predicate,
    workers: usize,
    mut emit: impl FnMut(&[u32]) -> ControlFlow<()>,
) -> Result<(u32, u32), StoreError> {
    let picked = store.matching_blocks(pred);
    let workers = workers.clamp(1, picked.len().max(1));
    if workers == 1 || picked.len() < 8 {
        // Too little work to pay a scoped-thread spawn per request —
        // the sequential query (identical results: both paths visit
        // `picked` in stream order).
        return store.query_spans(pred, &mut BlockCache::new(1), emit);
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
                        // Never `Break`: the part is collected whole.
                        let _ = store.filter_block_spans(block, pred, &mut cache, &mut |span| {
                            out.extend_from_slice(span);
                            ControlFlow::Continue(())
                        })?;
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
    for (_, part) in &parts {
        if emit(part).is_break() {
            break;
        }
    }
    Ok(store.pushdown(&picked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::QueryResult;
    use std::sync::Arc;
    use wrl_isa::Width;
    use wrl_trace::bbinfo::{BbInfo, BbTraceFlags, MemOp};
    use wrl_trace::{ctl, BbTable, CtlOp, EventVec, TraceArchive};

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

    fn sequential(store: &TraceStore) -> EventVec {
        let mut sink = EventVec::default();
        store.parser().parse_all(&store.words().unwrap(), &mut sink);
        sink
    }

    /// [`query_parallel_spans`] collected into one answer.
    fn query_parallel(
        store: &TraceStore,
        pred: &Predicate,
        workers: usize,
    ) -> Result<QueryResult, StoreError> {
        let mut words = Vec::new();
        let (blocks_decoded, blocks_skipped) =
            query_parallel_spans(store, pred, workers, |part| {
                words.extend_from_slice(part);
                ControlFlow::Continue(())
            })?;
        Ok(QueryResult {
            blocks_decoded,
            blocks_skipped,
            words,
        })
    }

    #[test]
    fn drive_matches_a_sequential_parse_at_any_block_size() {
        for block_words in [1, 7, 256] {
            let store = busy_store(block_words);
            let (run, driven) = drive(&store, EventVec::default()).unwrap();
            assert_eq!(driven, sequential(&store));
            assert_eq!(run.words, store.n_words);
            assert_eq!(run.chunks, store.n_blocks() as u64);
            assert!(run.parse.bb_records > 0);
        }
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
    fn v4_drive_and_query_match_the_row_store() {
        let v3 = busy_store(64);
        let a = v3.to_archive().unwrap();
        let v4 = TraceStore::from_archive_with(&a, 64, crate::BlockFormat::Columnar);
        let (_, driven) = drive(&v4, EventVec::default()).unwrap();
        assert_eq!(driven, sequential(&v3));
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
    fn corrupt_block_aborts_the_drive() {
        let store = busy_store(128);
        let mut bytes = store.encode();
        // Flip the last byte of the block area (just before the index,
        // whose position the trailer records).
        let tail_at = bytes.len() - crate::container::TRAILER_BYTES;
        let index_pos =
            u64::from_le_bytes(bytes[tail_at + 4..tail_at + 12].try_into().unwrap()) as usize;
        bytes[index_pos - 1] ^= 0xff;
        let bad = TraceStore::decode(&bytes).unwrap();
        let err = drive(&bad, EventVec::default()).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CrcMismatch { .. } | StoreError::BlockCodec { .. }
        ));
    }
}
