//! What the reactor answers admitted requests *from*.
//!
//! [`crate::server`] owns everything about a `wrl-wire/v1` connection
//! — framing, admission, stall budgets, drain, the fault seam — and
//! hands each admitted catalog / fetch / query request to the
//! archives of a [`Catalog`], held in memory.
//!
//! The checks on what a request asks are written here once:
//! [`no_such_archive`], [`bad_request`] and [`fetch_range`].

use std::ops::Range;
use std::sync::{Arc, Mutex};

use wrl_store::{query_parallel_spans, BlockCache, Predicate, StoreError, StoreObs, TraceStore};

use crate::obs::ServeObs;
use crate::server::ServeCfg;
use crate::wire::{
    err, CatalogEntry, QueryFrame, RawBlock, Response, MAX_FRAME, RAW_BLOCK_HEADER_BYTES,
};

/// The typed refusal for a request the frame decoded but the server
/// cannot serve.
pub fn bad_request(msg: &str) -> Response {
    Response::Error {
        code: err::BAD_REQUEST,
        msg: msg.to_string(),
    }
}

/// The typed refusal for a fetch or query naming an archive the
/// catalog does not hold.
pub fn no_such_archive(name: &str) -> Response {
    Response::Error {
        code: err::NO_SUCH_ARCHIVE,
        msg: format!("no archive named {name:?} in the catalog"),
    }
}

/// Checks a fetch request against an archive of `have` blocks whose
/// block `i` holds `comp_len(i)` compressed bytes: the range must lie
/// inside the archive and its answer inside one frame.
pub fn fetch_range(
    first_block: u32,
    n_blocks: u32,
    have: usize,
    comp_len: impl Fn(usize) -> u32,
) -> Result<Range<usize>, Response> {
    let first = first_block as usize;
    let end = first
        .checked_add(n_blocks as usize)
        .ok_or_else(|| bad_request("block range overflows"))?;
    if end > have {
        return Err(bad_request("block range out of bounds"));
    }
    let mut total = 0usize;
    for i in first..end {
        total += RAW_BLOCK_HEADER_BYTES + comp_len(i) as usize;
        if total > MAX_FRAME - 64 {
            return Err(bad_request(
                "block range exceeds the frame cap; fetch fewer blocks",
            ));
        }
    }
    Ok(first..end)
}

/// The archives a server offers, by name.
#[derive(Clone, Default)]
pub struct Catalog {
    entries: Vec<(String, Arc<TraceStore>)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Adds (or replaces) an archive under `name`, keeping the
    /// catalog sorted by name.
    pub fn add(&mut self, name: impl Into<String>, store: Arc<TraceStore>) {
        let name = name.into();
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(i) => self.entries[i].1 = store,
            Err(i) => self.entries.insert(i, (name, store)),
        }
    }

    /// Looks an archive up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<TraceStore>> {
        self.get_indexed(name).map(|(_, s)| s)
    }

    /// Looks an archive up by name, also returning its catalog slot
    /// (the server's per-archive block-cache index).
    fn get_indexed(&self, name: &str) -> Option<(usize, &Arc<TraceStore>)> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| (i, &self.entries[i].1))
    }

    /// The catalog rows a catalog response ships.
    pub fn rows(&self) -> Vec<CatalogEntry> {
        self.entries
            .iter()
            .map(|(name, s)| CatalogEntry {
                name: name.clone(),
                n_words: s.n_words,
                n_blocks: s.n_blocks() as u32,
                block_words: s.block_words,
                compressed_bytes: s.compressed_bytes(),
            })
            .collect()
    }
}

/// What a server answers admitted requests from: the archives of a
/// [`Catalog`], held in memory. Methods run with an admission slot
/// held: a scan (a query that is not [`CatalogBackend::bounded`]) on
/// an executor thread, everything else on the event thread; an `Err`
/// is the refusal to send instead, already typed.
pub(crate) struct CatalogBackend {
    catalog: Catalog,
    /// One decoded-block cache per catalog entry (same order), sized
    /// from `query_cache_bytes`, at least one block each, with the
    /// words its slots hold. The lock serialises the windows that fit
    /// it per archive — cheap once warm, and bounded by its size;
    /// wider windows and full scans take the parallel farm instead.
    caches: Vec<(u64, Mutex<BlockCache>)>,
    query_workers: usize,
    obs: ServeObs,
}

impl CatalogBackend {
    pub(crate) fn new(catalog: Catalog, cfg: &ServeCfg) -> CatalogBackend {
        let caches = catalog
            .entries
            .iter()
            .map(|(_, s)| {
                let block_bytes = (s.block_words as usize).max(1) * 4;
                let slots = (cfg.query_cache_bytes / block_bytes).clamp(1, s.n_blocks().max(1));
                let words = slots as u64 * u64::from(s.block_words);
                (words, Mutex::new(BlockCache::new(slots)))
            })
            .collect();
        CatalogBackend {
            catalog,
            caches,
            query_workers: cfg.query_workers,
            obs: ServeObs::register(),
        }
    }

    fn find(&self, name: &str) -> Result<(usize, &Arc<TraceStore>), Response> {
        self.catalog
            .get_indexed(name)
            .ok_or_else(|| no_such_archive(name))
    }

    /// The one place a store failure becomes `err::STORE` on the
    /// wire, so the one place the store's integrity counters move.
    /// The family is looked up here, on the rare path, so a healthy
    /// server's metrics snapshot carries no `store.*` rows of its own.
    fn store_error(e: &StoreError) -> Response {
        StoreObs::register().tally_error(e);
        Response::Error {
            code: err::STORE,
            msg: e.to_string(),
        }
    }

    /// Whether a query for `pred` on `archive` is bounded work: a
    /// window no wider than the words that archive's cache holds, or a
    /// name the catalog lacks (a refusal). Any other query is a scan —
    /// no window, or a wider one — and runs on the farm, not the cache.
    pub(crate) fn bounded(&self, archive: &str, pred: &Predicate) -> bool {
        self.find(archive).map_or(true, |(idx, store)| {
            let width = pred
                .window
                .map(|(lo, hi)| hi.min(store.n_words).saturating_sub(lo));
            width.is_some_and(|w| w <= self.caches[idx].0)
        })
    }

    /// The rows of a catalog answer, sorted by name.
    pub(crate) fn catalog(&self) -> Vec<CatalogEntry> {
        self.catalog.rows()
    }

    /// Blocks `first_block .. first_block + n_blocks` of `archive`,
    /// raw, for the client to decompress and verify.
    pub(crate) fn fetch(
        &self,
        archive: &str,
        first_block: u32,
        n_blocks: u32,
    ) -> Result<Vec<RawBlock>, Response> {
        let (_, store) = self.find(archive)?;
        let range = fetch_range(first_block, n_blocks, store.n_blocks(), |i| {
            store.block_meta(i).comp_len
        })?;
        let mut blocks = Vec::with_capacity(range.len());
        for i in range {
            let m = *store.block_meta(i);
            let comp = store.block_bytes(i).map_err(|e| Self::store_error(&e))?;
            blocks.push(RawBlock {
                words: m.words,
                crc: m.crc,
                first_asid: m.first_asid,
                last_asid: m.last_asid,
                flags: m.flags,
                first_word: m.first_word,
                min_daddr: m.min_daddr,
                max_daddr: m.max_daddr,
                comp: comp.to_vec(),
            });
        }
        Ok(blocks)
    }

    /// The answer to request `req_id` for the words of `archive` that
    /// `pred` admits, in stream order, with the pushdown's block
    /// accounting — written straight into its sealed frame: each
    /// admitted span goes from the block's cache slot (a window the
    /// cache holds) or from the parallel query's ordered per-block
    /// parts (a scan) into the frame, and nothing else holds the
    /// words. An answer past the frame cap `cap` ([`MAX_FRAME`] when
    /// served) stops being copied there and is refused.
    pub(crate) fn query(
        &self,
        req_id: u64,
        archive: &str,
        pred: &Predicate,
        cap: usize,
    ) -> Result<Vec<u8>, Response> {
        let (idx, store) = self.find(archive)?;
        // Room for every word the window spans.
        let room = pred.window.map_or(0, |(lo, hi)| {
            hi.min(store.n_words).saturating_sub(lo) as usize
        });
        let mut frame = QueryFrame::new(req_id, cap, room);
        let counts = if self.bounded(archive, pred) {
            // A window the cache holds. Served archives see the same
            // windows repeatedly: answer from the per-archive
            // decoded-block cache instead of spinning the farm up.
            let mut cache = self.caches[idx].1.lock().expect("cache lock poisoned");
            let (h, m) = (cache.hits(), cache.misses());
            let r = store.query_spans(pred, &mut cache, |span| frame.push(span));
            self.obs.cache_hits.add(cache.hits() - h);
            self.obs.cache_misses.add(cache.misses() - m);
            r
        } else {
            // A scan. Runs in place at one worker or under eight
            // blocks, where a scoped-thread spawn would dwarf it.
            query_parallel_spans(store, pred, self.query_workers, |part| frame.push(part))
        };
        let (decoded, skipped) = counts.map_err(|e| Self::store_error(&e))?;
        self.obs.blocks_decoded.add(u64::from(decoded));
        self.obs.blocks_skipped.add(u64::from(skipped));
        frame
            .seal(decoded, skipped)
            .ok_or_else(|| bad_request("query result exceeds the frame cap; narrow the window"))
    }
}
