//! `serve_query`: index prune → cache → filter → frame → socket →
//! client, warm. An in-process server with the thread counts it picks
//! on a two-core host holds the four archives; one client replays a
//! seeded list of 2000
//! requests per pass in a closed loop, because the service's callers
//! are analysis tools that wait for each reply. The warm-up pass fills
//! the per-archive block caches (about 7 MB decoded against the 32 MB
//! default), so the wire, the reactor, the cache and the metrics
//! snapshot do the work and block decode almost none.

use std::sync::Arc;
use std::time::Instant;

use systrace::obs::{global, parse_json, SCHEMA};
use systrace::serve::wire::{decode_response, encode_response};
use systrace::serve::{Catalog, Client, RawBlock, Response, ServeCfg, Server};
use systrace::store::{BlockCache, QueryResult, TraceStore};

use super::archive_scan::write_path_layers;
use crate::gen::{self, Req};
use crate::panel::{exact_metrics, Archives, Cx, QuerySet, ARCHIVES};
use crate::run::{Findings, Tally, Workload};
use crate::spans::Spans;
use crate::stats;

pub struct Products {
    arch: Archives,
    stores: Vec<Arc<TraceStore>>,
    catalog: Catalog,
    cfg: ServeCfg,
    server: Server,
    client: Client,
}

/// Server-side counters the per-layer view is computed from.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    reject_busy: u64,
    bytes_out: u64,
    wakeups: u64,
}

pub struct ServeQuery<'a> {
    cx: &'a Cx,
    p: Products,
    queries: [QuerySet; 2],
    requests: Vec<Req>,
    /// Client-observed latency of every request of the timed passes,
    /// in microseconds.
    latency_us: Vec<f64>,
    /// Local block caches for the no-socket probe, sized as the
    /// server sizes its own.
    local_caches: Vec<BlockCache>,
    /// Counters when the first timed pass began, and passes since.
    base: Option<Counters>,
    passes_since: u64,
}

/// Span of the benchmark's own comparisons.
const CHECK: &str = "bench.check";

/// The server's configuration: every default, with the thread counts
/// `ServeCfg::default()` derives from the CPUs it may run on fixed at
/// what it picks on a two-core host. The benchmark pins itself to one
/// CPU, and left to the default the server would see one core and run
/// every request inline on a single event thread, skipping the
/// executor hand-off that every larger host takes.
fn serve_cfg() -> ServeCfg {
    ServeCfg {
        event_threads: 2,
        exec_workers: 2,
        query_workers: 2,
        ..ServeCfg::default()
    }
}

const LABELS: [(&str, &str); 2] = [
    ("service", "wrl-serve"),
    ("schema_wire", systrace::serve::WIRE_SCHEMA),
];

impl ServeQuery<'_> {
    /// Books one request's client-observed latency.
    fn done(&mut self, sp: &Spans, span: &'static str, t0: Instant, t1: Instant, timed: bool) {
        if timed {
            self.latency_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        sp.record(span, t0, t1);
    }

    fn counters(&self) -> Counters {
        let o = self.p.server.obs();
        Counters {
            cache_hits: o.cache_hits.get(),
            cache_misses: o.cache_misses.get(),
            reject_busy: o.reject_busy.get(),
            bytes_out: o.bytes_out.get(),
            wakeups: o.reactor_wakeups.get(),
        }
    }

    fn query_set(&self, archive: usize) -> &QuerySet {
        &self.queries[ARCHIVES[archive].1]
    }

    /// The block a fetch of `block` must return, from the local store.
    fn raw_block(&self, archive: usize, block: u32) -> RawBlock {
        let store = &self.p.stores[archive];
        let m = *store.block_meta(block as usize);
        RawBlock {
            words: m.words,
            crc: m.crc,
            first_asid: m.first_asid,
            last_asid: m.last_asid,
            flags: m.flags,
            first_word: m.first_word,
            min_daddr: m.min_daddr,
            max_daddr: m.max_daddr,
            comp: store
                .block_bytes(block as usize)
                .expect("a block of the local store")
                .to_vec(),
        }
    }

    fn query_ok(&self, archive: usize, query: usize, got: &QueryResult) -> bool {
        got.words == self.query_set(archive).expected[query]
            && (got.blocks_decoded + got.blocks_skipped) as usize
                == self.p.stores[archive].n_blocks()
    }

    /// Words the replies of one pass carry.
    fn reply_words(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| match *r {
                Req::Query { archive, query } | Req::QueryAsid { archive, query } => {
                    self.query_set(archive).expected[query].len() as u64
                }
                Req::Fetch { archive, block } => {
                    u64::from(self.p.stores[archive].block_meta(block as usize).words)
                }
                Req::Catalog | Req::Metrics => 0,
            })
            .sum()
    }
}

fn metrics_ok(json: &str, full: bool) -> bool {
    json.starts_with(&format!("{{\n  \"schema\": \"{SCHEMA}\""))
        && json.contains("\"serve.requests.metrics\"")
        && (!full || parse_json(json).is_ok())
}

impl<'a> Workload<'a> for ServeQuery<'a> {
    const NAME: &'static str = "serve_query";
    fn threads() -> String {
        let c = serve_cfg();
        format!(
            "the server's two-core defaults: {} event, {} executor, {} query-worker",
            c.event_threads, c.exec_workers, c.query_workers
        )
    }
    type Products = Products;

    fn set_up(cx: &'a Cx, sp: &Spans) -> Products {
        let arch = Archives::build(cx, sp);
        let mut catalog = Catalog::new();
        let mut stores = Vec::new();
        for (a, (name, ..)) in ARCHIVES.iter().enumerate() {
            let store = sp
                .time("store.open", || TraceStore::decode_any(&arch.bytes[a]))
                .expect("a freshly serialized archive opens");
            stores.push(Arc::new(store));
            catalog.add(*name, stores[a].clone());
        }
        let cfg = serve_cfg();
        let server = Server::start("127.0.0.1:0", catalog.clone(), cfg).expect("a loopback port");
        let client = Client::connect(server.addr()).expect("the server accepts");
        Products {
            arch,
            stores,
            catalog,
            cfg,
            server,
            client,
        }
    }

    fn digest(p: &Products) -> u64 {
        p.arch.digest()
    }

    fn discard(p: Products) {
        drop(p.client);
        p.server.shutdown();
    }

    fn new(cx: &'a Cx, p: Products) -> Self {
        let queries = [0, 1].map(|e| QuerySet::new(cx.seed, e, &p.arch.recorded[e]));
        let n_blocks: Vec<u32> = p.stores.iter().map(|s| s.n_blocks() as u32).collect();
        let local_caches = p
            .stores
            .iter()
            .map(|s| {
                let block_bytes = (s.block_words as usize).max(1) * 4;
                let slots = (p.cfg.query_cache_bytes / block_bytes).clamp(1, s.n_blocks().max(1));
                BlockCache::new(slots)
            })
            .collect();
        ServeQuery {
            cx,
            requests: gen::requests(cx.seed, &n_blocks),
            queries,
            latency_us: Vec::new(),
            local_caches,
            base: None,
            passes_since: 0,
            p,
        }
    }

    fn words_per_pass(&self) -> u64 {
        self.reply_words()
    }

    fn pass(&mut self, sp: &Spans, timed: bool) -> Tally {
        let mut tally = Tally::default();
        if timed && self.base.is_none() {
            self.base = Some(self.counters());
        }
        if self.base.is_some() {
            self.passes_since += 1;
        }
        for i in 0..self.requests.len() {
            let req = self.requests[i];
            let t0 = Instant::now();
            let ok = match req {
                Req::Query { archive, query } | Req::QueryAsid { archive, query } => {
                    let pred = self.query_set(archive).preds[query];
                    let got = self.p.client.query(ARCHIVES[archive].0, &pred);
                    let t1 = Instant::now();
                    let span = match req {
                        Req::Query { .. } => "serve.query",
                        _ => "serve.query_asid",
                    };
                    self.done(sp, span, t0, t1, timed);
                    sp.time(CHECK, || {
                        got.is_ok_and(|q| self.query_ok(archive, query, &q))
                    })
                }
                Req::Fetch { archive, block } => {
                    let got = self.p.client.fetch(ARCHIVES[archive].0, block, 1);
                    self.done(sp, "serve.fetch", t0, Instant::now(), timed);
                    sp.time(CHECK, || {
                        got.is_ok_and(|b| b == [self.raw_block(archive, block)])
                    })
                }
                Req::Catalog => {
                    let got = self.p.client.catalog();
                    self.done(sp, "serve.catalog", t0, Instant::now(), timed);
                    sp.time(CHECK, || {
                        got.is_ok_and(|rows| rows == self.p.catalog.rows())
                    })
                }
                Req::Metrics => {
                    let got = self.p.client.metrics();
                    self.done(sp, "serve.metrics", t0, Instant::now(), timed);
                    sp.time(CHECK, || got.is_ok_and(|json| metrics_ok(&json, !timed)))
                }
            };
            tally.op(ok);
        }
        tally
    }

    /// The same request list without the socket: the queries through
    /// `query_cached` on local warm caches, every reply through the
    /// wire codec, and the metrics snapshot on its own.
    fn probes(&mut self, sp: &Spans) -> Tally {
        let mut tally = Tally::default();
        for id in 0..self.requests.len() {
            let reply = match self.requests[id] {
                Req::Query { archive, query } | Req::QueryAsid { archive, query } => {
                    let pred = self.query_set(archive).preds[query];
                    let store = self.p.stores[archive].clone();
                    let cache = &mut self.local_caches[archive];
                    let got = sp.time("serve.local_query", || store.query_cached(&pred, cache));
                    match got {
                        Ok(q) if self.query_ok(archive, query, &q) => Response::Query(q),
                        _ => {
                            tally.op(false);
                            continue;
                        }
                    }
                }
                Req::Fetch { archive, block } => {
                    Response::Fetch(vec![self.raw_block(archive, block)])
                }
                Req::Catalog => Response::Catalog(self.p.catalog.rows()),
                Req::Metrics => Response::Metrics(
                    sp.time("obs.snapshot", || global().snapshot().to_json(&LABELS)),
                ),
            };
            let id = id as u64 + 1;
            let frame = sp.time("serve.wire.encode_response", || encode_response(id, &reply));
            // The body a reader hands on excludes the length prefix.
            let back = sp.time("serve.wire.decode_response", || {
                decode_response(&frame[4..])
            });
            tally.op(back.is_ok_and(|b| b == (id, reply)));
        }
        tally
    }

    fn finish(mut self, out: &mut Findings) {
        let n = self.latency_us.len();
        stats::sort(&mut self.latency_us);
        let p50 = stats::percentile(&self.latency_us, 50.0);
        let p99 = stats::percentile(&self.latency_us, 99.0);
        out.own("op_p50_us", p50, n);
        out.own("op_p99_us", p99, n);
        out.layer("serve.op_p50_us", p50);
        out.layer("serve.op_p99_us", p99);

        exact_metrics(self.cx, &self.p.arch, out);
        write_path_layers(&self.p.arch, out);
        for (p50, p99, span) in [
            ("serve.query.p50_us", "serve.query.p99_us", "serve.query"),
            (
                "serve.query_asid.p50_us",
                "serve.query_asid.p99_us",
                "serve.query_asid",
            ),
            ("serve.fetch.p50_us", "serve.fetch.p99_us", "serve.fetch"),
            (
                "serve.catalog.p50_us",
                "serve.catalog.p99_us",
                "serve.catalog",
            ),
            (
                "serve.metrics.p50_us",
                "serve.metrics.p99_us",
                "serve.metrics",
            ),
        ] {
            out.layer(p50, out.percentile_us(&[span], 50.0));
            out.layer(p99, out.percentile_us(&[span], 99.0));
        }
        // The local probe pools both query kinds, so pool them here.
        let local = out.percentile_us(&["serve.local_query"], 50.0);
        let over_socket = out.percentile_us(&["serve.query", "serve.query_asid"], 50.0);
        out.layer("serve.local_query.p50_us", local);
        out.layer("serve.transport.self_us", over_socket - local);
        let snapshot = out.percentile_us(&["obs.snapshot"], 50.0);
        out.layer("obs.snapshot.p50_us", snapshot);
        let catalog = out.percentile_us(&["serve.catalog"], 50.0);
        out.layer(
            "obs.snapshot.vs_catalog_x",
            if catalog > 0.0 {
                snapshot / catalog
            } else {
                0.0
            },
        );

        let (base, now) = (self.base.unwrap_or_default(), self.counters());
        let hits = (now.cache_hits - base.cache_hits) as f64;
        let misses = (now.cache_misses - base.cache_misses) as f64;
        out.layer("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.layer(
            "serve.reject.busy",
            (now.reject_busy - base.reject_busy) as f64,
        );
        let passes = self.passes_since.max(1) as f64;
        out.layer(
            "serve.bytes_out_per_word",
            (now.bytes_out - base.bytes_out) as f64 / (passes * self.reply_words() as f64),
        );
        out.layer(
            "serve.reactor.wakeups_per_req",
            (now.wakeups - base.wakeups) as f64 / (passes * self.requests.len() as f64),
        );
        if now.reject_busy != base.reject_busy {
            out.wrong.push("the server answered Busy".into());
        }
        Self::discard(self.p);
    }
}
