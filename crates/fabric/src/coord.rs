//! The fabric coordinator: one `wrl-wire/v1` endpoint fronting many
//! shard nodes.
//!
//! Upstream it is indistinguishable from a single `wrl-serve` node
//! holding the whole archive, and by construction: the coordinator is
//! not a server of its own but a [`Backend`] of the `wrl-serve`
//! reactor, so framing, admission (`Busy`), stall budgets, graceful
//! drain, the `serve.*` metrics, the fault seam and the live-tail
//! refusals are the node's own code. Only the answers to catalog,
//! fetch, query and shards are the coordinator's. Downstream it is
//! just another [`wrl_serve::Client`] of each shard.
//!
//! A query is answered by scattering
//! [`ScatterUnit`](crate::manifest::ScatterUnit)s
//! ([`Manifest::scatter`](crate::manifest::Manifest::scatter)) to the
//! owning shards in global order and
//! concatenating the answers; blocks the manifest proofs rule out are
//! never sent anywhere. Failover is whole-unit: a sub-request either
//! returns a complete, CRC-framed response or a typed failure, so on
//! a transport failure the coordinator retries the *entire* unit on
//! the shard's next endpoint — no partial answer exists that could
//! duplicate or drop rows. Typed shard errors are different: the
//! shard is alive and has answered, so the error is forwarded
//! upstream with its code intact and the shard named in the message,
//! and no failover happens.
//!
//! A scatter blocks on shard sockets; like every admitted request it
//! runs on the reactor's executor threads, never on an event thread.
//! Each running request checks a set of downstream connections out of
//! a pool and returns it afterwards; the pool therefore never holds
//! more sets than the server has executors, and the admission gate
//! that bounds requests in flight bounds shard connections with them.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wrl_serve::backend::{fetch_range, no_such_archive, Backend};
use wrl_serve::wire::{err, CatalogEntry, RawBlock, Response, ShardStatus};
use wrl_serve::{Client, ClientCfg, ServeCfg, ServeError, ServeHooks, Server};
use wrl_store::{Predicate, QueryResult};

use crate::manifest::Manifest;
use crate::obs::FabricObs;

/// Most endpoints (primary + replicas) one shard may list — the
/// `shards` response reports endpoint liveness as a `u16` bitmap.
pub const MAX_ENDPOINTS: usize = 16;

/// `Busy` retries per sub-query before the overload is forwarded
/// upstream.
const BUSY_RETRIES: u32 = 8;

/// One request's downstream connections, `[shard][endpoint]`, lazily
/// connected and dropped on transport failure so failover always
/// reconnects from scratch.
type Conns = Vec<Vec<Option<Client>>>;

/// The fabric's [`Backend`]: a manifest, the shard endpoints behind
/// it, and the downstream connections to them.
pub struct Coordinator {
    manifest: Manifest,
    endpoints: Vec<Vec<SocketAddr>>,
    /// Socket parameters for the downstream shard connections; the
    /// stall budget bounds how long a dead shard can hold a
    /// sub-request before failover moves on.
    client: ClientCfg,
    obs: FabricObs,
    /// Per shard: bit `e` set = endpoint `e`'s last contact failed.
    /// Purely advisory (the `shards` report); failover always walks
    /// endpoints in listed order so a recovered primary is retaken.
    down: Vec<AtomicU64>,
    /// Connection sets not in use by a running request.
    pool: Mutex<Vec<Conns>>,
}

impl Coordinator {
    /// The backend for the fabric described by `manifest`.
    /// `endpoints[s]` lists shard `s`'s nodes in failover order
    /// (primary first); every shard owning blocks needs at least one.
    /// [`Coordinator::start`] is the usual entry; this one is for
    /// serving the backend under [`Server::start_backend`] directly,
    /// with fault hooks.
    pub fn new(
        manifest: Manifest,
        endpoints: Vec<Vec<SocketAddr>>,
        client: ClientCfg,
    ) -> io::Result<Coordinator> {
        let invalid = |why| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        if endpoints.len() != manifest.n_shards() {
            return invalid("one endpoint list per manifest shard required");
        }
        for (s, eps) in endpoints.iter().enumerate() {
            if eps.is_empty() && manifest.shards[s].n_blocks > 0 {
                return invalid("a shard owning blocks has no endpoints");
            }
            if eps.len() > MAX_ENDPOINTS {
                return invalid("too many endpoints for one shard");
            }
        }
        Ok(Coordinator {
            down: (0..manifest.n_shards())
                .map(|_| AtomicU64::new(0))
                .collect(),
            manifest,
            endpoints,
            client,
            obs: FabricObs::register(),
            pool: Mutex::new(Vec::new()),
        })
    }

    /// Binds `addr` and serves the fabric on a `wrl-serve` reactor of
    /// the default shape. The returned [`Server`] is the coordinator:
    /// `addr()` is the upstream address, `shutdown()` drains it.
    pub fn start(
        addr: impl ToSocketAddrs,
        manifest: Manifest,
        endpoints: Vec<Vec<SocketAddr>>,
        client: ClientCfg,
    ) -> io::Result<Server> {
        let coord = Coordinator::new(manifest, endpoints, client)?;
        Server::start_backend(addr, coord, ServeCfg::default(), ServeHooks::default())
    }

    /// Runs `f` with a connection set checked out of the pool.
    fn pooled<T>(&self, f: impl FnOnce(&mut Conns) -> T) -> T {
        let idle = self.pool.lock().expect("pool lock poisoned").pop();
        let mut conns = idle.unwrap_or_else(|| {
            let unconnected = |eps: &Vec<SocketAddr>| eps.iter().map(|_| None).collect();
            self.endpoints.iter().map(unconnected).collect()
        });
        let out = f(&mut conns);
        self.pool.lock().expect("pool lock poisoned").push(conns);
        out
    }

    /// Runs `f` against shard `shard`, walking its endpoints in listed
    /// order until one produces an answer. Transport failures (connect
    /// refusal, severed or timed-out sockets, damaged response frames)
    /// advance to the next endpoint; typed answers — including typed
    /// errors — end the walk.
    fn with_shard<T>(
        &self,
        conns: &mut Conns,
        shard: usize,
        mut f: impl FnMut(&mut Client) -> Result<T, ServeError>,
    ) -> Result<T, Response> {
        let name = &self.manifest.shards[shard].name;
        let mut last: Option<ServeError> = None;
        for (e, &addr) in self.endpoints[shard].iter().enumerate() {
            if last.is_some() {
                self.obs.failover.inc();
            }
            let slot = &mut conns[shard][e];
            if slot.is_none() {
                match Client::connect_cfg(addr, self.client) {
                    Ok(c) => *slot = Some(c),
                    Err(ioe) => {
                        self.down[shard].fetch_or(1 << e, Ordering::Relaxed);
                        last = Some(ServeError::Io(ioe));
                        continue;
                    }
                }
            }
            let client = slot.as_mut().expect("slot populated above");
            match f(client) {
                Ok(v) => {
                    self.down[shard].fetch_and(!(1 << e), Ordering::Relaxed);
                    return Ok(v);
                }
                Err(ServeError::Remote { code, msg }) => {
                    // The shard is alive and answered with a typed error:
                    // forward it, code intact, shard named. Failing over
                    // would just re-derive the same store-level failure.
                    self.obs.remote_errors.inc();
                    return Err(Response::Error {
                        code,
                        msg: format!("shard {name}: {msg}"),
                    });
                }
                Err(ServeError::Busy) => return Err(Response::Busy),
                Err(transport) => {
                    // Io, TimedOut, Wire, BadReply: the connection can no
                    // longer be trusted mid-protocol. Drop it and retry
                    // the whole sub-request on the next endpoint.
                    *slot = None;
                    self.down[shard].fetch_or(1 << e, Ordering::Relaxed);
                    last = Some(transport);
                }
            }
        }
        self.obs.unavailable.inc();
        let detail = match last {
            Some(e) => format!(" (last: {e})"),
            None => String::new(),
        };
        Err(Response::Error {
            code: err::UNAVAILABLE,
            msg: format!("shard {name}: no endpoint answered{detail}"),
        })
    }
}

impl Backend for Coordinator {
    fn service(&self) -> &'static str {
        "wrl-fabric"
    }

    fn catalog(&self) -> Vec<CatalogEntry> {
        let m = &self.manifest;
        vec![CatalogEntry {
            name: m.archive.clone(),
            n_words: m.n_words,
            n_blocks: m.n_blocks() as u32,
            block_words: m.block_words,
            compressed_bytes: m.compressed_bytes(),
        }]
    }

    fn shards(&self) -> Option<Vec<ShardStatus>> {
        let row = |(s, e): (usize, &crate::manifest::ShardEntry)| {
            let n = self.endpoints[s].len() as u16;
            let down = self.down[s].load(Ordering::Relaxed) as u16;
            ShardStatus {
                name: e.name.clone(),
                endpoints: n,
                alive: !down & (((1u32 << n) - 1) as u16),
                n_blocks: e.n_blocks,
                n_words: e.n_words,
                asid_mask: e.asid_mask,
            }
        };
        Some(self.manifest.shards.iter().enumerate().map(row).collect())
    }

    fn query(&self, archive: &str, pred: &Predicate) -> Result<QueryResult, Response> {
        let m = &self.manifest;
        if archive != m.archive {
            return Err(no_such_archive(archive));
        }
        self.obs.queries.inc();
        let units = m.scatter(pred);
        let surviving: u64 = units.iter().map(|u| u64::from(u.blocks)).sum();
        self.obs.blocks_pruned.add(m.n_blocks() as u64 - surviving);
        let mut words = Vec::new();
        let mut decoded = 0u32;
        self.pooled(|conns| {
            for u in &units {
                let name = &m.shards[u.shard].name;
                let q = self.with_shard(conns, u.shard, |c| {
                    self.obs.subqueries.inc();
                    c.query_retry(name, &u.pred, BUSY_RETRIES)
                })?;
                decoded += q.blocks_decoded;
                words.extend_from_slice(&q.words);
            }
            Ok(())
        })?;
        Ok(QueryResult {
            blocks_decoded: decoded,
            blocks_skipped: m.n_blocks() as u32 - decoded,
            words,
        })
    }

    fn fetch(
        &self,
        archive: &str,
        first_block: u32,
        n_blocks: u32,
    ) -> Result<Vec<RawBlock>, Response> {
        let m = &self.manifest;
        if archive != m.archive {
            return Err(no_such_archive(archive));
        }
        let range = fetch_range(first_block, n_blocks, m.n_blocks(), |i| {
            m.blocks[i].comp_len
        })?;
        let mut out = Vec::with_capacity(range.len());
        let (mut at, end) = (range.start, range.end);
        self.pooled(|conns| {
            while at < end {
                let shard = m.blocks[at].shard;
                let mut run = at + 1;
                while run < end && m.blocks[run].shard == shard {
                    run += 1;
                }
                // Consecutive global blocks on one shard are
                // consecutive shard-locally (subsets preserve order),
                // so the run is one downstream fetch.
                let shard = shard as usize;
                let name = &m.shards[shard].name;
                let local_first = m.local_of(at).1;
                let count = (run - at) as u32;
                let blocks =
                    self.with_shard(conns, shard, |c| c.fetch(name, local_first, count))?;
                if blocks.len() != run - at {
                    return Err(Response::Error {
                        code: err::UNAVAILABLE,
                        msg: format!("shard {name}: short fetch answer"),
                    });
                }
                for (k, mut rb) in blocks.into_iter().enumerate() {
                    // Re-tile to global coordinates: upstream must
                    // see exactly what a single node holding the
                    // whole archive would serve.
                    rb.first_word = m.blocks[at + k].first_word;
                    out.push(rb);
                }
                at = run;
            }
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{split_store, PlanKind};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;
    use wrl_serve::Catalog;
    use wrl_store::{BlockFormat, TraceStore};
    use wrl_trace::bbinfo::{BbInfo, BbTraceFlags};
    use wrl_trace::{ctl, BbTable, CtlOp, TraceArchive};

    fn sample_archive(n_words: usize) -> TraceArchive {
        let mut kt = BbTable::new();
        kt.insert(
            0x8003_0100,
            BbInfo {
                orig_vaddr: 0x8003_0000,
                n_insts: 4,
                ops: vec![],
                flags: BbTraceFlags::default(),
            },
        );
        let mut words = Vec::with_capacity(n_words + n_words / 50 + 2);
        let mut asid = 0u8;
        while words.len() < n_words {
            words.push(ctl(CtlOp::CtxSwitch, asid));
            let run = 50.min(n_words - words.len());
            words.extend(std::iter::repeat_n(0x8003_0100, run));
            asid = (asid + 1) % 4;
        }
        TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: (0..4).map(|a| (a, Arc::default())).collect(),
            words,
        }
    }

    fn fast_cfg() -> ClientCfg {
        ClientCfg {
            read_timeout: Duration::from_millis(5),
            write_timeout: Duration::from_secs(2),
            max_stalls: 100,
        }
    }

    /// One `wrl-serve` node per shard store, under the manifest's name
    /// for it.
    fn shard_nodes(
        manifest: &Manifest,
        shard_stores: Vec<TraceStore>,
    ) -> (Vec<Server>, Vec<Vec<SocketAddr>>) {
        let mut servers = Vec::new();
        let mut endpoints = Vec::new();
        for (entry, shard) in manifest.shards.iter().zip(shard_stores) {
            let mut catalog = Catalog::new();
            catalog.add(entry.name.clone(), Arc::new(shard));
            let server =
                Server::start("127.0.0.1:0", catalog, ServeCfg::default()).expect("shard starts");
            endpoints.push(vec![server.addr()]);
            servers.push(server);
        }
        (servers, endpoints)
    }

    #[test]
    fn coordinator_answers_like_a_single_node() {
        let a = sample_archive(1500);
        let store = TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar);
        let (manifest, shard_stores) =
            split_store(&store, "golden", 2, PlanKind::BlockRange).unwrap();

        let (servers, endpoints) = shard_nodes(&manifest, shard_stores);
        let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, fast_cfg())
            .expect("coordinator starts");
        let mut client = Client::connect(coord.addr()).expect("client connects");

        let rows = client.catalog().expect("catalog answers");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "golden");
        assert_eq!(rows[0].n_words, store.n_words);
        assert_eq!(rows[0].compressed_bytes, store.compressed_bytes());

        let shard_rows = client.shards().expect("shards answers");
        assert_eq!(shard_rows.len(), 2);
        assert!(shard_rows.iter().all(|r| r.alive == 1 && r.endpoints == 1));

        let mid = store.n_words / 2;
        for pred in [
            Predicate::default(),
            Predicate {
                asid: Some(2),
                window: Some((mid / 2, mid)),
            },
        ] {
            let single = store.query(&pred).unwrap();
            let q = client.query("golden", &pred).expect("query answers");
            assert_eq!(q.words, single.words, "merged answer differs");
            assert_eq!(q.blocks_decoded, single.blocks_decoded);
            assert_eq!(q.blocks_skipped, single.blocks_skipped);
        }

        // Fetch crosses the shard boundary; answers carry global
        // word offsets and verify client-side.
        let n = store.n_blocks() as u32;
        let blocks = client.fetch("golden", 0, n).expect("fetch answers");
        assert_eq!(blocks.len(), n as usize);
        let mut words = Vec::new();
        for (i, rb) in blocks.iter().enumerate() {
            assert_eq!(rb.first_word, store.block_meta(i).first_word);
            words.extend(rb.decode().expect("block verifies"));
        }
        assert_eq!(words, a.words);

        assert!(matches!(
            client.query("missing", &Predicate::default()),
            Err(ServeError::Remote { code, .. }) if code == err::NO_SUCH_ARCHIVE
        ));

        // The reactor describes the coordinator's own traffic, under
        // the coordinator's label.
        let metrics = client.metrics().expect("metrics answers");
        assert!(metrics.contains("\"service\": \"wrl-fabric\""), "{metrics}");
        assert!(metrics.contains("serve.requests.query"));

        coord.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn dead_only_endpoint_is_a_typed_unavailable() {
        let a = sample_archive(400);
        let store = TraceStore::from_archive(&a, 64);
        let (manifest, _) = split_store(&store, "golden", 2, PlanKind::BlockRange).unwrap();
        // Bind-then-drop yields addresses nothing listens on.
        let dead = |_: usize| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let endpoints = vec![vec![dead(0)], vec![dead(1)]];
        let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, fast_cfg())
            .expect("coordinator starts");
        let mut client = Client::connect(coord.addr()).expect("client connects");
        match client.query("golden", &Predicate::default()) {
            Err(ServeError::Remote { code, msg }) => {
                assert_eq!(code, err::UNAVAILABLE);
                assert!(msg.contains("shard"), "shard named in: {msg}");
            }
            other => panic!("expected typed unavailable, got {other:?}"),
        }
        coord.shutdown();
    }

    #[test]
    fn the_pool_holds_no_more_sets_than_requests_ran_at_once() {
        let a = sample_archive(1500);
        let store = TraceStore::from_archive(&a, 64);
        let (manifest, shard_stores) =
            split_store(&store, "golden", 2, PlanKind::BlockRange).unwrap();
        let (servers, endpoints) = shard_nodes(&manifest, shard_stores);
        // The backend alone, called as the reactor's executors call
        // it: four callers at once, so at most four sets checked out.
        let coord = Coordinator::new(manifest, endpoints, fast_cfg()).expect("valid fabric");
        let expected = store.query(&Predicate::default()).unwrap().words;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let q = coord.query("golden", &Predicate::default());
                        assert_eq!(q.expect("query answers").words, expected);
                    }
                });
            }
        });
        let idle = coord.pool.lock().unwrap();
        assert!((1..=4).contains(&idle.len()), "{} sets pooled", idle.len());
        let open = |set: &Conns| set.iter().flatten().flatten().count();
        assert!(idle.iter().all(|set| open(set) <= 2), "one client a shard");
        drop(idle);
        for s in servers {
            s.shutdown();
        }
    }
}
