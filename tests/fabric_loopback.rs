//! Loopback integration for the trace fabric (`wrl-fabric`): a
//! coordinator fronting real `wrl-serve` shard nodes must be
//! indistinguishable from one node holding the whole archive.
//!
//! * The differential matrix: the golden trace stored in both block
//!   codings (v3 row, v4 columnar), split 2 and 4 ways under both
//!   plan kinds, answers every predicate in the panel bit-identically
//!   to [`filter_stream`] *and* to the single-node store — including
//!   the decoded/skipped block accounting, so coordinator-side
//!   manifest pruning provably equals single-node pruning.
//! * Raw block fetches through the coordinator carry rewritten global
//!   offsets and rebuild the archive exactly, across shard seams.
//! * Failover: the victim shard's primary cuts its first response
//!   mid-frame (a node dying mid-query); the whole scatter unit is
//!   retried on the replica and the merged answer is still
//!   bit-identical — exactly-once rows, no duplicates, no gaps. A
//!   second query retakes the recovered primary.
//! * Typed shard errors are *forwarded*, never failed over: a shard
//!   answering with a store CRC mismatch surfaces upstream with its
//!   error code intact and the shard named — even when a clean
//!   replica is listed that could have masked the fault.
//!
//! * The wire differential: one scripted byte sequence — good
//!   requests, refused ones, a damaged body, an oversized length
//!   prefix, live-tail control frames — driven at a node and at a
//!   coordinator over the same archive draws byte-identical response
//!   frames and the same connection fate.
//! * Sixty-four concurrent clients against a coordinator: every
//!   answer bit-identical, `fabric.queries` exact, a clean shutdown.
//!
//! The `fabric.*` metric family is process-global, so tests that
//! assert on it serialize behind one mutex.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use common::{golden, metrics_lock, panel_stress, predicate_panel};
use systrace::fabric::{split_store, Coordinator, Manifest, PlanKind};
use systrace::serve::wire::{encode_request, err, read_frame, FrameRead, Request, MAX_FRAME};
use systrace::serve::{
    Catalog, Client, ClientCfg, ServeCfg, ServeError, ServeHooks, Server, WireFate,
};
use systrace::store::{filter_stream, BlockFormat, Predicate, TraceStore};

/// One `wrl-serve` node per block-owning shard, each publishing its
/// shard archive under the manifest's name for it.
fn spawn_shards(
    manifest: &Manifest,
    stores: Vec<TraceStore>,
) -> (Vec<Server>, Vec<Vec<SocketAddr>>) {
    let mut servers = Vec::new();
    let mut endpoints = Vec::new();
    for (entry, store) in manifest.shards.iter().zip(stores) {
        if entry.n_blocks == 0 {
            endpoints.push(Vec::new());
            continue;
        }
        let mut catalog = Catalog::new();
        catalog.add(entry.name.clone(), Arc::new(store));
        let srv = Server::start("127.0.0.1:0", catalog, ServeCfg::default())
            .expect("shard server starts");
        endpoints.push(vec![srv.addr()]);
        servers.push(srv);
    }
    (servers, endpoints)
}

#[test]
fn coordinator_is_bit_identical_to_single_node_across_shardings() {
    let _guard = metrics_lock();
    let a = golden();
    let n_words = a.words.len() as u64;
    for format in [BlockFormat::Row, BlockFormat::Columnar] {
        let single = TraceStore::from_archive_with(&a, 64, format);
        for kind in [PlanKind::BlockRange, PlanKind::AsidHash] {
            for n_shards in [2usize, 4] {
                let (manifest, stores) =
                    split_store(&single, "golden", n_shards, kind).expect("store splits");
                let (servers, endpoints) = spawn_shards(&manifest, stores);
                let coord =
                    Coordinator::start("127.0.0.1:0", manifest, endpoints, ClientCfg::default())
                        .expect("coordinator starts");
                let mut client = Client::connect(coord.addr()).expect("client connects");

                let rows = client.catalog().expect("catalog answers");
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].name, "golden");
                assert_eq!(rows[0].n_words, n_words);
                assert_eq!(rows[0].n_blocks as usize, single.n_blocks());

                for (i, pred) in predicate_panel(n_words).iter().enumerate() {
                    let expected = filter_stream(&a.words, pred);
                    let local = single.query(pred).expect("single-node query");
                    let q = client.query("golden", pred).unwrap_or_else(|e| {
                        panic!("{format:?}/{kind:?}/{n_shards} predicate {i}: {e}")
                    });
                    assert_eq!(
                        q.words, expected,
                        "{format:?}/{kind:?}/{n_shards} predicate {i}: \
                         scatter-gather differs from local filter"
                    );
                    assert_eq!(
                        q.blocks_decoded, local.blocks_decoded,
                        "{format:?}/{kind:?}/{n_shards} predicate {i}: \
                         fabric must decode exactly the single-node block set"
                    );
                    assert_eq!(
                        q.blocks_skipped, local.blocks_skipped,
                        "{format:?}/{kind:?}/{n_shards} predicate {i}: \
                         pruning accounting must match the single node"
                    );
                }
                coord.shutdown();
                for srv in servers {
                    srv.shutdown();
                }
            }
        }
    }
}

#[test]
fn fetched_blocks_through_the_coordinator_rebuild_the_archive() {
    let a = golden();
    let single = TraceStore::from_archive_with(&a, 128, BlockFormat::Columnar);
    let n_blocks = single.n_blocks() as u32;
    let (manifest, stores) =
        split_store(&single, "golden", 3, PlanKind::AsidHash).expect("store splits");
    let (servers, endpoints) = spawn_shards(&manifest, stores);
    let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, ClientCfg::default())
        .expect("coordinator starts");
    let mut client = Client::connect(coord.addr()).expect("client connects");

    // Fetch the whole store through the fabric: offsets must come
    // back rewritten to *global* word positions (shard stores are
    // re-tiled locally) and the payloads must CRC-verify and tile the
    // stream exactly, across every shard seam.
    let blocks = client.fetch("golden", 0, n_blocks).expect("fetch answers");
    assert_eq!(blocks.len() as u32, n_blocks);
    let mut words = Vec::new();
    let mut at = 0u64;
    for b in &blocks {
        assert_eq!(b.first_word, at, "global offsets tile the stream");
        at += u64::from(b.words);
        words.extend(b.decode().expect("block decompresses and CRC-verifies"));
    }
    assert_eq!(words, a.words, "fetched blocks rebuild the archive");

    // Out-of-range and unknown-archive requests stay typed errors.
    assert!(matches!(
        client.fetch("golden", n_blocks, 1),
        Err(ServeError::Remote { code, .. }) if code == err::BAD_REQUEST
    ));
    assert!(matches!(
        client.fetch("nope", 0, 1),
        Err(ServeError::Remote { code, .. }) if code == err::NO_SUCH_ARCHIVE
    ));
    coord.shutdown();
    for srv in servers {
        srv.shutdown();
    }
}

/// Tight timeouts so a cut connection fails over in milliseconds.
fn fast_fabric_cfg() -> ClientCfg {
    ClientCfg {
        read_timeout: Duration::from_millis(5),
        max_stalls: 100,
        ..ClientCfg::default()
    }
}

#[test]
fn shard_killed_mid_query_fails_over_with_exactly_once_rows() {
    let _guard = metrics_lock();
    let a = golden();
    let single = TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar);
    let (manifest, stores) =
        split_store(&single, "golden", 2, PlanKind::BlockRange).expect("store splits");
    let victim = 0usize;
    let scfg = ServeCfg {
        read_timeout: Duration::from_millis(5),
        max_stalls: 60,
        ..ServeCfg::default()
    };

    let mut servers = Vec::new();
    let mut endpoints: Vec<Vec<SocketAddr>> = Vec::new();
    for (s, store) in stores.into_iter().enumerate() {
        let store = Arc::new(store);
        let catalog_of = || {
            let mut c = Catalog::new();
            c.add(manifest.shards[s].name.clone(), Arc::clone(&store));
            c
        };
        let mut eps = Vec::new();
        if s == victim {
            // The primary dies mid-answer on its very first response:
            // the frame is cut partway through, after the shard has
            // already streamed some of the matching words.
            let hooks = ServeHooks::on_response(|seq| match seq {
                0 => WireFate::CutAfter { at: 0x9e37_79b9 },
                _ => WireFate::Deliver,
            });
            let primary = Server::start_with_hooks("127.0.0.1:0", catalog_of(), scfg, hooks)
                .expect("victim primary starts");
            eps.push(primary.addr());
            servers.push(primary);
        }
        let srv = Server::start("127.0.0.1:0", catalog_of(), scfg).expect("shard server starts");
        eps.push(srv.addr());
        servers.push(srv);
        endpoints.push(eps);
    }

    let obs = systrace::fabric::FabricObs::register();
    let failover_before = obs.failover.get();
    let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, fast_fabric_cfg())
        .expect("coordinator starts");
    let mut client = Client::connect_cfg(
        coord.addr(),
        ClientCfg {
            read_timeout: Duration::from_millis(5),
            max_stalls: 2000,
            ..ClientCfg::default()
        },
    )
    .expect("client connects");

    // The unfiltered query crosses the dying primary: the whole
    // scatter unit must be retried on the replica, so the merged
    // answer has every row exactly once despite the partial frame the
    // primary already sent.
    let expected = filter_stream(&a.words, &Predicate::default());
    let q = client
        .query("golden", &Predicate::default())
        .expect("query survives the mid-answer node loss");
    assert_eq!(q.words, expected, "failover duplicated or dropped rows");
    if systrace::obs::recording() {
        assert!(
            obs.failover.get() > failover_before,
            "the failover path must actually have run"
        );
    }

    // The primary only cut its first response; a fresh query walks
    // endpoints from the top again and retakes it.
    let q2 = client
        .query("golden", &Predicate::default())
        .expect("query after recovery");
    assert_eq!(
        q2.words, expected,
        "recovered fabric answers bit-identically"
    );

    coord.shutdown();
    for srv in servers {
        srv.shutdown();
    }
}

/// Flips one payload byte of an encoded store so that it still
/// *decodes* (the container meta-CRC covers header and index, not the
/// block payloads) but the damaged block fails its per-block CRC at
/// query time — the shard-side `store` error the fabric must forward.
fn corrupt_one_block(store: &TraceStore) -> TraceStore {
    let clean = store.encode();
    for at in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x40;
        if let Ok(s) = TraceStore::decode_any(&bytes) {
            if s.query(&Predicate::default()).is_err() {
                return s;
            }
        }
    }
    panic!("no payload byte flip produced a decodable-but-corrupt store");
}

#[test]
fn shard_side_typed_errors_forward_with_code_intact_and_no_failover() {
    let _guard = metrics_lock();
    let a = golden();
    let single = TraceStore::from_archive(&a, 64);
    let (manifest, stores) =
        split_store(&single, "golden", 2, PlanKind::BlockRange).expect("store splits");

    // Shard 0's primary serves a corrupted copy of its shard store; a
    // *clean* replica is listed right behind it. If the coordinator
    // (wrongly) treated the typed error as a node failure it would
    // fail over and mask the corruption — the query must instead
    // surface the shard's own error code with the shard named.
    let corrupt = corrupt_one_block(&stores[0]);
    let name0 = manifest.shards[0].name.clone();
    let mut bad_catalog = Catalog::new();
    bad_catalog.add(name0.clone(), Arc::new(corrupt));
    let bad = Server::start("127.0.0.1:0", bad_catalog, ServeCfg::default())
        .expect("corrupt shard server starts");
    let mut clean_catalog = Catalog::new();
    clean_catalog.add(name0.clone(), Arc::new(stores[0].clone()));
    let clean_replica = Server::start("127.0.0.1:0", clean_catalog, ServeCfg::default())
        .expect("clean replica starts");
    let mut catalog1 = Catalog::new();
    catalog1.add(manifest.shards[1].name.clone(), Arc::new(stores[1].clone()));
    let srv1 = Server::start("127.0.0.1:0", catalog1, ServeCfg::default()).expect("shard 1 starts");

    let obs = systrace::fabric::FabricObs::register();
    let failover_before = obs.failover.get();
    let remote_before = obs.remote_errors.get();
    let coord = Coordinator::start(
        "127.0.0.1:0",
        manifest.clone(),
        vec![vec![bad.addr(), clean_replica.addr()], vec![srv1.addr()]],
        ClientCfg::default(),
    )
    .expect("coordinator starts");
    let mut client = Client::connect(coord.addr()).expect("client connects");

    match client.query("golden", &Predicate::default()) {
        Err(ServeError::Remote { code, msg }) => {
            assert_eq!(
                code,
                err::STORE,
                "shard store error code must survive: {msg}"
            );
            assert!(
                msg.contains(&name0),
                "the failing shard must be named: {msg}"
            );
        }
        other => panic!("expected a forwarded shard store error, got {other:?}"),
    }
    if systrace::obs::recording() {
        assert_eq!(
            obs.failover.get(),
            failover_before,
            "a typed shard error must never trigger failover"
        );
        assert!(obs.remote_errors.get() > remote_before);
    }

    // A shard publishing the wrong archive name answers the fabric's
    // sub-request with `no_such_archive`; that too forwards verbatim.
    let mut misnamed = Catalog::new();
    misnamed.add("not-the-shard".to_string(), Arc::new(stores[0].clone()));
    let wrong =
        Server::start("127.0.0.1:0", misnamed, ServeCfg::default()).expect("misnamed shard starts");
    let coord2 = Coordinator::start(
        "127.0.0.1:0",
        manifest,
        vec![vec![wrong.addr()], vec![srv1.addr()]],
        ClientCfg::default(),
    )
    .expect("coordinator starts");
    let mut client2 = Client::connect(coord2.addr()).expect("client connects");
    match client2.query("golden", &Predicate::default()) {
        Err(ServeError::Remote { code, msg }) => {
            assert_eq!(code, err::NO_SUCH_ARCHIVE, "{msg}");
            assert!(msg.contains("shard"), "{msg}");
        }
        other => panic!("expected a forwarded no-such-archive error, got {other:?}"),
    }

    coord2.shutdown();
    coord.shutdown();
    for srv in [bad, clean_replica, srv1, wrong] {
        srv.shutdown();
    }
}

/// What became of a scripted connection once its last frame was
/// answered.
#[derive(Debug, PartialEq, Eq)]
enum Fate {
    /// Still in request/response service.
    Kept,
    /// Drained and closed by the server.
    Closed,
}

/// Writes each byte string of `script` to one fresh connection,
/// reading exactly one response frame after each, then probes the
/// connection with a catalog request to learn its fate.
fn drive(addr: SocketAddr, script: &[Vec<u8>]) -> (Vec<Vec<u8>>, Fate) {
    let mut stream = TcpStream::connect(addr).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout sets");
    let read = |stream: &mut TcpStream| match read_frame(stream, 0) {
        Ok(FrameRead::Frame(body)) => Some(body),
        Ok(FrameRead::Idle) => panic!("no answer within 10 s"),
        Ok(FrameRead::Eof) | Err(_) => None,
    };
    let mut answers = Vec::new();
    for bytes in script {
        stream.write_all(bytes).expect("scripted bytes write");
        answers.push(read(&mut stream).expect("every scripted frame is answered"));
    }
    let probe = encode_request(u64::MAX, &Request::Catalog);
    let fate = match stream
        .write_all(&probe)
        .ok()
        .and_then(|()| read(&mut stream))
    {
        Some(_) => Fate::Kept,
        None => Fate::Closed,
    };
    (answers, fate)
}

#[test]
fn a_node_and_a_coordinator_answer_one_byte_script_identically() {
    let _guard = metrics_lock();
    let a = golden();
    let single = Arc::new(TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar));
    let n_blocks = single.n_blocks() as u32;
    let (manifest, stores) =
        split_store(&single, "golden", 2, PlanKind::BlockRange).expect("store splits");
    let (servers, endpoints) = spawn_shards(&manifest, stores);
    let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, ClientCfg::default())
        .expect("coordinator starts");
    let mut catalog = Catalog::new();
    catalog.add("golden", Arc::clone(&single));
    let node = Server::start("127.0.0.1:0", catalog, ServeCfg::default()).expect("node starts");

    let fetch = |first_block, n_blocks| Request::Fetch {
        archive: "golden".into(),
        first_block,
        n_blocks,
    };
    let mid = a.words.len() as u64 / 2;
    let requests = [
        Request::Catalog,
        fetch(n_blocks / 2 - 2, 4), // in range, across the shard seam
        fetch(n_blocks, 1),         // out of range
        fetch(u32::MAX, u32::MAX),  // first_block + n_blocks overflows u32
        Request::Query {
            archive: "golden".into(),
            pred: Predicate {
                asid: Some(1),
                window: Some((mid / 2, mid + 500)),
            },
        },
        Request::Query {
            archive: "nope".into(),
            pred: Predicate::default(),
        },
        Request::Subscribe {
            archive: "golden".into(), // an archive, but no live feed
            pred: Predicate::default(),
            from_start: true,
        },
        Request::Unsubscribe, // while not subscribed
    ];
    let mut kept: Vec<Vec<u8>> = requests
        .iter()
        .zip(1u64..)
        .map(|(req, id)| encode_request(id, req))
        .collect();
    // Last on its connection: a body whose CRC field has one bit
    // flipped. The answer must echo the id bytes and the server must
    // drain and close, framing being no longer trustworthy.
    let mut damaged = encode_request(0x1122_3344_5566_7788, &Request::Catalog);
    *damaged.last_mut().unwrap() ^= 0x10;
    kept.push(damaged);
    // Alone on its connection: a length prefix over the frame cap.
    let oversized = vec![(MAX_FRAME as u32 + 1).to_le_bytes().to_vec()];

    for (what, script) in [("requests", &kept), ("oversized prefix", &oversized)] {
        let (node_answers, node_fate) = drive(node.addr(), script);
        let (coord_answers, coord_fate) = drive(coord.addr(), script);
        for (i, (n, c)) in node_answers.iter().zip(&coord_answers).enumerate() {
            assert_eq!(
                n, c,
                "{what}: frame {i} — the coordinator's answer differs from the node's"
            );
        }
        assert_eq!(
            node_fate, coord_fate,
            "{what}: the connection's fate differs"
        );
        assert_eq!(
            node_fate,
            Fate::Closed,
            "{what}: damaged framing must close"
        );
    }
    // The refusals above really are refusals, not two equal successes.
    let mut client = Client::connect(coord.addr()).expect("client connects");
    assert!(matches!(
        client.call(&Request::Unsubscribe),
        Err(ServeError::Remote { code, .. }) if code == err::BAD_REQUEST
    ));
    assert!(matches!(
        client.subscribe("golden", &Predicate::default(), true),
        Err(ServeError::Remote { code, .. }) if code == err::NO_SUCH_ARCHIVE
    ));

    coord.shutdown();
    node.shutdown();
    for srv in servers {
        srv.shutdown();
    }
}

#[test]
fn sixty_four_clients_against_a_coordinator_stay_bit_identical() {
    let _guard = metrics_lock();
    let a = golden();
    let single = TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar);
    let (manifest, stores) =
        split_store(&single, "golden", 2, PlanKind::BlockRange).expect("store splits");
    let (servers, endpoints) = spawn_shards(&manifest, stores);
    let obs = systrace::fabric::FabricObs::register();
    let queries_before = obs.queries.get();
    let coord = Coordinator::start("127.0.0.1:0", manifest, endpoints, ClientCfg::default())
        .expect("coordinator starts");

    // The herd swamps the coordinator's admission gate; a refused
    // request never reaches the scatter, so every query sent is
    // coordinated exactly once however often its client had to retry.
    let (n_clients, rounds) = (64, 6);
    panel_stress(coord.addr(), &a.words, n_clients, rounds);
    if systrace::obs::recording() {
        assert_eq!(
            obs.queries.get() - queries_before,
            (n_clients * rounds) as u64,
            "fabric.queries must count every query once"
        );
    }

    // Joins the reactor's event and executor threads, panicking if
    // any of them did.
    coord.shutdown();
    for srv in servers {
        srv.shutdown();
    }
}
