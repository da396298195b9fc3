//! Deterministic live-tail subscription tests, in two tiers.
//!
//! * **FSM tier** — the `Subscribed` connection state driven
//!   byte-by-byte through a scripted [`Transport`]: no sockets, no
//!   threads, no timing. A subscribe frame fragmented one byte per
//!   readability event, an `EVENT` push landing while an unsubscribe
//!   is mid-read, slow-consumer refusal at *exactly* the queue bound,
//!   and a connection returning to ordinary request service after
//!   unsubscribing.
//! * **Loopback tier** — the correctness bar from the wire spec: the
//!   concatenation of every `EVENT` a subscriber receives must be
//!   bit-identical to [`filter_stream`] over the same words and
//!   predicate, regardless of *when* it subscribed. 1, 4 and 16
//!   subscribers, the full predicate panel, joins at start-of-stream
//!   and mid-run, both `from_start` semantics — plus a deliberately
//!   stalled reader evicted at the documented `sub_queue` bound with
//!   the typed `SLOW_CONSUMER` error, and the `sub_retention` word
//!   bound evicting exactly at the bound with the typed
//!   `RETENTION_EVICTED` refusal for stale `from_start` joins.
//!
//! The `serve.*` metric family is process-global, so the test that
//! asserts on it serializes behind one mutex.

mod common;

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Barrier};

use common::{connect_patiently, golden, metrics_lock, predicate_panel};
use systrace::serve::wire::{self, Request, Response};
use systrace::serve::{
    Catalog, Client, Conn, ConnState, IoTally, ServeCfg, ServeError, Server, TailItem, Transport,
    WriteShape,
};
use systrace::store::{filter_stream, Predicate, TraceStore};

// ---------------------------------------------------------------- FSM

/// One scripted read result.
enum ReadStep {
    Give(Vec<u8>),
    Block,
}

/// One scripted write-acceptance result.
enum WriteStep {
    Block,
}

/// A transport whose reads and writes are scripted in advance. Reads
/// past the script end block; writes past the script end accept
/// everything. Everything written is captured for byte-exact asserts.
#[derive(Default)]
struct Scripted {
    reads: VecDeque<ReadStep>,
    writes: VecDeque<WriteStep>,
    written: Vec<u8>,
    severed: bool,
}

impl Scripted {
    fn new() -> Scripted {
        Scripted::default()
    }

    /// Queues `bytes` split into `step`-sized fragments with a
    /// `WouldBlock` after each, so every fragment is its own
    /// readability event.
    fn read_fragmented(mut self, bytes: &[u8], step: usize) -> Scripted {
        for chunk in bytes.chunks(step) {
            self.reads.push_back(ReadStep::Give(chunk.to_vec()));
            self.reads.push_back(ReadStep::Block);
        }
        self
    }

    fn read_chunk(mut self, bytes: &[u8]) -> Scripted {
        self.reads.push_back(ReadStep::Give(bytes.to_vec()));
        self
    }

    fn read_block(mut self) -> Scripted {
        self.reads.push_back(ReadStep::Block);
        self
    }

    fn write_blocks(mut self, n: usize) -> Scripted {
        for _ in 0..n {
            self.writes.push_back(WriteStep::Block);
        }
        self
    }
}

impl Transport for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.reads.pop_front() {
            None | Some(ReadStep::Block) => Err(io::ErrorKind::WouldBlock.into()),
            Some(ReadStep::Give(bytes)) => {
                assert!(bytes.len() <= buf.len(), "script fragment exceeds read buf");
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.writes.pop_front() {
            None => {
                self.written.extend_from_slice(buf);
                Ok(buf.len())
            }
            Some(WriteStep::Block) => Err(io::ErrorKind::WouldBlock.into()),
        }
    }

    fn sever(&mut self) {
        self.severed = true;
    }
}

fn subscribe_frame(req_id: u64, from_start: bool) -> Vec<u8> {
    wire::encode_request(
        req_id,
        &Request::Subscribe {
            archive: "golden".into(),
            pred: Predicate::default(),
            from_start,
        },
    )
}

fn event_frame(req_id: u64, seq: u64, words: Vec<u32>) -> Vec<u8> {
    wire::encode_response(req_id, &Response::Event { seq, words })
}

/// Drives readability events until the script is exhausted or a frame
/// buffers.
fn read_until_settled(conn: &mut Conn<Scripted>, tally: &mut IoTally) {
    for _ in 0..512 {
        if !conn.wants_read() || conn.has_frame() {
            break;
        }
        conn.on_readable(tally);
    }
}

/// Flushes the out queue through however many blocked and accepting
/// writability events the script dictates.
fn flush_until_settled(conn: &mut Conn<Scripted>, tally: &mut IoTally) {
    for _ in 0..512 {
        if !conn.wants_write() {
            break;
        }
        conn.on_writable(tally);
    }
}

#[test]
fn a_subscribe_frame_fragmented_one_byte_at_a_time_reaches_subscribed() {
    let frame = subscribe_frame(9, true);
    let t = Scripted::new().read_fragmented(&frame, 1);
    let mut conn = Conn::new(t, 100, 100);
    let mut tally = IoTally::default();

    read_until_settled(&mut conn, &mut tally);
    assert!(conn.has_frame(), "all fragments in → one buffered frame");
    let body = conn.take_frame().expect("frame buffered");
    let (req_id, req) = wire::decode_request(&body).expect("body decodes");
    assert_eq!(req_id, 9);
    assert!(matches!(
        req,
        Request::Subscribe {
            from_start: true,
            ..
        }
    ));

    // The event thread attaches the subscription and acks, exactly as
    // `subscribe_inline` does.
    conn.mark_subscribed();
    assert_eq!(conn.state(), ConnState::Subscribed);
    let ack = wire::encode_response(9, &Response::Subscribed);
    conn.enqueue(ack.clone(), WriteShape::default(), false);
    assert_eq!(
        conn.state(),
        ConnState::Subscribed,
        "enqueue must not knock a subscriber into Writing"
    );
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.transport().written, ack);
    assert_eq!(
        conn.state(),
        ConnState::Subscribed,
        "an empty out queue parks in Subscribed, not Reading"
    );
    assert!(
        conn.wants_read(),
        "a subscriber keeps read interest for its unsubscribe"
    );
    assert!(!conn.transport().severed);
}

#[test]
fn an_event_push_lands_while_an_unsubscribe_is_mid_read() {
    let unsub = wire::encode_request(10, &Request::Unsubscribe);
    // Three bytes of the unsubscribe, a block, then the rest — the
    // push arrives in the gap.
    let t = Scripted::new()
        .read_chunk(&unsub[..3])
        .read_block()
        .read_chunk(&unsub[3..]);
    let mut conn = Conn::new(t, 100, 100);
    let mut tally = IoTally::default();
    conn.mark_subscribed();

    conn.on_readable(&mut tally);
    assert_eq!(conn.state(), ConnState::Subscribed);
    assert!(!conn.has_frame(), "unsubscribe still mid-frame");

    let ev = event_frame(9, 0, vec![1, 2, 3]);
    assert!(
        conn.try_push(ev.clone(), WriteShape::default(), 4),
        "push admitted under the bound"
    );
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.transport().written, ev, "push flushed mid-read");
    assert_eq!(conn.state(), ConnState::Subscribed);

    read_until_settled(&mut conn, &mut tally);
    let body = conn.take_frame().expect("unsubscribe assembled");
    assert_eq!(
        conn.state(),
        ConnState::Subscribed,
        "take_frame on a subscriber stays in Subscribed (handled inline)"
    );
    assert!(matches!(
        wire::decode_request(&body).expect("decodes").1,
        Request::Unsubscribe
    ));

    let ack = wire::encode_response(10, &Response::Unsubscribed);
    conn.enqueue(ack.clone(), WriteShape::default(), false);
    conn.mark_unsubscribed();
    assert_eq!(
        conn.state(),
        ConnState::Writing,
        "detach with bytes pending flushes through Writing"
    );
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.state(), ConnState::Reading);
    let both: Vec<u8> = ev.iter().chain(ack.iter()).copied().collect();
    assert_eq!(conn.transport().written, both, "push precedes the ack");
}

#[test]
fn a_slow_consumer_is_refused_at_exactly_the_queue_bound() {
    // A peer that never drains: every frame stays queued.
    let t = Scripted::new().write_blocks(512);
    let mut conn = Conn::new(t, 100, 100);
    let mut tally = IoTally::default();
    conn.mark_subscribed();

    let bound = 4usize;
    for i in 0..bound {
        assert!(
            conn.try_push(
                event_frame(9, i as u64, vec![i as u32]),
                WriteShape::default(),
                bound
            ),
            "push {i} of {bound} must be admitted"
        );
        conn.on_writable(&mut tally); // blocked: nothing drains
    }
    assert_eq!(conn.out_depth(), bound);
    assert!(
        !conn.try_push(event_frame(9, 99, vec![99]), WriteShape::default(), bound),
        "the push that would exceed the bound is refused — not one earlier"
    );
    assert_eq!(
        conn.out_depth(),
        bound,
        "a refused push must not grow the queue"
    );

    // The server then evicts: typed error, drain, close.
    let err = wire::encode_response(
        9,
        &Response::Error {
            code: wire::err::SLOW_CONSUMER,
            msg: "evicted: 4 frames queued at bound 4".into(),
        },
    );
    conn.enqueue(err, WriteShape::default(), false);
    conn.begin_drain();
    assert_eq!(conn.state(), ConnState::Draining);
    assert!(
        !conn.wants_read(),
        "an evicted subscriber reads nothing more"
    );
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.state(), ConnState::Closed, "drained and closed");
}

#[test]
fn an_unsubscribed_connection_serves_ordinary_requests_again() {
    let unsub = wire::encode_request(11, &Request::Unsubscribe);
    let query = wire::encode_request(12, &Request::Catalog);
    let t = Scripted::new().read_chunk(&unsub).read_chunk(&query);
    let mut conn = Conn::new(t, 100, 100);
    let mut tally = IoTally::default();
    conn.mark_subscribed();

    read_until_settled(&mut conn, &mut tally);
    let body = conn.take_frame().expect("unsubscribe frame");
    assert!(matches!(
        wire::decode_request(&body).expect("decodes").1,
        Request::Unsubscribe
    ));
    let ack = wire::encode_response(11, &Response::Unsubscribed);
    conn.enqueue(ack.clone(), WriteShape::default(), false);
    conn.mark_unsubscribed();
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.state(), ConnState::Reading, "back to request service");

    // The very same connection now carries a normal request/response
    // cycle — subscription left no residue.
    read_until_settled(&mut conn, &mut tally);
    let body = conn.take_frame().expect("catalog frame");
    assert_eq!(conn.state(), ConnState::Dispatching, "ordinary dispatch");
    assert!(matches!(
        wire::decode_request(&body).expect("decodes").1,
        Request::Catalog
    ));
    let resp = wire::encode_response(12, &Response::Busy);
    conn.enqueue(resp.clone(), WriteShape::default(), false);
    flush_until_settled(&mut conn, &mut tally);
    assert_eq!(conn.state(), ConnState::Reading);
    let all: Vec<u8> = ack.iter().chain(resp.iter()).copied().collect();
    assert_eq!(conn.transport().written, all);
}

// ----------------------------------------------------------- loopback

/// Drains a tail to its end-of-feed marker, asserting `seq`
/// continuity, and returns the offset of the first pushed word (if
/// any event arrived) plus the concatenated words.
fn collect_tail(c: &mut Client, tag: &str) -> (Option<u64>, Vec<u32>) {
    let mut first = None;
    let mut words: Vec<u32> = Vec::new();
    loop {
        match c.next_event() {
            Ok(TailItem::Event { seq, words: w }) => {
                let start = *first.get_or_insert(seq);
                assert_eq!(
                    seq,
                    start + words.len() as u64,
                    "{tag}: EVENT seq must advance by exactly the words delivered"
                );
                words.extend(w);
            }
            Ok(TailItem::End) => return (first, words),
            Err(e) => panic!("{tag}: tail failed before its end marker: {e}"),
        }
    }
}

/// The differential: `n_subs` subscribers joining at start-of-stream
/// and `n_subs` joining mid-run, cycling the predicate panel and both
/// `from_start` semantics, every tail compared against
/// [`filter_stream`] over the same words and predicate.
fn run_differential(n_subs: usize) {
    let a = golden();
    let n_words = a.words.len() as u64;
    let panel = predicate_panel(n_words);
    let expected: Vec<Vec<u32>> = panel.iter().map(|p| filter_stream(&a.words, p)).collect();
    let server =
        Server::start("127.0.0.1:0", Catalog::new(), ServeCfg::default()).expect("server starts");
    let feed = server.live_feed("golden");
    let addr = server.addr();

    let half = a.words.len() / 2;
    // Two rendezvous points: all start-joiners subscribed before the
    // first word is published, all mid-joiners subscribed after
    // exactly `half` words.
    let at_start = Barrier::new(n_subs + 1);
    let at_mid = Barrier::new(n_subs + 1);

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..n_subs {
            // Start-of-stream joiners: with nothing published yet the
            // two join semantics must be indistinguishable — exercise
            // both opcodes anyway.
            let (panel, expected, at_start) = (&panel, &expected, &at_start);
            handles.push(s.spawn(move || {
                let which = i % panel.len();
                let from_start = i % 2 == 0;
                let tag = format!("start-joiner {i} (pred {which}, from_start={from_start})");
                let mut c = connect_patiently(addr);
                c.subscribe("golden", &panel[which], from_start)
                    .unwrap_or_else(|e| panic!("{tag}: subscribe: {e}"));
                at_start.wait();
                let (first, words) = collect_tail(&mut c, &tag);
                assert_eq!(
                    words, expected[which],
                    "{tag}: tail differs from filter_stream"
                );
                if !words.is_empty() {
                    assert_eq!(first, Some(0), "{tag}: a start joiner's tail begins at 0");
                }
            }));
        }
        for i in 0..n_subs {
            let (panel, expected, at_mid) = (&panel, &expected, &at_mid);
            handles.push(s.spawn(move || {
                let which = i % panel.len();
                let from_start = i % 2 == 1;
                let tag = format!("mid-joiner {i} (pred {which}, from_start={from_start})");
                at_mid.wait();
                let mut c = connect_patiently(addr);
                c.subscribe("golden", &panel[which], from_start)
                    .unwrap_or_else(|e| panic!("{tag}: subscribe: {e}"));
                let (first, words) = collect_tail(&mut c, &tag);
                if from_start {
                    // Late joiners asking for history get the whole
                    // filtered stream, bit-identical.
                    assert_eq!(
                        words, expected[which],
                        "{tag}: from-start tail differs from filter_stream"
                    );
                } else {
                    // From-now joiners get an exact suffix: the first
                    // EVENT's seq locates it in the filtered stream.
                    match first {
                        Some(f) => assert_eq!(
                            words,
                            expected[which][f as usize..],
                            "{tag}: from-now tail is not a suffix of filter_stream"
                        ),
                        None => assert!(words.is_empty(), "{tag}: words arrived without an EVENT"),
                    }
                }
            }));
        }

        // The publisher: first half, rendezvous, second half, finish —
        // in small chunks so pushes interleave with catch-ups.
        at_start.wait();
        for chunk in a.words[..half].chunks(1024) {
            feed.publish(chunk);
        }
        // The mid-joiners subscribe only after this rendezvous, so
        // their history is at least the first half. (The publisher
        // pauses; `half` is a lower bound on what they see as
        // history, and the differential holds at any boundary.)
        at_mid.wait();
        for chunk in a.words[half..].chunks(1024) {
            feed.publish(chunk);
        }
        feed.finish();

        for h in handles {
            h.join().expect("subscriber panicked");
        }
    });
    server.shutdown();
}

#[test]
fn one_subscriber_tails_bit_identically_to_filter_stream() {
    run_differential(1);
}

#[test]
fn four_subscribers_tail_bit_identically_to_filter_stream() {
    run_differential(4);
}

#[test]
fn sixteen_subscribers_tail_bit_identically_to_filter_stream() {
    run_differential(16);
}

#[test]
fn a_finished_feed_serves_history_to_late_joiners_and_ends_immediately() {
    let a = golden();
    let server =
        Server::start("127.0.0.1:0", Catalog::new(), ServeCfg::default()).expect("server starts");
    let feed = server.live_feed("golden");
    feed.publish(&a.words);
    feed.finish();

    let pred = Predicate::default();
    let expected = filter_stream(&a.words, &pred);

    // From-start after the end: the whole history, then the marker.
    let mut c = connect_patiently(server.addr());
    c.subscribe("golden", &pred, true).expect("subscribe");
    let (first, words) = collect_tail(&mut c, "late from-start");
    assert_eq!(first, Some(0));
    assert_eq!(words, expected, "late from-start join replays everything");

    // From-now after the end: nothing but the marker.
    let mut c = connect_patiently(server.addr());
    c.subscribe("golden", &pred, false).expect("subscribe");
    let (first, words) = collect_tail(&mut c, "late from-now");
    assert_eq!(first, None, "nothing published after a from-now join");
    assert!(words.is_empty());

    // Unknown feeds are a typed error, not a hang.
    let mut c = connect_patiently(server.addr());
    match c.subscribe("nope", &pred, true) {
        Err(ServeError::Remote { code, msg }) => {
            assert_eq!(code, wire::err::NO_SUCH_ARCHIVE, "{msg}");
            assert!(msg.contains("nope"), "error names the feed: {msg}");
        }
        other => panic!("subscribing to a missing feed gave {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_from_now_asid_subscriber_joining_mid_feed_starts_at_the_filtered_history_length() {
    let a = golden();
    let half = a.words.len() / 2;
    // Once with all the history retained, once with most of it
    // evicted before the join (the offset then counts only what the
    // feed still holds — the documented from-now semantics).
    for sub_retention in [ServeCfg::default().sub_retention, 1500] {
        let cfg = ServeCfg {
            sub_retention,
            ..ServeCfg::default()
        };
        let server = Server::start("127.0.0.1:0", Catalog::new(), cfg).expect("server starts");
        let feed = server.live_feed("golden");
        // History arrives in pieces, so its ASID contexts span
        // publishes (and evictions).
        for chunk in a.words[..half].chunks(1000) {
            feed.publish(chunk);
        }
        let held_from = half.saturating_sub(sub_retention) as u64;
        let panel: Vec<Predicate> = predicate_panel(a.words.len() as u64)
            .into_iter()
            .filter(|p| p.asid.is_some())
            .collect();
        let mut tails: Vec<Client> = panel
            .iter()
            .map(|pred| {
                let mut c = connect_patiently(server.addr());
                c.subscribe("golden", pred, false).expect("subscribe");
                c
            })
            .collect();
        for chunk in a.words[half..].chunks(1000) {
            feed.publish(chunk);
        }
        feed.finish();

        let mut bit = 0;
        for (pred, c) in panel.iter().zip(&mut tails) {
            let tag = format!("retention {sub_retention}, {pred:?}");
            // What the subscriber skipped, judged as `filter_stream`
            // judges: all the history, and the part still held.
            let history = filter_stream(&a.words[..half], pred);
            let (lo, hi) = pred.window.unwrap_or((0, u64::MAX));
            let still_held = Predicate {
                window: Some((lo.max(held_from), hi)),
                ..*pred
            };
            let held = filter_stream(&a.words[..half], &still_held).len();
            let (first, words) = collect_tail(c, &tag);
            assert_eq!(
                words,
                filter_stream(&a.words, pred)[history.len()..],
                "{tag}"
            );
            if !words.is_empty() {
                assert_eq!(first, Some(held as u64), "{tag}");
                bit += usize::from(held > 0);
            }
        }
        assert!(bit > 0, "no predicate had both held history and a tail");
        server.shutdown();
    }
}

#[test]
fn a_deliberately_stalled_reader_is_evicted_at_the_sub_queue_bound() {
    let _guard = metrics_lock();
    // A tiny queue bound and fat events: the stalled reader's socket
    // buffers fill, frames back up in its out queue, and the push
    // that would make `sub_queue` + 1 evicts it.
    let cfg = ServeCfg {
        sub_queue: 2,
        ..ServeCfg::default()
    };
    let server = Server::start("127.0.0.1:0", Catalog::new(), cfg).expect("server starts");
    let obs = server.obs().clone();
    let evicted_before = obs.sub_evicted.get();
    let feed = server.live_feed("firehose");

    let mut stalled = connect_patiently(server.addr());
    stalled
        .subscribe("firehose", &Predicate::default(), true)
        .expect("subscribe");

    // Publish until the eviction metric moves: each publish is two
    // SUB_CHUNK-sized EVENT frames (~64 KiB) the reader never drains.
    let burst: Vec<u32> = (0..16_384u32).collect();
    let mut rounds = 0usize;
    while obs.sub_evicted.get() == evicted_before {
        feed.publish(&burst);
        rounds += 1;
        assert!(
            rounds <= 4096,
            "no eviction after {rounds} undrained bursts at sub_queue=2"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert_eq!(
        obs.sub_evicted.get(),
        evicted_before + 1,
        "exactly one subscriber evicted"
    );

    // The stalled reader now drains what was queued ahead of the
    // eviction and must then hit the typed SLOW_CONSUMER error.
    let verdict = loop {
        match stalled.next_event() {
            Ok(TailItem::Event { .. }) => continue,
            Ok(TailItem::End) => break Err("the feed never finished, yet an end marker arrived"),
            Err(ServeError::Remote { code, msg }) if code == wire::err::SLOW_CONSUMER => {
                assert!(msg.contains("evicted"), "self-identifying eviction: {msg}");
                break Ok(());
            }
            Err(e) => {
                break Err(
                    Box::leak(format!("wrong eviction error: {e}").into_boxed_str())
                        as &'static str,
                )
            }
        }
    };
    verdict.unwrap_or_else(|why| panic!("{why}"));

    // The server sheds the slow consumer and keeps serving: a fresh
    // from-now subscriber attaches and tails cleanly.
    feed.finish();
    let mut fresh = connect_patiently(server.addr());
    fresh
        .subscribe("firehose", &Predicate::default(), false)
        .expect("fresh subscribe after an eviction");
    let (_, words) = collect_tail(&mut fresh, "post-eviction probe");
    assert!(
        words.is_empty(),
        "a from-now join after finish sees only the marker"
    );
    server.shutdown();
}

#[test]
fn the_retention_bound_evicts_exactly_at_the_bound_and_refuses_stale_replays() {
    let _guard = metrics_lock();
    let a = golden();
    assert!(a.words.len() >= 8192, "golden trace shrank under the test");
    let cfg = ServeCfg {
        sub_retention: 4096,
        ..ServeCfg::default()
    };
    let server = Server::start("127.0.0.1:0", Catalog::new(), cfg).expect("server starts");
    let obs = server.obs().clone();
    let evicted_before = obs.sub_retention_evicted.get();
    let feed = server.live_feed("bounded");

    // A subscriber attached before any eviction: its cursor is pumped
    // to the head under the same lock each publish holds, so the
    // evictions behind it must never cost it a word.
    let mut tail = connect_patiently(server.addr());
    tail.subscribe("bounded", &Predicate::default(), true)
        .expect("subscribe before eviction");

    // Exactly at the bound: nothing is evicted.
    feed.publish(&a.words[..4096]);
    assert_eq!(
        obs.sub_retention_evicted.get(),
        evicted_before,
        "a feed filled to exactly sub_retention evicts nothing"
    );

    // One word past the bound evicts exactly one word...
    feed.publish(&a.words[4096..4097]);
    assert_eq!(
        obs.sub_retention_evicted.get(),
        evicted_before + 1,
        "one word past the bound evicts exactly the overflow"
    );

    // ...and further publishes track the overflow word-for-word.
    feed.publish(&a.words[4097..8192]);
    assert_eq!(
        obs.sub_retention_evicted.get(),
        evicted_before + 4096,
        "eviction count equals total words published past the bound"
    );

    // A from-start join now refuses with the typed error instead of
    // shipping a silently truncated replay.
    let mut stale = connect_patiently(server.addr());
    match stale.subscribe("bounded", &Predicate::default(), true) {
        Err(ServeError::Remote { code, msg }) => {
            assert_eq!(code, wire::err::RETENTION_EVICTED, "{msg}");
            assert!(msg.contains("bounded"), "error names the feed: {msg}");
        }
        other => panic!("from-start after eviction gave {other:?}"),
    }

    // A from-now join still attaches cleanly.
    let mut fresh = connect_patiently(server.addr());
    fresh
        .subscribe("bounded", &Predicate::default(), false)
        .expect("from-now subscribe after eviction");

    feed.finish();
    let (first, words) = collect_tail(&mut tail, "tail spanning evictions");
    assert_eq!(first, Some(0));
    assert_eq!(
        words,
        filter_stream(&a.words, &Predicate::default()),
        "an attached tail is bit-identical across evictions behind it"
    );
    let (_, words) = collect_tail(&mut fresh, "post-eviction from-now");
    assert!(
        words.is_empty(),
        "nothing published after the from-now join"
    );
    server.shutdown();

    // A zero bound is a bound of one word: the second word published
    // evicts the first, and a from-start join is refused.
    let cfg = ServeCfg {
        sub_retention: 0,
        ..ServeCfg::default()
    };
    let server = Server::start("127.0.0.1:0", Catalog::new(), cfg).expect("server starts");
    let evicted_before = obs.sub_retention_evicted.get();
    let feed = server.live_feed("bounded");
    feed.publish(&a.words[..2]);
    assert_eq!(obs.sub_retention_evicted.get(), evicted_before + 1);
    let mut stale = connect_patiently(server.addr());
    match stale.subscribe("bounded", &Predicate::default(), true) {
        Err(ServeError::Remote { code, msg }) => {
            assert_eq!(code, wire::err::RETENTION_EVICTED, "{msg}")
        }
        other => panic!("from-start under a zero bound gave {other:?}"),
    }
    feed.finish();
    server.shutdown();
}

#[test]
fn a_subscribed_connection_refuses_queries_until_it_unsubscribes() {
    let a = golden();
    let mut catalog = Catalog::new();
    catalog.add("golden-store", Arc::new(TraceStore::from_archive(&a, 512)));
    let server = Server::start("127.0.0.1:0", catalog, ServeCfg::default()).expect("server starts");
    let feed = server.live_feed("golden");
    feed.publish(&a.words[..64]);

    let mut c = connect_patiently(server.addr());
    c.subscribe("golden", &Predicate::default(), true)
        .expect("subscribe");
    // The client guards double-subscription locally.
    assert!(matches!(
        c.subscribe("golden", &Predicate::default(), true),
        Err(ServeError::BadReply(_))
    ));
    c.unsubscribe()
        .expect("unsubscribe discards pending events");

    // The same connection is a query connection again — and the
    // answer is bit-identical to the local filter.
    let pred = Predicate::default();
    let q = c
        .query("golden-store", &pred)
        .expect("query after unsubscribe");
    assert_eq!(q.words, filter_stream(&a.words, &pred));
    feed.finish();
    server.shutdown();
}
