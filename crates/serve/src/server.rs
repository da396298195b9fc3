//! The trace-query server: a nonblocking readiness reactor.
//!
//! Shape, in order of what a request meets:
//!
//! * **Event loops** — `event_threads` threads, each running a
//!   [`crate::reactor::Poller`] over its share of the nonblocking
//!   connections (thread 0 also polls the listener and deals new
//!   connections round-robin). A readiness event drives that
//!   connection's state machine ([`crate::conn::Conn`]): Reading a
//!   frame → Dispatching → Writing the response → back to Reading, or
//!   Draining on shutdown and wire errors. Partial reads and writes
//!   at arbitrary byte boundaries are the normal case, not an error;
//!   the `serve.reactor.*` counters record how often they happen.
//! * **Admission gate** — a max-inflight counter, checked on the
//!   event thread the moment a request frame completes. A request
//!   arriving while `max_inflight` requests are executing is answered
//!   `Busy` immediately instead of queueing unboundedly; the client
//!   retries. This bounds memory and keeps latency honest under
//!   overload (the `serve.inflight` high-water mark records the
//!   deepest it got).
//! * **Execution** — an admitted request is answered right there on
//!   the event thread when the frame cap or the archive's block cache
//!   bounds its work: the catalog, a metrics snapshot
//!   (`wrl-obs-metrics/v1`, which the server answers itself), a block
//!   fetch, a query whose window fits that archive's cache. Only a
//!   scan — a query with no window, or one wider than the cache —
//!   hops to a small executor pool (`exec_workers` threads, at least
//!   one), so it never wedges an event loop; its finished frame comes
//!   back to the owning event thread through a completion inbox and a
//!   waker. Both paths answer through one function, from the
//!   catalog's stores (see [`crate::backend`]).
//! * **Stall budgets** — instead of per-socket kernel timeouts, the
//!   event loop ticks every `read_timeout` and charges a stall to any
//!   connection that is mid-frame without read progress, or has an
//!   undrained response without write progress. Over budget
//!   (`max_stalls` reads; `write_timeout / read_timeout` writes) the
//!   peer is severed — no peer pins reactor state forever. Idle
//!   connections *between* frames are never charged.
//! * **Graceful shutdown** — [`Server::shutdown`] wakes every event
//!   loop; reading connections drain and close, ones whose scan is on
//!   the pool get their response executed, enqueued and flushed, and
//!   the threads join once every connection is reaped. No admitted
//!   request is abandoned mid-execution.
//!
//! [`ServeHooks`] is the fault-injection seam (mirroring the driver's
//! `SeamHooks`): the chaos campaign corrupts, truncates,
//! trickles or mid-frame-stalls encoded response frames right before
//! the socket write, and the client side must classify every
//! corrupting fault as a typed error — never a wrong answer, §4.3
//! carried over the wire — while the merely-slow shapes must still
//! deliver bit-identical answers.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::{Catalog, CatalogBackend};
use crate::conn::{Conn, ConnState, IoTally, ReadEvent, TickVerdict, WriteShape};
use crate::obs::ServeObs;
use crate::reactor::{Interest, Poller, Ready, Waker, MAX_POLLED};
use crate::wire::{self, err, Request, Response, MAX_FRAME};

/// Server shape parameters. Every value is a size with one meaning:
/// a zero is floored to the smallest size that still does the job
/// (one thread, one cached block), never a switch that turns a
/// mechanism off.
#[derive(Clone, Copy, Debug)]
pub struct ServeCfg {
    /// Requests allowed to execute at once; the gate answers `Busy`
    /// past this.
    pub max_inflight: usize,
    /// Reactor tick period: the poll-wait bound, the stall-charging
    /// interval, and the shutdown-notice latency.
    pub read_timeout: Duration,
    /// Total time a peer may sit on an undrained response before
    /// being severed (charged in ticks of `read_timeout`).
    pub write_timeout: Duration,
    /// Mid-frame read-stall ticks tolerated before a peer is cut off
    /// (total stall bound ≈ `max_stalls × read_timeout`).
    pub max_stalls: u32,
    /// Worker threads for one scan's parallel block decode; `1` runs
    /// the query sequentially in place, with no per-request spawns.
    pub query_workers: usize,
    /// Event-loop threads multiplexing the connections (floored to 1).
    pub event_threads: usize,
    /// Threads running scans: queries with no window or one wider
    /// than the archive's cache (floored to 1).
    pub exec_workers: usize,
    /// Decoded-word bytes cached per archive for the windows that fit:
    /// the slot count is this over the archive's block bytes, clamped
    /// to 1..=its block count, so every served archive caches at
    /// least one block.
    pub query_cache_bytes: usize,
}

impl Default for ServeCfg {
    /// The same shape on every host: two event threads, two
    /// executors and two query workers, whatever the core count.
    fn default() -> ServeCfg {
        ServeCfg {
            max_inflight: 16,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            max_stalls: 100,
            query_workers: 2,
            event_threads: 2,
            exec_workers: 2,
            query_cache_bytes: 32 << 20,
        }
    }
}

/// What the fault seam does to one encoded response frame.
#[derive(Clone, Copy, Debug)]
pub enum WireFate {
    /// Write the frame as encoded.
    Deliver,
    /// Flip one bit (`at` is reduced modulo the frame length) before
    /// writing — at-rest frame corruption.
    FlipBit {
        /// Byte position selector.
        at: u64,
        /// Bit within the byte (reduced modulo 8).
        bit: u8,
    },
    /// Write only the first `at % len` bytes, then sever the
    /// connection — a mid-response drop.
    CutAfter {
        /// Cut position selector.
        at: u64,
    },
    /// Deliver the whole frame, but at most `chunk` bytes per
    /// writability event — a short-write storm (`wire.partial`). The
    /// client must still get a bit-identical answer.
    Trickle {
        /// Byte cap per writability event (floored to 1).
        chunk: usize,
    },
    /// Deliver the whole frame, but pause `ticks` reactor ticks after
    /// `at % len` bytes are out — a mid-frame stall (`wire.stall`).
    /// The client must still get a bit-identical answer.
    StallMid {
        /// Pause position selector (reduced modulo the frame length).
        at: u64,
        /// Reactor ticks to pause (one-shot).
        ticks: u32,
    },
}

/// Deterministic fault-injection hooks, consulted once per response
/// frame with a server-global response sequence number. Production
/// servers use the default (deliver everything); the `wrl-fault`
/// chaos campaign is the only other caller.
#[derive(Clone, Default)]
pub struct ServeHooks {
    response: Option<Arc<dyn Fn(u64) -> WireFate + Send + Sync>>,
}

impl ServeHooks {
    /// Hooks that consult `f` with the response sequence number for
    /// every response about to be written.
    pub fn on_response(f: impl Fn(u64) -> WireFate + Send + Sync + 'static) -> ServeHooks {
        ServeHooks {
            response: Some(Arc::new(f)),
        }
    }

    fn fate(&self, seq: u64) -> WireFate {
        match &self.response {
            None => WireFate::Deliver,
            Some(f) => f(seq),
        }
    }
}

struct Shared {
    backend: CatalogBackend,
    cfg: ServeCfg,
    obs: ServeObs,
    hooks: ServeHooks,
    /// The admission gate proper — a plain atomic, not the obs gauge,
    /// so admission works identically in no-record builds.
    inflight: AtomicUsize,
    resp_seq: AtomicU64,
    shutdown: AtomicBool,
}

/// One finished request on its way back to the owning event thread.
struct Completion {
    slot: usize,
    gen: u64,
    frame: Vec<u8>,
    shape: WriteShape,
    sever_after: bool,
}

/// An admitted request on its way to the executor pool.
struct Job {
    thread: usize,
    slot: usize,
    gen: u64,
    req_id: u64,
    req: Request,
}

/// Per-event-thread mailbox: connections dealt by the acceptor and
/// completions returned by the executors.
#[derive(Default)]
struct Inbox {
    conns: Mutex<Vec<TcpStream>>,
    done: Mutex<Vec<Completion>>,
}

/// Cross-thread reactor state: one inbox + waker per event thread.
struct Reactor {
    inboxes: Vec<Inbox>,
    wakers: Vec<Waker>,
    next: AtomicUsize,
}

/// A running trace-query server. Dropping it (or calling
/// [`Server::shutdown`]) drains in-flight requests and joins every
/// thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    rt: Arc<Reactor>,
    events: Vec<JoinHandle<()>>,
    execs: Vec<JoinHandle<()>>,
    exec_tx: Option<mpsc::Sender<Job>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `catalog`.
    pub fn start(addr: &str, catalog: Catalog, cfg: ServeCfg) -> io::Result<Server> {
        Server::start_with_hooks(addr, catalog, cfg, ServeHooks::default())
    }

    /// Like [`Server::start`], with fault-injection hooks. Used by the
    /// chaos campaign; production callers use `start` (equivalent to
    /// default hooks).
    pub fn start_with_hooks(
        addr: &str,
        catalog: Catalog,
        cfg: ServeCfg,
        hooks: ServeHooks,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend: CatalogBackend::new(catalog, &cfg),
            cfg,
            obs: ServeObs::register(),
            hooks,
            inflight: AtomicUsize::new(0),
            resp_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let n_ev = cfg.event_threads.max(1);
        let mut pollers = Vec::with_capacity(n_ev);
        let mut wakers = Vec::with_capacity(n_ev);
        let mut inboxes = Vec::with_capacity(n_ev);
        for _ in 0..n_ev {
            let (p, w) = Poller::new()?;
            pollers.push(p);
            wakers.push(w);
            inboxes.push(Inbox::default());
        }
        let rt = Arc::new(Reactor {
            inboxes,
            wakers,
            next: AtomicUsize::new(0),
        });
        let (exec_tx, exec_rx) = mpsc::channel::<Job>();
        let exec_rx = Arc::new(Mutex::new(exec_rx));
        let execs = (0..cfg.exec_workers.max(1))
            .map(|_| {
                let (shared, rt, rx) = (shared.clone(), rt.clone(), exec_rx.clone());
                std::thread::spawn(move || exec_loop(&shared, &rt, &rx))
            })
            .collect();
        let mut listener = Some(listener);
        let events = pollers
            .into_iter()
            .enumerate()
            .map(|(i, poller)| {
                let l = if i == 0 { listener.take() } else { None };
                let (shared, rt, tx) = (shared.clone(), rt.clone(), exec_tx.clone());
                std::thread::spawn(move || event_loop(&shared, &rt, poller, i, l, &tx))
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            rt,
            events,
            execs,
            exec_tx: Some(exec_tx),
        })
    }

    /// The bound address (with the actual port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric handles (tests assert on these).
    pub fn obs(&self) -> &ServeObs {
        &self.shared.obs
    }

    /// Stops accepting, drains every in-flight request, joins all
    /// threads. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.events.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in &self.rt.wakers {
            w.wake();
        }
        for h in self.events.drain(..) {
            h.join().expect("serve event thread panicked");
        }
        // Event threads exit only with every connection reaped, so no
        // job is still owed a completion; closing the channel lets
        // the executors drain out.
        drop(self.exec_tx.take());
        for h in self.execs.drain(..) {
            h.join().expect("serve exec thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One registered connection on an event thread. The generation
/// guards completions against slot reuse: a job finishing after its
/// connection died (and the slot was re-issued) is dropped.
struct ConnEntry {
    conn: Conn<TcpStream>,
    gen: u64,
}

/// Everything `dispatch`/`advance` need besides the connection.
struct Ctx<'a> {
    shared: &'a Shared,
    exec_tx: &'a mpsc::Sender<Job>,
    thread: usize,
}

fn exec_loop(shared: &Shared, rt: &Reactor, rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // Holding the lock across `recv` parks the other workers on
        // the mutex instead of the channel — same wakeup order, no
        // lost jobs, and the channel closing still drains us out.
        let job = {
            let rx = rx.lock().expect("serve exec rx lock");
            rx.recv()
        };
        let Ok(job) = job else { break };
        let thread = job.thread;
        let done = run_job(shared, job);
        rt.inboxes[thread]
            .done
            .lock()
            .expect("serve done lock")
            .push(done);
        rt.wakers[thread].wake();
    }
}

/// Answers one admitted request on whichever thread holds it: the
/// sealed frame, its service time, the admission slot given back and
/// the fault seam applied — the bytes, write shape and sever flag.
fn serve(shared: &Shared, req_id: u64, req: &Request) -> (Vec<u8>, WriteShape, bool) {
    let t0 = Instant::now();
    let frame = answer(&shared.backend, req_id, req, MAX_FRAME);
    shared
        .obs
        .record_request(req.opcode(), t0.elapsed().as_nanos() as u64);
    shared.obs.inflight.add(-1);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    fated(shared, frame)
}

/// Executes one admitted request on the pool, addressed back to its
/// connection.
fn run_job(shared: &Shared, job: Job) -> Completion {
    let (frame, shape, sever_after) = serve(shared, job.req_id, &job.req);
    Completion {
        slot: job.slot,
        gen: job.gen,
        frame,
        shape,
        sever_after,
    }
}

/// Applies the fault seam to one sealed response frame, yielding the
/// bytes, the write shape and whether to sever after flushing.
fn fated(shared: &Shared, mut frame: Vec<u8>) -> (Vec<u8>, WriteShape, bool) {
    let seq = shared.resp_seq.fetch_add(1, Ordering::SeqCst);
    match shared.hooks.fate(seq) {
        WireFate::Deliver => (frame, WriteShape::default(), false),
        WireFate::FlipBit { at, bit } => {
            let i = (at % frame.len() as u64) as usize;
            frame[i] ^= 1 << (bit % 8);
            (frame, WriteShape::default(), false)
        }
        WireFate::CutAfter { at } => {
            let keep = (at % frame.len() as u64) as usize;
            frame.truncate(keep);
            (frame, WriteShape::default(), true)
        }
        WireFate::Trickle { chunk } => {
            let shape = WriteShape {
                max_chunk: Some(chunk.max(1)),
                stall: None,
            };
            (frame, shape, false)
        }
        WireFate::StallMid { at, ticks } => {
            let at = (at % frame.len().max(1) as u64) as usize;
            let shape = WriteShape {
                max_chunk: None,
                stall: Some((at, ticks)),
            };
            (frame, shape, false)
        }
    }
}

/// Drives one connection as far as it can go right now: flush
/// whatever is writable, dispatch any completed request frame, and
/// repeat until it blocks or goes quiescent.
fn advance(s: &mut ConnEntry, slot: usize, cx: &Ctx<'_>, tally: &mut IoTally) {
    loop {
        if s.conn.wants_write() {
            let n = s.conn.on_writable(tally);
            if n > 0 {
                cx.shared.obs.bytes_out.add(n);
            }
        }
        if s.conn.has_frame() {
            dispatch(s, slot, cx);
            continue;
        }
        break;
    }
}

/// The one reply path of the event thread: `resp` through the fault
/// seam, queued on the connection.
fn reply(s: &mut ConnEntry, cx: &Ctx<'_>, req_id: u64, resp: &Response) {
    let (frame, shape, sever) = fated(cx.shared, wire::encode_response(req_id, resp));
    s.conn.enqueue(frame, shape, sever);
}

/// Takes one completed request frame off the connection, runs it
/// through decode + admission, and enqueues its answer — or, for a
/// scan, hands it to the executors.
fn dispatch(s: &mut ConnEntry, slot: usize, cx: &Ctx<'_>) {
    let Some(body) = s.conn.take_frame() else {
        return;
    };
    let shared = cx.shared;
    shared.obs.bytes_in.add(4 + body.len() as u64);
    let (req_id, req) = match wire::decode_request(&body) {
        Ok(x) => x,
        Err(e) => {
            shared.obs.wire_errors.inc();
            // The id bytes may themselves be damaged; echo them
            // anyway so the client can correlate, then drain and
            // close — framing can no longer be trusted.
            let rid = u64::from_le_bytes(body[..8].try_into().unwrap());
            reply(
                s,
                cx,
                rid,
                &Response::Error {
                    code: err::WIRE,
                    msg: e.to_string(),
                },
            );
            s.conn.begin_drain();
            return;
        }
    };
    // The admission gate: reserve a slot or answer Busy now — never
    // queue unboundedly.
    let admitted = shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.cfg.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shared.obs.reject_busy.inc();
        reply(s, cx, req_id, &Response::Busy);
        return;
    }
    shared.obs.inflight.add(1);
    // Work the frame cap or a block cache bounds is answered here,
    // with no hand-off; a scan goes to the pool.
    if !matches!(&req, Request::Query { archive, pred } if !shared.backend.bounded(archive, pred)) {
        let (frame, shape, sever) = serve(shared, req_id, &req);
        s.conn.enqueue(frame, shape, sever);
        return;
    }
    let job = Job {
        thread: cx.thread,
        slot,
        gen: s.gen,
        req_id,
        req,
    };
    // Send can only fail after shutdown closed the channel, and
    // shutdown waits for this thread — unreachable in practice.
    let _ = cx.exec_tx.send(job);
}

fn event_loop(
    shared: &Shared,
    rt: &Reactor,
    mut poller: Poller,
    thread: usize,
    listener: Option<TcpListener>,
    exec_tx: &mpsc::Sender<Job>,
) {
    let obs = &shared.obs;
    let tick = shared.cfg.read_timeout.max(Duration::from_millis(1));
    let write_budget = (shared.cfg.write_timeout.as_millis() / tick.as_millis()).max(1) as u32;
    let cx = Ctx {
        shared,
        exec_tx,
        thread,
    };
    let mut slots: Vec<Option<ConnEntry>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut gen = 0u64;
    let mut ready: Vec<Ready> = Vec::new();
    let mut tally = IoTally::default();
    let mut last_tick = Instant::now();
    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);

        // Poll everything that wants attention (plus the listener on
        // thread 0 while accepting).
        let mut map: Vec<usize> = Vec::new();
        let woke = {
            let mut interests: Vec<(&dyn AsRawFd, Interest)> = Vec::new();
            if let Some(l) = &listener {
                if !shutting {
                    interests.push((
                        l,
                        Interest {
                            read: true,
                            write: false,
                        },
                    ));
                    map.push(usize::MAX);
                }
            }
            for (i, s) in slots.iter().enumerate() {
                let Some(s) = s else { continue };
                let want = Interest {
                    read: s.conn.wants_read(),
                    write: s.conn.wants_write(),
                };
                if want.read || want.write {
                    interests.push((s.conn.transport(), want));
                    map.push(i);
                }
            }
            let budget = tick
                .saturating_sub(last_tick.elapsed())
                .max(Duration::from_millis(1));
            poller.wait(&interests, budget, &mut ready)
        };
        if woke {
            obs.reactor_wakeups.inc();
        }

        // Connections the acceptor dealt us.
        let newcomers = std::mem::take(&mut *rt.inboxes[thread].conns.lock().expect("conns lock"));
        for stream in newcomers {
            if shutting {
                continue; // dropped: too late to serve
            }
            register(
                &mut slots,
                &mut free,
                &mut gen,
                stream,
                shared,
                write_budget,
            );
        }

        // Responses the executors finished.
        let done = std::mem::take(&mut *rt.inboxes[thread].done.lock().expect("done lock"));
        for c in done {
            let Some(s) = slots.get_mut(c.slot).and_then(|o| o.as_mut()) else {
                continue;
            };
            if s.gen != c.gen {
                continue;
            }
            s.conn.enqueue(c.frame, c.shape, c.sever_after);
            advance(s, c.slot, &cx, &mut tally);
        }

        // Readiness events.
        for r in &ready {
            obs.reactor_readiness.inc();
            let target = map[r.idx];
            if target == usize::MAX {
                accept_ready(
                    listener.as_ref(),
                    rt,
                    thread,
                    &mut slots,
                    &mut free,
                    &mut gen,
                    shared,
                    write_budget,
                );
                continue;
            }
            let Some(s) = slots.get_mut(target).and_then(|o| o.as_mut()) else {
                continue;
            };
            if r.read {
                match s.conn.on_readable(&mut tally) {
                    ReadEvent::Open | ReadEvent::Eof | ReadEvent::MidFrameEof => {}
                    ReadEvent::BadFrame(e) => {
                        obs.wire_errors.inc();
                        reply(
                            s,
                            &cx,
                            0,
                            &Response::Error {
                                code: err::WIRE,
                                msg: e.to_string(),
                            },
                        );
                    }
                }
            }
            advance(s, target, &cx, &mut tally);
        }

        // The tick: charge stall budgets at most once per period.
        if last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            for s in slots.iter_mut().flatten() {
                if s.conn.on_tick() == TickVerdict::CutOff {
                    obs.reactor_stalls_cut.inc();
                }
            }
        }

        // Shutdown: no new reads; everything reading drains away,
        // everything dispatching finishes through the normal path.
        if shutting {
            for s in slots.iter_mut().flatten() {
                if s.conn.state() == ConnState::Reading {
                    s.conn.begin_drain();
                }
            }
        }

        // Reap and account.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot
                .as_ref()
                .is_some_and(|s| s.conn.state() == ConnState::Closed)
            {
                *slot = None;
                free.push(i);
            }
        }
        if tally.partial_reads > 0 {
            obs.reactor_partial_read.add(tally.partial_reads);
        }
        if tally.partial_writes > 0 {
            obs.reactor_partial_write.add(tally.partial_writes);
        }
        tally = IoTally::default();

        if shutting && slots.iter().all(Option::is_none) {
            break;
        }
    }
}

/// Accepts until the listener would block, dealing connections
/// round-robin across the event threads.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: Option<&TcpListener>,
    rt: &Reactor,
    thread: usize,
    slots: &mut Vec<Option<ConnEntry>>,
    free: &mut Vec<usize>,
    gen: &mut u64,
    shared: &Shared,
    write_budget: u32,
) {
    let Some(l) = listener else { return };
    loop {
        match l.accept() {
            Ok((stream, _)) => {
                let t = rt.next.fetch_add(1, Ordering::Relaxed) % rt.inboxes.len();
                if t == thread {
                    register(slots, free, gen, stream, shared, write_budget);
                } else {
                    rt.inboxes[t].conns.lock().expect("conns lock").push(stream);
                    rt.wakers[t].wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Registers one accepted connection on this event thread.
fn register(
    slots: &mut Vec<Option<ConnEntry>>,
    free: &mut Vec<usize>,
    gen: &mut u64,
    stream: TcpStream,
    shared: &Shared,
    write_budget: u32,
) {
    if slots.len() - free.len() >= MAX_POLLED {
        return; // dropped: the pollfd array stays bounded
    }
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    shared.obs.connections.inc();
    *gen += 1;
    let entry = ConnEntry {
        conn: Conn::new(stream, shared.cfg.max_stalls, write_budget),
        gen: *gen,
    };
    match free.pop() {
        Some(i) => slots[i] = Some(entry),
        None => slots.push(Some(entry)),
    }
}

/// Answers admitted request `req_id` from the catalog with its sealed
/// response frame. A query answer is written straight into its frame,
/// and refused once it passes the frame cap `cap` ([`MAX_FRAME`] when
/// served); every other answer is encoded from its [`Response`].
fn answer(backend: &CatalogBackend, req_id: u64, req: &Request, cap: usize) -> Vec<u8> {
    let resp = match req {
        Request::Catalog => Response::Catalog(backend.catalog()),
        Request::Metrics => Response::Metrics(
            wrl_obs::global()
                .snapshot()
                .to_json(&[("service", "wrl-serve"), ("schema_wire", wire::WIRE_SCHEMA)]),
        ),
        Request::Fetch {
            archive,
            first_block,
            n_blocks,
        } => match backend.fetch(archive, *first_block, *n_blocks) {
            Ok(blocks) => Response::Fetch(blocks),
            Err(refusal) => refusal,
        },
        Request::Query { archive, pred } => match backend.query(req_id, archive, pred, cap) {
            Ok(frame) => return frame,
            Err(refusal) => refusal,
        },
    };
    wire::encode_response(req_id, &resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::bad_request;
    use wrl_store::{Predicate, TraceStore};
    use wrl_trace::TraceArchive;

    #[test]
    fn a_query_answer_past_the_frame_cap_is_refused_under_its_request_id() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/golden.w3kt");
        let a = TraceArchive::load(path).expect("golden archive loads");
        let store = TraceStore::from_archive(&a, 64);
        let mut catalog = Catalog::new();
        catalog.add("golden", Arc::new(store.clone()));
        let backend = CatalogBackend::new(catalog, &ServeCfg::default());
        let n = a.words.len();
        // A window of 500 words, and no window: the cached path and
        // the parallel one.
        for (pred, words) in [
            (
                Predicate {
                    window: Some((100, 600)),
                    asid: None,
                },
                500,
            ),
            (Predicate::default(), n),
        ] {
            let req = Request::Query {
                archive: "golden".into(),
                pred,
            };
            let bound = words * 4 + 64;
            let fits = answer(&backend, 41, &req, bound);
            let want = store.query(&pred).unwrap();
            assert_eq!(want.words.len(), words);
            assert_eq!(
                wire::decode_response(&fits[4..]).unwrap(),
                (41, Response::Query(want)),
                "{pred:?}: an answer exactly at the cap is sent"
            );
            let refused = answer(&backend, 42, &req, bound - 1);
            assert_eq!(
                refused,
                wire::encode_response(
                    42,
                    &bad_request("query result exceeds the frame cap; narrow the window")
                ),
                "{pred:?}: one byte short of the cap is refused"
            );
        }
    }
}
