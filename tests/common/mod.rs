//! What `serve_loopback` and `tracer_differential` share: the golden
//! archive, the counter read, the predicate panel, and the client herd
//! that checks every answer against [`filter_stream`].

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use systrace::serve::{Client, ClientCfg};
use systrace::store::{filter_stream, Predicate};
use systrace::trace::TraceArchive;

pub const GOLDEN_PATH: &str = "tests/data/golden.w3kt";

/// Serializes the tests of one suite that assert on process-global
/// metrics.
pub fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The value of a counter in the process-global registry.
pub fn counter(name: &str) -> u64 {
    let snap = systrace::obs::global().snapshot();
    let m = snap.metrics.iter().find(|m| m.desc.name == name);
    match m.map(|m| &m.value) {
        Some(systrace::obs::ValueSnap::Counter(v)) => *v,
        other => panic!("{name} is not a registered counter: {other:?}"),
    }
}

pub fn golden() -> TraceArchive {
    TraceArchive::load(GOLDEN_PATH).expect("golden archive loads")
}

/// The predicate panel: unfiltered, windowed, per-ASID, and both
/// combined — plus an ASID absent from the trace (empty result) and
/// an empty window.
pub fn predicate_panel(n_words: u64) -> Vec<Predicate> {
    let mid = n_words / 2;
    let mut panel = vec![
        Predicate::default(),
        Predicate {
            window: Some((0, n_words.min(100))),
            ..Predicate::default()
        },
        Predicate {
            window: Some((mid, mid + 500)),
            ..Predicate::default()
        },
        Predicate {
            window: Some((mid, mid)),
            ..Predicate::default()
        },
        Predicate {
            asid: Some(0xee),
            ..Predicate::default()
        },
    ];
    for asid in 0..4u8 {
        panel.push(Predicate {
            asid: Some(asid),
            ..Predicate::default()
        });
        panel.push(Predicate {
            asid: Some(asid),
            window: Some((mid / 2, mid + mid / 2)),
        });
    }
    panel
}

/// Connects with retries: a herd of clients can transiently overflow
/// the listen backlog while the event thread is mid-pass.
pub fn connect_patiently(addr: SocketAddr) -> Client {
    for _ in 0..500 {
        if let Ok(c) = Client::connect_cfg(addr, ClientCfg::default()) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("could not connect to the loopback server");
}

/// `n_clients` concurrent clients each send `rounds` queries from the
/// predicate panel at the archive "golden" behind `addr` (holding
/// `words`), retrying `Busy`. Every answer must be bit-identical to
/// [`filter_stream`]. Returns the `n_clients × rounds` request
/// latencies in microseconds, sorted.
pub fn panel_stress(addr: SocketAddr, words: &[u32], n_clients: usize, rounds: usize) -> Vec<u64> {
    let panel = predicate_panel(words.len() as u64);
    let expected: Vec<Vec<u32>> = panel.iter().map(|p| filter_stream(words, p)).collect();
    let latencies = Mutex::new(Vec::<u64>::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|t| {
                let (panel, expected, latencies) = (&panel, &expected, &latencies);
                s.spawn(move || {
                    let mut client = connect_patiently(addr);
                    let mut mine = Vec::with_capacity(rounds);
                    for round in 0..rounds {
                        let which = (t + round) % panel.len();
                        let t0 = Instant::now();
                        let q = client
                            .query_retry("golden", &panel[which], 10_000)
                            .unwrap_or_else(|e| panic!("client {t} round {round}: {e}"));
                        mine.push(t0.elapsed().as_micros() as u64);
                        assert_eq!(
                            q.words, expected[which],
                            "client {t} round {round}: wire answer differs from local filter"
                        );
                    }
                    latencies.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress client panicked");
        }
    });
    let mut lat = latencies.into_inner().unwrap();
    assert_eq!(lat.len(), n_clients * rounds);
    lat.sort_unstable();
    lat
}
