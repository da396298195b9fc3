//! `wrl-obs`: measuring the measurement system.
//!
//! The paper's whole argument rests on quantifying its own tracing
//! machinery — §4.1 measures time dilation, §4.3 measures detection
//! probability. This crate gives the reproduction the same property:
//! a lightweight metrics layer every subsystem records into, so that
//! queue depths, backpressure stalls, phase timings and hot-path
//! event counts are *recorded numbers* instead of ad-hoc prints.
//!
//! # Model
//!
//! Four metric types, all registered by name in a process-global
//! [`Registry`]:
//!
//! * [`Counter`] — a monotonically increasing event count (relaxed
//!   atomic add on the hot path);
//! * [`Gauge`] — a sampled value with a high-water mark (queue
//!   depths, end-of-run exports of hardware counters);
//! * [`Histogram`] — a power-of-two-bucketed value distribution that
//!   supports exact merging;
//! * [`Span`] — a phase timer accumulating call count and total
//!   nanoseconds (see [`Span::start`] and the [`time!`] macro).
//!
//! Registration is **constructor-time, not record-time**: each
//! subsystem registers its full metric set up front (e.g. when a
//! pipeline is built), so the registry's contents are deterministic
//! and `docs/METRICS.md` can be checked against it mechanically, even
//! for metrics whose recording sites never fire in a given run.
//!
//! # Overhead
//!
//! Recording is gated twice:
//!
//! * at **compile time** by the `record` cargo feature (on by
//!   default) — without it every recording call is a no-op and the
//!   optimizer deletes the call entirely;
//! * at **run time** by [`set_recording`] — a single relaxed atomic
//!   load guards each recording call, which lets one binary measure
//!   its own metrics overhead by interleaving recording-on and
//!   recording-off runs (see `crates/bench/src/bin/obs_overhead.rs`
//!   and EXPERIMENTS.md: the measured end-to-end overhead is < 1%).
//!
//! Exports ([`Registry::snapshot`]) always work regardless of either
//! gate; a disabled build simply exports zeros.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod json;
mod metric;
mod registry;

pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metric::{Counter, Gauge, HistSnap, Histogram, Kind, Span, SpanTimer, HIST_BUCKETS};
pub use registry::{Desc, MetricSnap, Registry, Snapshot, ValueSnap};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// JSON schema identifier written by [`Snapshot::to_json`]; bumped on
/// any incompatible change to the export format.
pub const SCHEMA: &str = "wrl-obs-metrics/v1";

static RECORDING: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently enabled (compile-time `record`
/// feature AND the runtime switch). Recording sites check this; when
/// it returns `false` they do no atomic writes and read no clocks.
#[inline]
pub fn recording() -> bool {
    cfg!(feature = "record") && RECORDING.load(Ordering::Relaxed)
}

/// Whether this build of `wrl-obs` has the `record` feature — i.e.
/// whether recording sites exist at all. Lets downstream crates
/// (which cannot see this crate's features via `cfg!`) report or
/// branch on the compile-time gate.
pub fn compiled_with_recording() -> bool {
    cfg!(feature = "record")
}

/// Runtime kill-switch for all recording. Registration and export
/// are unaffected. Intended for overhead measurement (interleave
/// on/off runs in one process) and for callers that want a quiet
/// registry; not meant to be toggled while recording sites are
/// mid-flight (a gauge inc/dec pair straddling the toggle can leave
/// a small residue, which [`Registry::reset`] clears).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// The process-global registry almost all instrumentation uses.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Registers (or looks up) a [`Counter`] in a registry, capturing the
/// call site's file as the metric's source site.
///
/// ```
/// let c = wrl_obs::counter!(wrl_obs::global(), "doc.example.count",
///     "events", "§4.3", "Example counter registered from a doctest.");
/// c.inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($reg:expr, $name:expr, $unit:expr, $paper:expr, $help:expr) => {
        $reg.counter($crate::Desc {
            name: $name,
            unit: $unit,
            site: file!(),
            paper: $paper,
            help: $help,
        })
    };
}

/// Registers (or looks up) a [`Gauge`]; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($reg:expr, $name:expr, $unit:expr, $paper:expr, $help:expr) => {
        $reg.gauge($crate::Desc {
            name: $name,
            unit: $unit,
            site: file!(),
            paper: $paper,
            help: $help,
        })
    };
}

/// Registers (or looks up) a [`Histogram`]; see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($reg:expr, $name:expr, $unit:expr, $paper:expr, $help:expr) => {
        $reg.histogram($crate::Desc {
            name: $name,
            unit: $unit,
            site: file!(),
            paper: $paper,
            help: $help,
        })
    };
}

/// Registers (or looks up) a [`Span`]; see [`counter!`].
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr, $unit:expr, $paper:expr, $help:expr) => {
        $reg.span($crate::Desc {
            name: $name,
            unit: $unit,
            site: file!(),
            paper: $paper,
            help: $help,
        })
    };
}

/// Times an expression into a [`Span`]: reads the clock only when
/// [`recording`] is on, records the elapsed nanoseconds when the
/// expression finishes (even via `?`/early return inside a closure —
/// the timer records on drop).
///
/// ```
/// let s = wrl_obs::span!(wrl_obs::global(), "doc.example.phase",
///     "ns", "§5", "Example phase span.");
/// let x = wrl_obs::time!(s, 1 + 1);
/// assert_eq!(x, 2);
/// ```
#[macro_export]
macro_rules! time {
    ($span:expr, $body:expr) => {{
        let _wrl_obs_timer = $span.start();
        $body
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recording_switch_gates_counters() {
        let c = Counter::default();
        c.add(3);
        assert_eq!(c.get(), if cfg!(feature = "record") { 3 } else { 0 });
        set_recording(false);
        c.add(5);
        set_recording(true);
        assert_eq!(c.get(), if cfg!(feature = "record") { 3 } else { 0 });
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let c = Arc::new(Counter::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..100_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        if cfg!(feature = "record") {
            assert_eq!(c.get(), 800_000);
        }
    }

    #[test]
    fn macros_register_in_global_registry() {
        let c = counter!(global(), "test.lib.counter", "events", "—", "macro test");
        c.add(2);
        let again = counter!(global(), "test.lib.counter", "events", "—", "macro test");
        again.add(1);
        if cfg!(feature = "record") {
            assert_eq!(c.get(), 3, "same name must yield the same counter");
        }
        let snap = global().snapshot();
        let m = snap
            .metrics
            .iter()
            .find(|m| m.desc.name == "test.lib.counter")
            .expect("registered");
        assert_eq!(m.kind, Kind::Counter);
        assert!(m.desc.site.ends_with("lib.rs"));
    }
}
