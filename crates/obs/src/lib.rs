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
//! * [`Histogram`] — a power-of-two-bucketed value distribution with
//!   exact count, sum, min and max;
//! * [`Span`] — a phase timer accumulating call count and total
//!   nanoseconds (see [`Span::start`]).
//!
//! Registration is **constructor-time, not record-time**: each
//! subsystem registers its full metric set up front (e.g. when a
//! pipeline is built), so the registry's contents are deterministic
//! and `docs/METRICS.md` can be checked against it mechanically, even
//! for metrics whose recording sites never fire in a given run.
//!
//! # Declaring metrics
//!
//! A subsystem states each of its metrics once, as a row of a
//! [`metrics!`] table; the handle struct, its `register()`, the field
//! docs and (for end-of-run mirrors of a statistics struct) the
//! `export` body are all derived from that row.
//!
//! # Overhead
//!
//! Recording is always on. What bounds its cost is where the
//! recording sites sit —
//! no per-word or per-reference path touches a live metric; hot
//! loops keep plain locals and fold them in once per batch or at the
//! end of a run (EXPERIMENTS.md E19). Exports
//! ([`Registry::snapshot`]) read whatever has been recorded so far.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod json;
mod metric;
mod registry;

pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metric::{Counter, Gauge, HistSnap, Histogram, Kind, Span, SpanTimer, HIST_BUCKETS};
pub use registry::{Desc, MetricSnap, Registry, Snapshot, ValueSnap};

use std::sync::OnceLock;

/// JSON schema identifier written by [`Snapshot::to_json`]; bumped on
/// any incompatible change to the export format.
pub const SCHEMA: &str = "wrl-obs-metrics/v1";

/// The process-global registry almost all instrumentation uses.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Declares one metric family: a struct of `Arc` handles, one field
/// per row, with the row's help string as the field's doc and a
/// `register()` that registers (or looks up) every row in the
/// [`global`] registry. Each row reads
/// `field: kind "name", "unit", "§paper", "help";` where `kind` is
/// `counter`, `gauge`, `histogram` or `span`; the invoking file is
/// recorded as the metric's source site.
///
/// ```
/// wrl_obs::metrics! {
///     /// Example family.
///     pub struct DocObs {
///         pub seen: counter "doc.example.count", "events", "§4.3",
///             "Example counter registered from a doctest.";
///         phase: span "doc.example.phase", "ns", "§5", "Example phase span.";
///     }
/// }
/// let obs = DocObs::register();
/// obs.seen.inc();
/// drop(obs.phase.start());
/// assert_eq!(obs.phase.count(), 1);
/// ```
///
/// `struct Name mirrors Stats` declares an end-of-run mirror of a
/// statistics struct defined in the invoking crate: every row is a
/// gauge, `export(&Stats)` sets each from the field of the same name
/// (or from `= |s: &Stats| expr` where the row gives one), and
/// `Stats::export_obs()` registers and exports in one call.
///
/// ```
/// pub struct Tally { hits: u64, parts: [u64; 2] }
/// wrl_obs::metrics! {
///     /// Gauges mirroring [`Tally`].
///     pub struct TallyObs mirrors Tally {
///         hits: gauge "doc.tally.hits", "events", "—", "Hits in the last run.";
///         parts: gauge "doc.tally.parts", "events", "—", "Parts, summed."
///             = |t: &Tally| t.parts.iter().sum::<u64>();
///     }
/// }
/// Tally { hits: 7, parts: [1, 2] }.export_obs();
/// let obs = TallyObs::register();
/// assert_eq!((obs.hits.get(), obs.parts.get()), (7, 3));
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($fvis:vis $field:ident: $kind:ident
                $metric:literal, $unit:literal, $paper:literal, $help:literal;)+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(#[doc = $help] $fvis $field: ::std::sync::Arc<$crate::metrics!(@type $kind)>,)+
        }

        impl $name {
            /// Registers (or looks up) every metric of this family in
            /// the global registry.
            $vis fn register() -> $name {
                let r = $crate::global();
                $name {
                    $($field: r.$kind($crate::Desc {
                        name: $metric,
                        unit: $unit,
                        site: file!(),
                        paper: $paper,
                        help: $help,
                    }),)+
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident mirrors $stats:ty {
            $($field:ident: gauge
                $metric:literal, $unit:literal, $paper:literal, $help:literal
                $(= $read:expr)?;)+
        }
    ) => {
        $crate::metrics! {
            $(#[$meta])*
            $vis struct $name {
                $($field: gauge $metric, $unit, $paper, $help;)+
            }
        }

        impl $name {
            /// Sets every gauge from one run's statistics.
            $vis fn export(&self, s: &$stats) {
                $(self.$field.set($crate::metrics!(@read s $field $($read)?) as i64);)+
            }
        }

        impl $stats {
            /// Registers (idempotently) the gauges mirroring these
            /// statistics and sets them from this run's values.
            pub fn export_obs(&self) {
                $name::register().export(self);
            }
        }
    };
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::Histogram };
    (@type span) => { $crate::Span };
    (@read $s:ident $field:ident) => { $s.$field };
    (@read $s:ident $field:ident $read:expr) => { ($read)($s) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        assert_eq!(c.get(), 800_000);
    }

    metrics! {
        /// Test family.
        struct TableObs {
            count: counter "test.lib.counter", "events", "—", "table test";
            depth: gauge "test.lib.gauge", "items", "§3.2", "table test gauge";
            sizes: histogram "test.lib.hist", "bytes", "—", "table test histogram";
            phase: span "test.lib.span", "ns", "§4.1", "table test span";
        }
    }

    #[test]
    fn a_table_registers_every_row_with_its_kind_and_site() {
        let a = TableObs::register();
        let b = TableObs::register();
        a.count.add(2);
        b.count.add(1);
        assert_eq!(a.count.get(), 3, "same name must yield the same counter");
        b.depth.set(1);
        b.sizes.record(1);
        b.phase.record_ns(1);
        let snap = global().snapshot();
        for (name, kind, unit, paper) in [
            ("test.lib.counter", Kind::Counter, "events", "—"),
            ("test.lib.gauge", Kind::Gauge, "items", "§3.2"),
            ("test.lib.hist", Kind::Histogram, "bytes", "—"),
            ("test.lib.span", Kind::Span, "ns", "§4.1"),
        ] {
            let m = snap
                .metrics
                .iter()
                .find(|m| m.desc.name == name)
                .expect("registered");
            assert_eq!((m.kind, m.desc.unit, m.desc.paper), (kind, unit, paper));
            assert!(m.desc.site.ends_with("lib.rs"), "site is the table's file");
        }
    }
}
