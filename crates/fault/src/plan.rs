//! Fault plans: the replayable one-line spec of one injected fault.
//!
//! A campaign is nothing but a list of [`FaultPlan`]s, and a plan is
//! three values — *where* ([`FaultSite`]), *how hard* (intensity) and
//! *which exact bits* (seed). `Display`/`FromStr` round-trip the
//! whole plan through a `site:seed:intensity` string, so any campaign
//! failure is reproducible from the one line a CI log prints.

use core::fmt;
use core::str::FromStr;

/// The stack layer a fault site belongs to — the campaign asserts at
/// least one *detected* corruption per layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The `wrl-trace` parser and its raw word stream.
    Parser,
    /// The `wrl-store` container bytes.
    Store,
    /// The driver's source seam.
    Stream,
    /// The `wrl-serve` wire protocol between server and client.
    Wire,
    /// The `wrl-tracer` analysis-sink framework: composed sinks on
    /// the one-pass driver.
    Tracer,
}

/// Where in the stack one fault is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Flip random bits in raw trace words before the parser.
    ParserBitFlip,
    /// Truncate the word stream at a random point before the parser.
    ParserTruncate,
    /// Flip random bits in the store's compressed block area.
    StoreBlock,
    /// Flip random bits in the store's footer index.
    StoreIndex,
    /// Flip random bits in the store's header + table section.
    StoreHeader,
    /// Flip random bits in the store's fixed trailer.
    StoreTrailer,
    /// Truncate the encoded store (a short read).
    StoreShortRead,
    /// Flip random bits inside one v4 block's column sections (must be
    /// detected by the column-level encoded CRC or the decoded-words
    /// CRC — on every read path, queries included).
    StoreColumn,
    /// Flip random bits in the v4 index's ASID zonemaps. The mask is
    /// pruning metadata — a cleared live bit would silently skip
    /// blocks with matching words — so it sits under the metadata CRC
    /// and every flip must be detected before the index is trusted.
    StoreZonemap,
    /// Stall chunks at the driver's source seam (harmless by
    /// contract: stalls may only cost throughput).
    StreamStall,
    /// Drop chunks at the driver's source seam (must be detected as
    /// lost chunks).
    StreamDrop,
    /// Flip one bit in an encoded `wrl-serve` response frame right
    /// before the socket write (must surface as a typed client
    /// error — the frame CRC detects any single-bit damage).
    WireCorrupt,
    /// Sever the connection partway through writing a response (must
    /// surface as a typed truncation error, and the server must keep
    /// answering other clients).
    WireDrop,
    /// Deliver a response as a short-write storm — a bounded number
    /// of bytes per writability event (harmless by contract: the
    /// frame must still arrive bit-identical, only slower).
    WirePartial,
    /// Pause mid-way through writing a response frame for a bounded
    /// number of reactor ticks (harmless by contract: the stall must
    /// stay under both sides' stall budgets and the frame must still
    /// arrive bit-identical).
    WireStall,
    /// Fail one analysis sink mid-pass inside a composed
    /// `wrl-tracer` stack (must surface as a typed `SinkError` on
    /// that slot, never panic, and never perturb the sibling sinks'
    /// reports — they stay bit-identical to an unfaulted pass).
    TracerSink,
}

/// Every site, in campaign round-robin order.
pub const ALL_SITES: [FaultSite; 16] = [
    FaultSite::ParserBitFlip,
    FaultSite::ParserTruncate,
    FaultSite::StoreBlock,
    FaultSite::StoreIndex,
    FaultSite::StoreHeader,
    FaultSite::StoreTrailer,
    FaultSite::StoreShortRead,
    FaultSite::StoreColumn,
    FaultSite::StoreZonemap,
    FaultSite::StreamStall,
    FaultSite::StreamDrop,
    FaultSite::WireCorrupt,
    FaultSite::WireDrop,
    FaultSite::WirePartial,
    FaultSite::WireStall,
    FaultSite::TracerSink,
];

impl FaultSite {
    /// The stable spec name (`Display`/`FromStr` use it).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ParserBitFlip => "parser.bitflip",
            FaultSite::ParserTruncate => "parser.truncate",
            FaultSite::StoreBlock => "store.block",
            FaultSite::StoreIndex => "store.index",
            FaultSite::StoreHeader => "store.header",
            FaultSite::StoreTrailer => "store.trailer",
            FaultSite::StoreShortRead => "store.shortread",
            FaultSite::StoreColumn => "store.column",
            FaultSite::StoreZonemap => "store.zonemap",
            FaultSite::StreamStall => "stream.stall",
            FaultSite::StreamDrop => "stream.drop",
            FaultSite::WireCorrupt => "wire.corrupt",
            FaultSite::WireDrop => "wire.drop",
            FaultSite::WirePartial => "wire.partial",
            FaultSite::WireStall => "wire.stall",
            FaultSite::TracerSink => "tracer.sink",
        }
    }

    /// Parses a spec name back to a site.
    pub fn parse(s: &str) -> Option<FaultSite> {
        ALL_SITES.into_iter().find(|site| site.name() == s)
    }

    /// The layer this site attacks.
    pub fn layer(self) -> Layer {
        match self {
            FaultSite::ParserBitFlip | FaultSite::ParserTruncate => Layer::Parser,
            FaultSite::StoreBlock
            | FaultSite::StoreIndex
            | FaultSite::StoreHeader
            | FaultSite::StoreTrailer
            | FaultSite::StoreShortRead
            | FaultSite::StoreColumn
            | FaultSite::StoreZonemap => Layer::Store,
            FaultSite::StreamStall | FaultSite::StreamDrop => Layer::Stream,
            FaultSite::WireCorrupt
            | FaultSite::WireDrop
            | FaultSite::WirePartial
            | FaultSite::WireStall => Layer::Wire,
            FaultSite::TracerSink => Layer::Tracer,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One replayable fault: a site, a seed selecting the exact bits or
/// chunks attacked, and an intensity scaling how many.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the injection's [`crate::SplitMix64`].
    pub seed: u64,
    /// Where the fault strikes.
    pub site: FaultSite,
    /// How many corruptions (bit flips, dropped items, stall events)
    /// the injector aims for; clamped to ≥ 1.
    pub intensity: u32,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:#x}:{}", self.site, self.seed, self.intensity)
    }
}

/// A plan spec that failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadPlanSpec(pub String);

impl fmt::Display for BadPlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan spec {:?} (want site:seed:intensity)",
            self.0
        )
    }
}

impl std::error::Error for BadPlanSpec {}

impl FromStr for FaultPlan {
    type Err = BadPlanSpec;

    /// Parses `site:seed:intensity`; the seed accepts decimal or
    /// `0x`-prefixed hex (the `Display` form).
    fn from_str(s: &str) -> Result<FaultPlan, BadPlanSpec> {
        let bad = || BadPlanSpec(s.to_string());
        let mut it = s.split(':');
        let site = FaultSite::parse(it.next().ok_or_else(bad)?).ok_or_else(bad)?;
        let seed_s = it.next().ok_or_else(bad)?;
        let seed = match seed_s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => seed_s.parse(),
        }
        .map_err(|_| bad())?;
        let intensity = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if it.next().is_some() {
            return Err(bad());
        }
        Ok(FaultPlan {
            seed,
            site,
            intensity,
        })
    }
}

/// A deterministic campaign: `n` plans cycling round-robin through
/// every site, with per-plan seeds and intensities drawn from
/// `base_seed`. Campaign (base_seed, n) is the whole spec — the same
/// pair replays the same faults anywhere.
pub fn campaign(base_seed: u64, n: usize) -> Vec<FaultPlan> {
    let mut rng = crate::SplitMix64::new(base_seed);
    (0..n)
        .map(|i| FaultPlan {
            seed: rng.next_u64(),
            site: ALL_SITES[i % ALL_SITES.len()],
            intensity: 1 + rng.below(8) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_for_every_site() {
        for site in ALL_SITES {
            let plan = FaultPlan {
                seed: 0xdead_beef_cafe_f00d,
                site,
                intensity: 5,
            };
            let spec = plan.to_string();
            assert_eq!(spec.parse::<FaultPlan>().unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn decimal_seeds_parse_too() {
        let p: FaultPlan = "store.block:12345:2".parse().unwrap();
        assert_eq!(p.seed, 12345);
        assert_eq!(p.site, FaultSite::StoreBlock);
    }

    #[test]
    fn junk_specs_are_rejected() {
        for bad in [
            "",
            "store.block",
            "store.block:5",
            "nowhere:1:1",
            "store.block:xyz:1",
            "store.block:1:1:extra",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn campaigns_are_deterministic_and_cover_all_sites() {
        let a = campaign(1, 320);
        assert_eq!(a, campaign(1, 320));
        assert_ne!(a, campaign(2, 320));
        for site in ALL_SITES {
            let hits = a.iter().filter(|p| p.site == site).count();
            assert_eq!(hits, 320 / ALL_SITES.len(), "{site}");
        }
        assert!(a.iter().all(|p| p.intensity >= 1 && p.intensity <= 8));
    }
}
