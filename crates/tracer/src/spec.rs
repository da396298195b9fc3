//! The sink-stack spec language used by `tracedump analyze` and the
//! CI smoke jobs: a comma-separated list of sink items, each
//! `name[:arg[:arg...]]`.
//!
//! ```text
//! cache[:size[:ways]]          cache study   (default 65536:2)
//! tlb                          full memory-system simulation
//! dilation                     trace-expansion counters
//! pagemap                      per-space page usage
//! defense                      §4.3 defensive checks
//! sampled[:on[:off[:seed]]]    sampled windows (default 64k:448k:0)
//! wset[:window]                working-set curves (default 4096)
//! phase[:window[:threshold]]   phase detector (default 4096:0.5)
//! ```
//!
//! This is the one grammar: every item, `sampled` included, is parsed
//! here into its sink's configuration, and every rejection is a
//! [`SinkSpecError`]. Every size/window argument takes the same
//! `k`/`K` (×1024) and `m`/`M` (×1024²) suffixes, so `cache:64k:2`,
//! `wset:16k` and `sampled:64k:448k` read as written.

use wrl_memsim::{AssocCache, MemSim, PageMap};

use crate::analyses::{CacheSink, DefenseSink, DilationSink, PagemapSink};
use crate::driver::Stack;
use crate::windows::{PhaseSink, SampledCfg, SampledWindowSink, WorkingSetSink};

/// Errors from [`build_stack`].
#[derive(Clone, Debug, PartialEq)]
pub enum SinkSpecError {
    /// An item named a sink this spec language does not know.
    UnknownSink(String),
    /// A numeric argument failed to parse.
    BadArg {
        /// The sink item the argument belongs to.
        item: String,
        /// The offending argument.
        arg: String,
    },
    /// Too many `:` arguments for the item.
    TooManyArgs(String),
    /// The spec was empty (an empty stack analyzes nothing).
    Empty,
}

impl std::fmt::Display for SinkSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkSpecError::UnknownSink(s) => write!(f, "unknown sink {s:?}"),
            SinkSpecError::BadArg { item, arg } => write!(f, "bad argument {arg:?} in {item:?}"),
            SinkSpecError::TooManyArgs(s) => write!(f, "too many arguments in {s:?}"),
            SinkSpecError::Empty => write!(f, "empty sink spec"),
        }
    }
}

impl std::error::Error for SinkSpecError {}

fn bad_arg(item: &str, arg: &str) -> SinkSpecError {
    SinkSpecError::BadArg {
        item: item.to_string(),
        arg: arg.to_string(),
    }
}

fn num<T: std::str::FromStr>(item: &str, arg: &str) -> Result<T, SinkSpecError> {
    arg.parse().map_err(|_| bad_arg(item, arg))
}

/// A size/window argument with an optional `k`/`K` (×1024) or
/// `m`/`M` (×1024²) suffix, rejected on a bad digit string, an
/// overflow, or a value that does not fit the field's type.
fn scaled<T: TryFrom<u64>>(item: &str, arg: &str) -> Result<T, SinkSpecError> {
    let (digits, scale) = match arg.chars().last() {
        Some('k' | 'K') => (&arg[..arg.len() - 1], 1024u64),
        Some('m' | 'M') => (&arg[..arg.len() - 1], 1024 * 1024),
        _ => (arg, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| bad_arg(item, arg))
}

/// Builds a [`Stack`] from a spec string. Sinks that translate
/// addresses (cache, tlb, pagemap) each get their own clone of
/// `pagemap`, so composed sinks never share mutable translation
/// state.
pub fn build_stack(spec: &str, pagemap: &PageMap) -> Result<Stack, SinkSpecError> {
    let mut stack = Stack::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, rest) = match item.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (item, None),
        };
        let args: Vec<&str> = rest.map(|r| r.split(':').collect()).unwrap_or_default();
        match name {
            "cache" => {
                if args.len() > 2 {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                let size: u32 = args
                    .first()
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(65536);
                let ways: usize = args.get(1).map(|a| num(item, a)).transpose()?.unwrap_or(2);
                if !AssocCache::valid_geometry(size, CacheSink::LINE, ways) {
                    return Err(bad_arg(item, rest.unwrap_or_default()));
                }
                stack.push(CacheSink::new(size, ways, pagemap.clone()));
            }
            "tlb" => {
                if !args.is_empty() {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                stack.push(MemSim::new(pagemap.clone()));
            }
            "dilation" => {
                if !args.is_empty() {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                stack.push(DilationSink::default());
            }
            "pagemap" => {
                if !args.is_empty() {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                stack.push(PagemapSink::new(pagemap.clone()));
            }
            "defense" => {
                if !args.is_empty() {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                stack.push(DefenseSink::default());
            }
            "sampled" => {
                if args.len() > 3 {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                let on: u64 = args
                    .first()
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(SampledCfg::default().on);
                // A 1-in-8 duty cycle; `7·on` saturates, so its
                // overflow fails the period check below.
                let off: u64 = args
                    .get(1)
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(on.saturating_mul(7));
                let seed: u64 = args
                    .get(2)
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(0);
                if on == 0 || on.checked_add(off).is_none() {
                    return Err(bad_arg(item, rest.unwrap_or_default()));
                }
                stack.push(SampledWindowSink::new(SampledCfg { on, off, seed }));
            }
            "wset" => {
                if args.len() > 1 {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                let window: u64 = args
                    .first()
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(4096);
                stack.push(WorkingSetSink::new(window));
            }
            "phase" => {
                if args.len() > 2 {
                    return Err(SinkSpecError::TooManyArgs(item.to_string()));
                }
                let window: u64 = args
                    .first()
                    .map(|a| scaled(item, a))
                    .transpose()?
                    .unwrap_or(4096);
                let threshold: f64 = args
                    .get(1)
                    .map(|a| num(item, a))
                    .transpose()?
                    .unwrap_or(0.5);
                stack.push(PhaseSink::new(window, threshold));
            }
            other => return Err(SinkSpecError::UnknownSink(other.to_string())),
        }
    }
    if stack.is_empty() {
        return Err(SinkSpecError::Empty);
    }
    Ok(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_memsim::Policy;
    use wrl_trace::{TraceSink, Wants};

    fn pm() -> PageMap {
        PageMap::new(Policy::FirstFree { base_pfn: 0x100 })
    }

    #[test]
    fn full_grammar_round_trips_into_names() {
        let stack = build_stack(
            "cache:32768:4, tlb, dilation, pagemap, defense, sampled:1k:3k:9, wset:64, phase:64:0.25",
            &pm(),
        )
        .unwrap();
        assert_eq!(
            stack.names(),
            vec![
                "cache:32768:4",
                "tlb",
                "dilation",
                "pagemap",
                "defense",
                "sampled:1024:3072:9",
                "wset:64",
                "phase:64",
            ]
        );
        assert_eq!(stack.wants(), Wants::Words, "sampled wants the word hook");
    }

    #[test]
    fn size_and_window_arguments_take_k_and_m_suffixes() {
        let stack = build_stack("cache:64k:2, wset:16k, phase:1m", &pm()).unwrap();
        assert_eq!(
            stack.names(),
            vec!["cache:65536:2", "wset:16384", "phase:1048576"]
        );
        // A cache size past u32 and a bare suffix both refuse.
        assert!(matches!(
            build_stack("cache:4096m", &pm()),
            Err(SinkSpecError::BadArg { .. })
        ));
        assert!(matches!(
            build_stack("wset:k", &pm()),
            Err(SinkSpecError::BadArg { .. })
        ));
    }

    /// A geometry the cache model cannot build is a spec error, not a
    /// panic: too small for one 16-byte line, a way count that is not
    /// a power of two, a size that is not, and zero ways.
    #[test]
    fn an_impossible_cache_geometry_is_a_bad_argument() {
        for (spec, arg) in [
            ("cache:1", "1"),
            ("cache:64k:3", "64k:3"),
            ("cache:100", "100"),
            ("cache:64k:0", "64k:0"),
        ] {
            assert_eq!(
                build_stack(spec, &pm()).unwrap_err(),
                SinkSpecError::BadArg {
                    item: spec.into(),
                    arg: arg.into()
                },
                "{spec}"
            );
        }
        assert_eq!(
            build_stack("cache:16:1", &pm()).unwrap().names(),
            ["cache:16:1"]
        );
    }

    /// The `sampled` item accepts exactly these shapes and builds
    /// exactly these sinks: `off` defaults to `7·on`, `seed` to 0.
    #[test]
    fn sampled_specs_build_exactly_these_sinks() {
        for (spec, name) in [
            ("sampled", "sampled:65536:458752:0"),
            ("sampled:256", "sampled:256:1792:0"),
            ("sampled:1k:3k:9", "sampled:1024:3072:9"),
            ("sampled:4:0", "sampled:4:0:0"),
        ] {
            assert_eq!(build_stack(spec, &pm()).unwrap().names(), [name], "{spec}");
        }
        // A dead window, an empty field, a fourth field, a bad digit,
        // `7·on` overflowing and `on + off` overflowing.
        for spec in [
            "sampled:0",
            "sampled:0:5",
            "sampled:64k::3",
            "sampled:1:2:3:4",
            "sampled:x",
            "sampled:3074457345618258603",
            "sampled:18446744073709551615:1",
        ] {
            assert!(build_stack(spec, &pm()).is_err(), "{spec}");
        }
    }

    #[test]
    fn defaults_and_errors() {
        let stack = build_stack("cache,wset,phase", &pm()).unwrap();
        assert_eq!(
            stack.names(),
            vec!["cache:65536:2", "wset:4096", "phase:4096"]
        );
        assert_eq!(stack.wants(), Wants::Events);
        assert_eq!(
            build_stack("nope", &pm()).unwrap_err(),
            SinkSpecError::UnknownSink("nope".into())
        );
        assert_eq!(build_stack("", &pm()).unwrap_err(), SinkSpecError::Empty);
        assert_eq!(
            build_stack("tlb:9", &pm()).unwrap_err(),
            SinkSpecError::TooManyArgs("tlb:9".into())
        );
        assert!(matches!(
            build_stack("cache:x", &pm()),
            Err(SinkSpecError::BadArg { .. })
        ));
        assert_eq!(
            build_stack("sampled:0", &pm()).unwrap_err(),
            SinkSpecError::BadArg {
                item: "sampled:0".into(),
                arg: "0".into()
            }
        );
    }
}
