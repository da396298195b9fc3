//! An offline, dependency-free subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the slice of proptest this workspace actually uses:
//! the [`proptest!`] macro, integer/float/bool/range strategies,
//! `any::<T>()`, tuple composition, `prop_map`, [`prop_oneof!`],
//! `collection::{vec, hash_set}`, `Just`, and `ProptestConfig`.
//!
//! Semantics differ from upstream in two deliberate ways:
//!
//! * Cases are generated from a deterministic per-test seed (the FNV
//!   hash of the test name, overridable with `PROPTEST_SEED`), so
//!   every run explores the same inputs — failures reproduce exactly
//!   with no persistence files.
//! * There is no shrinking. The failing case's inputs are printed by
//!   the assertion itself; with deterministic generation that is
//!   enough to debug.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    pub use crate::strategy::{any, Arbitrary};
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// FNV-1a over a test name: the default per-test seed.
pub fn seed_from(name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            return v;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The property-test macro: each `fn name(arg in strategy, ...)` body
/// runs for `ProptestConfig::cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)
     $( $(#[$attr:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config = $cfg;
                let mut rng = $crate::test_runner::TestRng::new(
                    $crate::seed_from(concat!(module_path!(), "::", stringify!($name))),
                );
                $(let $arg = $strat;)+
                for case in 0..config.cases {
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&$arg, &mut rng);)+
                    let run = || -> Result<(), String> {
                        $body
                        Ok(())
                    };
                    if let Err(msg) = run() {
                        panic!("proptest case {case} of {}: {msg}", stringify!($name));
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {left:?}\n right: {right:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err(format!(
                "assertion failed: {} == {} ({})\n  left: {left:?}\n right: {right:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+)
            ));
        }
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {left:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i16..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u8..4).prop_map(|x| x as u32),
            Just(99u32),
        ]) {
            prop_assert!(v < 4 || v == 99);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::new(crate::seed_from("x"));
        let mut b = TestRng::new(crate::seed_from("x"));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
