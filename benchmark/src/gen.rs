//! Everything the run seed draws: the query windows and ASIDs, and
//! the order of the served requests. The program under test sees only
//! what is generated here, never the seed.

use systrace::store::Predicate;

/// Words in a plain windowed query (one block's worth, at any
/// alignment, so it straddles two blocks more often than not).
pub const WINDOW_WORDS: u64 = 4096;
/// Words in the window of an ASID-filtered query.
pub const ASID_WINDOW_WORDS: u64 = 64 * 1024;
/// Queries drawn per panel entry: the first half plain windows, the
/// second half ASID + window.
pub const QUERIES_PER_ENTRY: usize = 64;
/// Requests in one `serve_query` pass.
pub const REQUESTS_PER_PASS: usize = 2000;

/// SplitMix64: small, seedable, and the same on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run seed, so the
    /// query draw and the request draw do not shift each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The page-placement seed of the Mach panel entry.
pub fn placement_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

fn window(rng: &mut Rng, n_words: u64, len: u64) -> (u64, u64) {
    let len = len.min(n_words);
    let lo = rng.below(n_words - len + 1);
    (lo, lo + len)
}

/// The query set of one panel entry's trace (`entry` is its index in
/// the panel, `asids` the address spaces its archive has tables for).
pub fn queries(seed: u64, entry: usize, n_words: u64, asids: &[u8]) -> Vec<Predicate> {
    assert!(n_words > 0 && !asids.is_empty());
    let mut rng = Rng::new(seed, 2 + entry as u64);
    (0..QUERIES_PER_ENTRY)
        .map(|i| {
            if i < QUERIES_PER_ENTRY / 2 {
                Predicate {
                    asid: None,
                    window: Some(window(&mut rng, n_words, WINDOW_WORDS)),
                }
            } else {
                Predicate {
                    asid: Some(asids[rng.below(asids.len() as u64) as usize]),
                    window: Some(window(&mut rng, n_words, ASID_WINDOW_WORDS)),
                }
            }
        })
        .collect()
}

/// One request of the served mix. `archive` indexes the catalog,
/// `query` the archive's query set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    Query { archive: usize, query: usize },
    QueryAsid { archive: usize, query: usize },
    Fetch { archive: usize, block: u32 },
    Catalog,
    Metrics,
}

/// The request list of one pass: 60% windowed queries, 20% ASID +
/// window queries, 10% one-block fetches, 5% catalog, 5% metrics,
/// archives uniform. `n_blocks[a]` is archive `a`'s block count.
pub fn requests(seed: u64, n_blocks: &[u32]) -> Vec<Req> {
    let mut rng = Rng::new(seed, 100);
    let half = (QUERIES_PER_ENTRY / 2) as u64;
    (0..REQUESTS_PER_PASS)
        .map(|_| {
            let kind = rng.below(100);
            let archive = rng.below(n_blocks.len() as u64) as usize;
            match kind {
                0..=59 => Req::Query {
                    archive,
                    query: rng.below(half) as usize,
                },
                60..=79 => Req::QueryAsid {
                    archive,
                    query: (half + rng.below(half)) as usize,
                },
                80..=89 => Req::Fetch {
                    archive,
                    block: rng.below(u64::from(n_blocks[archive])) as u32,
                },
                90..=94 => Req::Catalog,
                _ => Req::Metrics,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_draws_the_same_inputs() {
        assert_eq!(placement_seed(7), placement_seed(7));
        assert_eq!(
            queries(7, 0, 456_204, &[1, 2]),
            queries(7, 0, 456_204, &[1, 2])
        );
        assert_eq!(
            requests(7, &[112, 112, 95, 95]),
            requests(7, &[112, 112, 95, 95])
        );
    }

    #[test]
    fn another_seed_draws_other_inputs() {
        assert_ne!(placement_seed(7), placement_seed(8));
        assert_ne!(
            queries(7, 0, 456_204, &[1, 2]),
            queries(8, 0, 456_204, &[1, 2])
        );
        assert_ne!(
            requests(7, &[112, 112, 95, 95]),
            requests(8, &[112, 112, 95, 95])
        );
        // And the two panel entries of one seed get different windows.
        assert_ne!(queries(7, 0, 456_204, &[1]), queries(7, 1, 456_204, &[1]));
    }

    #[test]
    fn queries_stay_inside_the_trace_and_come_in_two_halves() {
        let n = 100_000;
        let qs = queries(3, 1, n, &[4, 9]);
        assert_eq!(qs.len(), QUERIES_PER_ENTRY);
        for (i, q) in qs.iter().enumerate() {
            let (lo, hi) = q.window.unwrap();
            assert!(lo < hi && hi <= n);
            if i < QUERIES_PER_ENTRY / 2 {
                assert_eq!((q.asid, hi - lo), (None, WINDOW_WORDS));
            } else {
                assert!(matches!(q.asid, Some(4 | 9)));
                assert_eq!(hi - lo, ASID_WINDOW_WORDS);
            }
        }
        // A trace shorter than the window is queried whole.
        let short = queries(3, 0, 1000, &[4]);
        assert!(short.iter().all(|q| q.window == Some((0, 1000))));
    }

    #[test]
    fn the_request_mix_has_the_stated_shares_and_valid_targets() {
        let n_blocks = [112, 112, 95, 95];
        let reqs = requests(11, &n_blocks);
        assert_eq!(reqs.len(), REQUESTS_PER_PASS);
        let mut counts = [0usize; 5];
        for r in &reqs {
            match *r {
                Req::Query { archive, query } => {
                    assert!(archive < 4 && query < QUERIES_PER_ENTRY / 2);
                    counts[0] += 1;
                }
                Req::QueryAsid { archive, query } => {
                    assert!(archive < 4);
                    assert!((QUERIES_PER_ENTRY / 2..QUERIES_PER_ENTRY).contains(&query));
                    counts[1] += 1;
                }
                Req::Fetch { archive, block } => {
                    assert!(block < n_blocks[archive]);
                    counts[2] += 1;
                }
                Req::Catalog => counts[3] += 1,
                Req::Metrics => counts[4] += 1,
            }
        }
        // Within four standard deviations of 60/20/10/5/5 % of 2000.
        for (got, want) in counts.iter().zip([1200.0f64, 400.0, 200.0, 100.0, 100.0]) {
            let sd = (want * (1.0 - want / 2000.0)).sqrt();
            assert!((*got as f64 - want).abs() < 4.0 * sd, "{counts:?}");
        }
    }
}
