//! Property-based tests of the analysis side: page-map invariants and
//! simulator conservation laws.

use proptest::prelude::*;
use wrl_isa::Width;
use wrl_memsim::pagemap::{PageMap, Policy};
use wrl_memsim::sim::{MemSim, SpaceKey};
use wrl_trace::parser::{Space, TraceSink};

proptest! {
    /// The random policy never hands the same frame to two pages, and
    /// every frame stays inside the configured pool.
    #[test]
    fn random_policy_is_injective(vpns in proptest::collection::hash_set(0u32..0x2000, 1..300),
                                  seed in any::<u64>()) {
        let mut pm = PageMap::new(Policy::Random { seed, base_pfn: 0x2000, frames: 4096 });
        let mut frames = std::collections::HashSet::new();
        for vpn in &vpns {
            let f = pm.frame(SpaceKey::User(1), *vpn);
            prop_assert!((0x2000..0x2000 + 4096).contains(&f));
            prop_assert!(frames.insert(f), "frame {f:#x} reused");
        }
        // Stability: a second pass returns identical frames.
        for vpn in &vpns {
            let f = pm.frame(SpaceKey::User(1), *vpn);
            prop_assert!(frames.contains(&f));
        }
    }

    /// Distinct address spaces never share frames under either
    /// allocating policy.
    #[test]
    fn spaces_are_disjoint(vpns in proptest::collection::vec(0u32..0x1000, 1..100),
                           random in any::<bool>()) {
        let policy = if random {
            Policy::Random { seed: 11, base_pfn: 0, frames: 8192 }
        } else {
            Policy::FirstFree { base_pfn: 0 }
        };
        let mut pm = PageMap::new(policy);
        let a: std::collections::HashSet<u32> =
            vpns.iter().map(|&v| pm.frame(SpaceKey::User(1), v)).collect();
        let b: std::collections::HashSet<u32> =
            vpns.iter().map(|&v| pm.frame(SpaceKey::User(2), v)).collect();
        prop_assert!(a.is_disjoint(&b));
    }

    /// Simulator conservation: reference counts in equal the stats
    /// out, and cycles never decrease.
    #[test]
    fn memsim_conserves_references(refs in proptest::collection::vec(
        (0u32..0x0200_0000, any::<bool>(), any::<bool>()), 1..500))
    {
        let mut sim = MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x100 }))
            .without_utlb_synthesis();
        let mut want_i = 0u64;
        let mut want_d = 0u64;
        let mut last_cycles = 0;
        for (va, is_iref, store) in refs {
            if is_iref {
                sim.irefs(va, 1, Space::User(1), false);
                want_i += 1;
            } else {
                sim.dref(va, store, Width::Word, Space::User(1));
                want_d += 1;
            }
            prop_assert!(sim.cycles >= last_cycles);
            last_cycles = sim.cycles;
        }
        prop_assert_eq!(sim.stats.user_irefs, want_i);
        prop_assert_eq!(sim.stats.user_drefs, want_d);
        // Each iref costs at least one cycle.
        prop_assert!(sim.cycles >= want_i);
        // Cycle attribution partitions (no synthesis in this config).
        prop_assert!(sim.stats.user_cycles <= sim.cycles);
    }

    /// With UTLB synthesis on, every synthesized burst is nine
    /// instruction references (our handler length), and misses only
    /// ever grow with footprint.
    #[test]
    fn utlb_synthesis_ratio(pages in proptest::collection::vec(0u32..512, 1..300)) {
        let mut sim = MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x100 }));
        for p in &pages {
            sim.dref(0x0100_0000 + p * 4096, false, Width::Word, Space::User(1));
        }
        prop_assert_eq!(sim.stats.synth_irefs, 9 * sim.stats.utlb_misses);
        let distinct = pages.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        prop_assert!(sim.stats.utlb_misses >= distinct.min(1));
        prop_assert!(sim.stats.utlb_misses <= pages.len() as u64);
    }
}

proptest! {
    /// The set-associative LRU cache agrees with a naive
    /// recently-used-list oracle on hit/miss for every access, over
    /// direct-mapped, 2-, 4-, 8-way and fully associative geometries
    /// and one-set caches of 1-byte lines, whose tags are whole
    /// addresses (so no tag value can mean "empty").
    #[test]
    fn assoc_cache_matches_lru_oracle(
        draws in proptest::collection::vec((0u32..(1 << 14), any::<u32>(), 0u8..8), 1..500),
    ) {
        let geoms = [(1024u32, 16u32, 1usize), (1024, 16, 2), (2048, 32, 4), (512, 16, 8),
                     (256, 16, 16), (8, 1, 8), (1, 1, 1)];
        for (size, line, ways) in geoms {
            let mut c = wrl_memsim::AssocCache::new(size, line, ways);
            // Oracle: per set, a Vec of tags in MRU-first order.
            let nsets = (size / line) as usize / ways;
            let mut oracle: Vec<Vec<u32>> = vec![Vec::new(); nsets];
            let mut misses = 0u64;
            for &(lo, wild, pick) in &draws {
                // Mostly a pool three times the cache, so sets fill,
                // hit at every depth and evict; now and then a wider
                // range or any address at all.
                let a = match pick {
                    0 => wild,
                    1 => lo,
                    _ => lo % (3 * size),
                };
                let lineno = a / line;
                let set = (lineno as usize) % nsets;
                let tag = lineno / nsets as u32;
                let want_hit = oracle[set].contains(&tag);
                if want_hit {
                    let pos = oracle[set].iter().position(|&t| t == tag).unwrap();
                    oracle[set].remove(pos);
                } else {
                    misses += 1;
                    if oracle[set].len() == ways {
                        oracle[set].pop();
                    }
                }
                oracle[set].insert(0, tag);
                prop_assert_eq!(c.access(a), want_hit, "{}/{}/{} addr {:#x}", size, line, ways, a);
            }
            prop_assert_eq!(c.accesses, draws.len() as u64);
            prop_assert_eq!(c.misses, misses);
        }
    }

    /// A run of `k` word accesses is `k` accesses, one at a time: the
    /// same hits and misses on every access after it, at 1, 2 and 4
    /// ways, for runs from any byte offset that cross up to ten lines.
    #[test]
    fn assoc_cache_run_is_k_accesses(
        ops in proptest::collection::vec((0u32..(1 << 12), 1u32..40, any::<bool>()), 1..300),
    ) {
        for ways in [1usize, 2, 4] {
            let mut run = wrl_memsim::AssocCache::new(256, 16, ways);
            let mut one = wrl_memsim::AssocCache::new(256, 16, ways);
            for &(pa, k, single) in &ops {
                if single {
                    prop_assert_eq!(run.access(pa), one.access(pa), "{} ways at {:#x}", ways, pa);
                } else {
                    run.access_run(pa, k);
                    for i in 0..k {
                        one.access(pa + 4 * i);
                    }
                }
                prop_assert_eq!((run.accesses, run.misses), (one.accesses, one.misses));
            }
        }
    }

    /// Increasing associativity at fixed size never increases the
    /// miss count for these workload-like streams (LRU inclusion
    /// holds per set only in the fully-associative limit, but for
    /// sequential+reuse streams the design curve must be monotone).
    #[test]
    fn fully_associative_is_best_for_small_working_sets(
        base in 0u32..64,
        n in 1usize..200,
    ) {
        // A working set that fits the cache: loop over it twice.
        let addrs: Vec<u32> = (0..n as u32).map(|k| (base + k) * 16 % 1024).collect();
        let mut direct = wrl_memsim::AssocCache::new(1024, 16, 1);
        let mut full = wrl_memsim::AssocCache::new(1024, 16, 64);
        for pass in 0..2 {
            for &a in &addrs {
                direct.access(a);
                full.access(a);
                let _ = pass;
            }
        }
        // The fully-associative cache holds the whole set: second
        // pass is all hits, so its misses equal distinct lines.
        let distinct = {
            let mut v: Vec<u32> = addrs.iter().map(|a| a / 16).collect();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        prop_assert_eq!(full.misses, distinct);
        prop_assert!(full.misses <= direct.misses);
    }
}
