//! Virtual-to-physical page mapping policies.
//!
//! "The virtual to physical page map is determined by policy
//! implemented in the operating system, and can have significant
//! impact on memory system behavior" (§4.2): with 64 KB
//! physically-indexed caches and 4 KB pages there are sixteen page
//! colours, and the mapping decides which pages collide. The
//! trace-driven simulator either implements the policy itself or uses
//! a page map extracted from the running system.

use std::collections::HashSet;

use crate::sim::SpaceKey;

/// Page size in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// A 20-bit page number splits 10/10: a space is a directory of 1024
/// leaves, a leaf maps one 4 MiB region in 1024 frames.
const FANOUT: usize = 1024;
/// A leaf slot no mapping has written.
const UNMAPPED: u32 = u32::MAX;

type Leaf = [u32; FANOUT];
type Dir = [Option<Box<Leaf>>; FANOUT];

/// A page-mapping policy.
#[derive(Clone, Debug)]
pub enum Policy {
    /// Identity: pfn = vpn (bare-machine runs).
    Identity,
    /// First-free sequential allocation per address space, starting at
    /// `base_pfn` (deterministic — the Ultrix-like policy).
    FirstFree {
        /// First frame handed out.
        base_pfn: u32,
    },
    /// Uniform-random frame selection (the Mach 3.0 policy whose
    /// run-time variance §5.1 documents).
    Random {
        /// RNG seed; different seeds model different runs.
        seed: u64,
        /// Frames are drawn from `[base_pfn, base_pfn + frames)`.
        base_pfn: u32,
        /// Pool size in frames.
        frames: u32,
    },
}

/// A lazily-populated page map under some [`Policy`]: a two-level
/// page table per address space, so a translation is two indexed
/// loads. A space costs nothing until it maps a page, then an 8 KiB
/// directory plus 4 KiB per 4 MiB region it touches.
#[derive(Clone, Debug)]
pub struct PageMap {
    policy: Policy,
    spaces: [Option<Box<Dir>>; SpaceKey::COUNT],
    /// Mappings held; a remapped page counts once.
    len: usize,
    /// FirstFree: frames handed out so far, per space.
    next_free: [u32; SpaceKey::COUNT],
    rng_state: u64,
    used: HashSet<u32>,
}

impl PageMap {
    /// Creates an empty map under `policy`.
    pub fn new(policy: Policy) -> PageMap {
        let rng_state = match &policy {
            Policy::Random { seed, .. } => *seed | 1,
            _ => 1,
        };
        PageMap {
            policy,
            spaces: [const { None }; SpaceKey::COUNT],
            len: 0,
            next_free: [0; SpaceKey::COUNT],
            rng_state,
            used: HashSet::new(),
        }
    }

    /// Creates a map pre-populated from an extracted system page map
    /// (§4.2: "the traced Ultrix and Mach 3.0 kernels also provide the
    /// option of extracting the page-map from the running system").
    pub fn extracted(entries: impl IntoIterator<Item = ((SpaceKey, u32), u32)>) -> PageMap {
        let mut pm = PageMap::new(Policy::Identity);
        for (k, v) in entries {
            pm.insert(k, v);
        }
        pm
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// The frame `(space, vpn)` is mapped to, if any.
    fn get(&self, space: SpaceKey, vpn: u32) -> Option<u32> {
        let dir = self.spaces[space.index() as usize].as_ref()?;
        let pfn = dir[(vpn >> 10) as usize].as_ref()?[vpn as usize % FANOUT];
        (pfn != UNMAPPED).then_some(pfn)
    }

    /// Translates `(space, vpn)` to a frame, allocating on first use.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is wider than a 32-bit address's 20 bits.
    #[inline]
    pub fn frame(&mut self, space: SpaceKey, vpn: u32) -> u32 {
        match self.get(space, vpn) {
            Some(pfn) => pfn,
            None => self.allocate(space, vpn),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate(&mut self, space: SpaceKey, vpn: u32) -> u32 {
        let pfn = match self.policy {
            Policy::Identity => vpn,
            Policy::FirstFree { base_pfn } => {
                let next = &mut self.next_free[space.index() as usize];
                let pfn = base_pfn + *next + (space.index() << 8);
                *next += 1;
                pfn
            }
            Policy::Random {
                base_pfn, frames, ..
            } => {
                // Draw until an unused frame is found (the pool is
                // always much larger than the footprint).
                let mut pfn;
                loop {
                    pfn = base_pfn + (self.xorshift() % frames as u64) as u32;
                    if self.used.insert(pfn) {
                        break;
                    }
                }
                pfn
            }
        };
        self.insert((space, vpn), pfn);
        pfn
    }

    /// Translates a full virtual address.
    #[inline]
    pub fn translate(&mut self, space: SpaceKey, vaddr: u32) -> u32 {
        let pfn = self.frame(space, vaddr >> 12);
        (pfn << 12) | (vaddr & 0xfff)
    }

    /// Inserts an explicit mapping (extracted-map construction),
    /// replacing any earlier one.
    pub fn insert(&mut self, (space, vpn): (SpaceKey, u32), pfn: u32) {
        debug_assert_ne!(pfn, UNMAPPED, "a frame number below u32::MAX");
        let dir = self.spaces[space.index() as usize]
            .get_or_insert_with(|| Box::new([const { None }; FANOUT]));
        let slot = &mut dir[(vpn >> 10) as usize]
            .get_or_insert_with(|| Box::new([UNMAPPED; FANOUT]))[vpn as usize % FANOUT];
        self.len += usize::from(*slot == UNMAPPED);
        *slot = pfn;
    }

    /// Duplicates every mapping of `from` under `to` (threads share
    /// their parent's address space but trace under their own token);
    /// a page `to` already maps keeps its frame.
    pub fn duplicate_space(&mut self, from: SpaceKey, to: SpaceKey) {
        let Some(dir) = &self.spaces[from.index() as usize] else {
            return;
        };
        let mut dup = Vec::new();
        for (region, leaf) in dir.iter().enumerate() {
            for (page, &pfn) in leaf.iter().flat_map(|l| l.iter().enumerate()) {
                if pfn != UNMAPPED {
                    dup.push(((region * FANOUT + page) as u32, pfn));
                }
            }
        }
        for (vpn, pfn) in dup {
            if self.get(to, vpn).is_none() {
                self.insert((to, vpn), pfn);
            }
        }
    }

    /// Pages allocated so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn identity_policy() {
        let mut pm = PageMap::new(Policy::Identity);
        assert_eq!(pm.translate(SpaceKey::Kernel, 0x0123_4567), 0x0123_4567);
    }

    #[test]
    fn first_free_is_deterministic_and_stable() {
        let mut pm = PageMap::new(Policy::FirstFree { base_pfn: 0x100 });
        let a1 = pm.frame(SpaceKey::User(1), 0x400);
        let a2 = pm.frame(SpaceKey::User(1), 0x401);
        assert_eq!(a2, a1 + 1);
        // Same vpn again: same frame.
        assert_eq!(pm.frame(SpaceKey::User(1), 0x400), a1);
        // Different space gets a different frame.
        assert_ne!(pm.frame(SpaceKey::User(2), 0x400), a1);
    }

    #[test]
    fn random_policy_varies_with_seed_but_not_within_a_run() {
        let mut a = PageMap::new(Policy::Random {
            seed: 7,
            base_pfn: 0,
            frames: 4096,
        });
        let mut b = PageMap::new(Policy::Random {
            seed: 8,
            base_pfn: 0,
            frames: 4096,
        });
        let fa: Vec<u32> = (0..32).map(|v| a.frame(SpaceKey::User(0), v)).collect();
        let fb: Vec<u32> = (0..32).map(|v| b.frame(SpaceKey::User(0), v)).collect();
        assert_ne!(fa, fb);
        // Stability within a run.
        assert_eq!(a.frame(SpaceKey::User(0), 5), fa[5]);
        // No frame handed out twice.
        let set: std::collections::HashSet<_> = fa.iter().collect();
        assert_eq!(set.len(), fa.len());
    }

    #[test]
    fn extracted_map_passes_through() {
        let mut pm = PageMap::extracted([((SpaceKey::User(3), 0x400), 0x77)]);
        assert_eq!(pm.translate(SpaceKey::User(3), 0x0040_0123), 0x0007_7123);
    }

    /// The map this one replaced, kept as the reference: one hash map
    /// over `(space, vpn)`, the same policies and the same draws.
    struct Model {
        policy: Policy,
        map: HashMap<(SpaceKey, u32), u32>,
        next_free: HashMap<SpaceKey, u32>,
        rng: u64,
        used: HashSet<u32>,
    }

    impl Model {
        fn new(policy: Policy) -> Model {
            let rng = match policy {
                Policy::Random { seed, .. } => seed | 1,
                _ => 1,
            };
            Model {
                policy,
                map: HashMap::new(),
                next_free: HashMap::new(),
                rng,
                used: HashSet::new(),
            }
        }

        fn frame(&mut self, space: SpaceKey, vpn: u32) -> u32 {
            if let Some(&pfn) = self.map.get(&(space, vpn)) {
                return pfn;
            }
            let pfn = match self.policy {
                Policy::Identity => vpn,
                Policy::FirstFree { base_pfn } => {
                    let next = self.next_free.entry(space).or_insert(0);
                    *next += 1;
                    base_pfn + *next - 1 + (space.index() << 8)
                }
                Policy::Random {
                    base_pfn, frames, ..
                } => loop {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    let pfn = base_pfn + (self.rng % frames as u64) as u32;
                    if self.used.insert(pfn) {
                        break pfn;
                    }
                },
            };
            self.map.insert((space, vpn), pfn);
            pfn
        }

        fn duplicate_space(&mut self, from: SpaceKey, to: SpaceKey) {
            let dup: Vec<(u32, u32)> = self
                .map
                .iter()
                .filter(|((s, _), _)| *s == from)
                .map(|(&(_, vpn), &pfn)| (vpn, pfn))
                .collect();
            for (vpn, pfn) in dup {
                self.map.entry((to, vpn)).or_insert(pfn);
            }
        }
    }

    /// Interleaved `frame` / `insert` / `duplicate_space` over the
    /// kernel and all 256 ASIDs, under all three policies: the same
    /// frame for every translation, the same `len` after every step,
    /// and the same mappings at the end.
    #[test]
    fn the_page_table_matches_the_hash_map_it_replaced() {
        let policies = [
            Policy::Identity,
            Policy::FirstFree { base_pfn: 0x2000 },
            Policy::Random {
                seed: 11,
                base_pfn: 0x2000,
                frames: 1 << 20,
            },
        ];
        for policy in policies {
            let mut pm = PageMap::new(policy.clone());
            let mut m = Model::new(policy.clone());
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            // Spaces and pages drawn so that most repeat: a handful of
            // ASIDs, the kernel, six regions and 32 pages in each,
            // with a few draws from the whole range.
            let mut draw = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let space = match x % 8 {
                    0 => SpaceKey::Kernel,
                    1 => SpaceKey::User((x >> 8) as u8),
                    _ => SpaceKey::User([0, 1, 2, 255][(x >> 3) as usize % 4]),
                };
                let region = match (x >> 16) % 8 {
                    6 | 7 => (x >> 20) as u32 % 1024,
                    r => [0, 1, 5, 511, 768, 1023][r as usize],
                };
                (x, space, (region << 10) | ((x >> 40) as u32 % 32))
            };
            for i in 0..30_000 {
                let (r, space, vpn) = draw();
                match (r >> 56) % 128 {
                    0 => {
                        let (_, to, _) = draw();
                        pm.duplicate_space(space, to);
                        m.duplicate_space(space, to);
                    }
                    1..=4 => {
                        let pfn = (r >> 12) as u32 & 0xf_ffff;
                        pm.insert((space, vpn), pfn);
                        m.map.insert((space, vpn), pfn);
                    }
                    _ => assert_eq!(
                        pm.frame(space, vpn),
                        m.frame(space, vpn),
                        "{policy:?} step {i}: {space:?} {vpn:#x}"
                    ),
                }
                assert_eq!(pm.len(), m.map.len(), "{policy:?} step {i}");
            }
            assert!(m.map.len() > 2000, "{policy:?}: {} pages", m.map.len());
            for (&(space, vpn), &pfn) in &m.map {
                assert_eq!(pm.get(space, vpn), Some(pfn));
            }
        }
    }

    /// The resource bound DESIGN.md states: a space is a directory
    /// plus one leaf per 4 MiB region touched. One page in each of a
    /// space's 1024 regions allocates 1024 leaves; touching those pages
    /// again, or their neighbours, allocates nothing.
    #[test]
    fn a_page_map_costs_the_regions_it_touched() {
        let leaves = |pm: &PageMap| -> Vec<usize> {
            pm.spaces
                .iter()
                .flatten()
                .map(|dir| dir.iter().flatten().count())
                .collect()
        };
        let mut pm = PageMap::new(Policy::FirstFree { base_pfn: 0 });
        assert!(leaves(&pm).is_empty(), "an empty map holds no directory");
        for region in 0..1024 {
            pm.frame(SpaceKey::User(9), (region << 10) | 7);
        }
        assert_eq!((leaves(&pm), pm.len()), (vec![1024], 1024));
        for region in 0..1024 {
            pm.frame(SpaceKey::User(9), (region << 10) | 7);
        }
        assert_eq!((leaves(&pm), pm.len()), (vec![1024], 1024));
        for region in 0..1024 {
            pm.frame(SpaceKey::User(9), (region << 10) | 8);
        }
        assert_eq!((leaves(&pm), pm.len()), (vec![1024], 2048));
    }
}
