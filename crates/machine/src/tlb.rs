//! The software-managed translation lookaside buffer.
//!
//! A 64-entry fully-associative TLB with 4 KB pages, 6-bit address
//! space identifiers, and the R3000's random-replacement register:
//! `tlbwr` writes the entry indexed by Random, which cycles through
//! 8..63 (the low eight entries are "wired" and only reachable via
//! `tlbwi`). The kernel's 9-instruction UTLB refill handler and the
//! explicit `tlbdropin`/`tlb_map_random` writes both go through this
//! model, which is what makes Table 3's error structure reproducible.

/// One TLB entry, mirroring the EntryHi/EntryLo register pair.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (bits 31:12 of the vaddr).
    pub vpn: u32,
    /// Address-space identifier (0..63).
    pub asid: u8,
    /// Physical frame number.
    pub pfn: u32,
    /// Entry is valid.
    pub valid: bool,
    /// Page is writable ("dirty" in R3000 terms).
    pub dirty: bool,
    /// Entry matches regardless of ASID.
    pub global: bool,
    /// Accesses through this entry bypass the cache.
    pub noncacheable: bool,
}

impl TlbEntry {
    /// Packs the EntryHi register image.
    pub fn entry_hi(&self) -> u32 {
        (self.vpn << 12) | ((self.asid as u32) << 6)
    }

    /// Packs the EntryLo register image.
    pub fn entry_lo(&self) -> u32 {
        (self.pfn << 12)
            | ((self.noncacheable as u32) << 11)
            | ((self.dirty as u32) << 10)
            | ((self.valid as u32) << 9)
            | ((self.global as u32) << 8)
    }

    /// Unpacks from EntryHi/EntryLo register images.
    pub fn from_regs(hi: u32, lo: u32) -> TlbEntry {
        TlbEntry {
            vpn: hi >> 12,
            asid: ((hi >> 6) & 63) as u8,
            pfn: lo >> 12,
            noncacheable: lo & (1 << 11) != 0,
            dirty: lo & (1 << 10) != 0,
            valid: lo & (1 << 9) != 0,
            global: lo & (1 << 8) != 0,
        }
    }
}

/// Number of TLB entries.
pub const TLB_ENTRIES: usize = 64;
/// First entry index reachable by `tlbwr` (entries below are wired).
pub const TLB_WIRED: usize = 8;

/// The outcome of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLookup {
    /// Translation hit: physical address base and cacheability.
    Hit {
        /// Physical frame number.
        pfn: u32,
        /// Entry allows writes.
        dirty: bool,
        /// Bypass the cache for this page.
        noncacheable: bool,
    },
    /// No matching entry.
    Miss,
    /// Matching entry exists but is invalid.
    Invalid,
}

/// One remembered hit: `key` is `vpn << 8 | asid`, `lo` the EntryLo
/// image of the entry the scan found for it.
#[derive(Clone, Copy)]
struct Memo {
    key: u32,
    lo: u32,
}

/// A key no lookup forms (a vpn has 20 bits, the `u8` ASID 8).
const NO_MEMO: Memo = Memo {
    key: u32::MAX,
    lo: 0,
};

/// The memo slot of `vpn`: the top six bits of a multiplicative hash
/// (Fibonacci hashing), so that pages a power of two apart — kseg2's
/// page tables at vpn `0xc0000`, user text at `0x400`, data at
/// `0x10000` — do not share a slot as they do mod 64. Any slot is
/// exact: a write to the entries clears every slot.
#[inline]
fn memo_slot(vpn: u32) -> usize {
    (vpn.wrapping_mul(0x9e37_79b9) >> 26) as usize
}

/// The TLB array plus the Random replacement register.
pub struct Tlb {
    entries: [TlbEntry; TLB_ENTRIES],
    /// The Random register value (TLB_WIRED..TLB_ENTRIES).
    random: usize,
    /// Hits of [`Tlb::lookup`], one slot per [`memo_slot`], true as
    /// long as `entries` is unchanged: [`Tlb::forget`] clears them.
    memo: [Memo; TLB_ENTRIES],
    /// Counts the writes to `entries`.
    generation: u64,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// Creates an empty (all-invalid) TLB.
    pub fn new() -> Tlb {
        Tlb {
            entries: [TlbEntry::default(); TLB_ENTRIES],
            random: TLB_ENTRIES - 1,
            memo: [NO_MEMO; TLB_ENTRIES],
            generation: 0,
        }
    }

    /// `entries` is about to change: nothing remembered from it, here
    /// or by a holder of [`Tlb::generation`], is true any longer.
    fn forget(&mut self) {
        self.memo = [NO_MEMO; TLB_ENTRIES];
        self.generation += 1;
    }

    /// A number that moves whenever an entry is written: an answer of
    /// this TLB is good for as long as this reads the same.
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the Random register (called once per instruction
    /// cycle, as on the R3000).
    #[inline]
    pub fn tick(&mut self) {
        self.random = if self.random <= TLB_WIRED {
            TLB_ENTRIES - 1
        } else {
            self.random - 1
        };
    }

    /// Advances the Random register `n` times: `n` calls of
    /// [`Tlb::tick`], as arithmetic over its cycle of
    /// `TLB_ENTRIES - TLB_WIRED` values.
    #[inline]
    pub fn tick_by(&mut self, n: u64) {
        let span = TLB_ENTRIES - TLB_WIRED;
        let below_top = TLB_ENTRIES - 1 - self.random + (n % span as u64) as usize;
        self.random = TLB_ENTRIES - 1 - below_top % span;
    }

    /// Current Random register value.
    pub fn random(&self) -> usize {
        self.random
    }

    /// Looks up `vaddr` under `asid`: [`Tlb::scan`], with a hit
    /// remembered until the next write to the entries.
    #[inline]
    pub fn lookup(&mut self, vaddr: u32, asid: u8) -> TlbLookup {
        let vpn = vaddr >> 12;
        let key = (vpn << 8) | asid as u32;
        let m = self.memo[memo_slot(vpn)];
        if m.key != key {
            return self.remember(vaddr, asid);
        }
        TlbLookup::Hit {
            pfn: m.lo >> 12,
            dirty: m.lo & (1 << 10) != 0,
            noncacheable: m.lo & (1 << 11) != 0,
        }
    }

    /// [`Tlb::lookup`] of a key the memo does not hold: the scan, kept
    /// if it hit.
    #[inline(never)]
    fn remember(&mut self, vaddr: u32, asid: u8) -> TlbLookup {
        let hit = self.scan(vaddr, asid);
        if let TlbLookup::Hit {
            pfn,
            dirty,
            noncacheable,
        } = hit
        {
            let vpn = vaddr >> 12;
            self.memo[memo_slot(vpn)] = Memo {
                key: (vpn << 8) | asid as u32,
                lo: (pfn << 12) | (u32::from(noncacheable) << 11) | (u32::from(dirty) << 10),
            };
        }
        hit
    }

    /// Searches the entries for `vaddr` under `asid`, first match
    /// wins; remembers nothing.
    pub fn scan(&self, vaddr: u32, asid: u8) -> TlbLookup {
        let vpn = vaddr >> 12;
        for e in &self.entries {
            if e.vpn == vpn && (e.global || e.asid == asid) {
                if !e.valid {
                    return TlbLookup::Invalid;
                }
                return TlbLookup::Hit {
                    pfn: e.pfn,
                    dirty: e.dirty,
                    noncacheable: e.noncacheable,
                };
            }
        }
        TlbLookup::Miss
    }

    /// Probes for an entry matching EntryHi, returning its index
    /// (the `tlbp` instruction).
    pub fn probe(&self, hi: u32) -> Option<usize> {
        let vpn = hi >> 12;
        let asid = ((hi >> 6) & 63) as u8;
        self.entries
            .iter()
            .position(|e| e.vpn == vpn && (e.global || e.asid == asid))
    }

    /// Writes entry `index` (the `tlbwi` instruction).
    pub fn write_indexed(&mut self, index: usize, e: TlbEntry) {
        self.forget();
        self.entries[index % TLB_ENTRIES] = e;
    }

    /// Writes the entry selected by Random (the `tlbwr` instruction).
    pub fn write_random(&mut self, e: TlbEntry) -> usize {
        let i = self.random;
        self.forget();
        self.entries[i] = e;
        i
    }

    /// Reads entry `index` (the `tlbr` instruction).
    pub fn read_indexed(&self, index: usize) -> TlbEntry {
        self.entries[index % TLB_ENTRIES]
    }

    /// Invalidates every entry (used at boot and by tests).
    pub fn flush(&mut self) {
        self.forget();
        self.entries = [TlbEntry::default(); TLB_ENTRIES];
        // Leave `vpn = 0` entries harmless: mark all invalid and
        // non-matching by pointing them at distinct impossible pages.
        for (i, e) in self.entries.iter_mut().enumerate() {
            e.vpn = 0xfff00 + i as u32;
        }
    }

    /// Iterates over the entries (diagnostics, page-map extraction).
    pub fn entries(&self) -> &[TlbEntry; TLB_ENTRIES] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// What `lookup` remembers it forgets on time: after every
        /// write, flush and tick it answers as the scan does, for
        /// pages that share a slot mod 64, under duplicate, global and
        /// invalid entries and any ASID.
        #[test]
        fn memoised_lookup_equals_the_scan(ops in proptest::collection::vec(
            (0u8..8, any::<u32>(), 0u8..64, 0u8..8), 1..300))
        {
            // Nine pages, three to a slot mod 64.
            let page = |x: u32| 0x400 + x % 3 + 64 * (x / 3 % 3);
            let mut t = Tlb::new();
            t.flush();
            for (kind, x, asid, flags) in ops {
                // Half the entries crowd into ASIDs 0..4 so that they
                // match and shadow each other.
                let asid = if flags & 4 != 0 { asid % 4 } else { asid };
                let e = TlbEntry {
                    vpn: page(x),
                    asid,
                    pfn: x >> 12,
                    valid: flags & 1 != 0,
                    global: flags & 2 != 0,
                    dirty: x & 1 != 0,
                    noncacheable: false,
                };
                match kind {
                    0 | 1 => t.write_indexed((x >> 8) as usize, e),
                    2 | 3 => {
                        t.write_random(e);
                    }
                    4 if x % 16 == 0 => t.flush(),
                    _ => t.tick(),
                }
                for p in 0..9 {
                    for a in [0, 1, 2, 3, asid, 63] {
                        prop_assert_eq!(t.lookup(page(p) << 12, a), t.scan(page(p) << 12, a));
                    }
                }
            }
        }
    }

    proptest! {
        /// `tick_by(n)` is `n` ticks from every value Random can hold,
        /// for counts that wrap its 56-value cycle up to three times.
        #[test]
        fn tick_by_is_n_ticks(n in 0u64..200) {
            for start in TLB_WIRED..TLB_ENTRIES {
                let (mut by, mut one) = (Tlb::new(), Tlb::new());
                (by.random, one.random) = (start, start);
                by.tick_by(n);
                for _ in 0..n {
                    one.tick();
                }
                prop_assert_eq!(by.random(), one.random(), "from {} by {}", start, n);
            }
        }
    }

    fn entry(vpn: u32, asid: u8, pfn: u32) -> TlbEntry {
        TlbEntry {
            vpn,
            asid,
            pfn,
            valid: true,
            dirty: true,
            global: false,
            noncacheable: false,
        }
    }

    #[test]
    fn hit_requires_matching_asid() {
        let mut t = Tlb::new();
        t.flush();
        t.write_indexed(0, entry(0x123, 5, 0x77));
        assert_eq!(
            t.lookup(0x0012_3abc, 5),
            TlbLookup::Hit {
                pfn: 0x77,
                dirty: true,
                noncacheable: false
            }
        );
        assert_eq!(t.lookup(0x0012_3abc, 6), TlbLookup::Miss);
    }

    #[test]
    fn global_ignores_asid() {
        let mut t = Tlb::new();
        t.flush();
        let mut e = entry(0x40, 1, 0x10);
        e.global = true;
        t.write_indexed(3, e);
        assert!(matches!(t.lookup(0x0004_0000, 9), TlbLookup::Hit { .. }));
    }

    #[test]
    fn invalid_entry_reports_invalid() {
        let mut t = Tlb::new();
        t.flush();
        let mut e = entry(0x99, 0, 0x1);
        e.valid = false;
        t.write_indexed(1, e);
        assert_eq!(t.lookup(0x0009_9000, 0), TlbLookup::Invalid);
    }

    #[test]
    fn random_cycles_through_unwired() {
        let mut t = Tlb::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            t.tick();
            seen.insert(t.random());
        }
        assert!(seen.iter().all(|&i| (TLB_WIRED..TLB_ENTRIES).contains(&i)));
        assert_eq!(seen.len(), TLB_ENTRIES - TLB_WIRED);
    }

    #[test]
    fn register_images_round_trip() {
        let e = TlbEntry {
            vpn: 0xabcde,
            asid: 33,
            pfn: 0x00321,
            valid: true,
            dirty: false,
            global: true,
            noncacheable: true,
        };
        let e2 = TlbEntry::from_regs(e.entry_hi(), e.entry_lo());
        assert_eq!(e, e2);
    }

    #[test]
    fn probe_finds_index() {
        let mut t = Tlb::new();
        t.flush();
        t.write_indexed(42, entry(0x55, 2, 0x9));
        let hi = (0x55 << 12) | (2 << 6);
        assert_eq!(t.probe(hi), Some(42));
        assert_eq!(t.probe(0x66 << 12), None);
    }
}
