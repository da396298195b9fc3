//! Physically-indexed caches and the write buffer.
//!
//! The DECstation 5000/200 memory system the paper models: a 64 KB
//! direct-mapped instruction cache with 16-byte lines, a 64 KB
//! direct-mapped write-through data cache with 4-byte lines, and a
//! small write buffer that drains to memory at a fixed rate. Because
//! the caches are physically indexed and larger than a page, the
//! virtual-to-physical page mapping policy determines which lines
//! compete — the effect §4.2 and §5.1 attribute up to 10% of run time
//! to.
//!
//! Only tags are modelled: data always comes from simulated memory, so
//! the cache affects *timing and event counts*, never values.

/// Configuration of one direct-mapped cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheCfg {
    /// Total size in bytes (power of two).
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
}

/// A direct-mapped, tag-only cache.
pub struct Cache {
    cfg: CacheCfg,
    /// Tag per line; `u32::MAX` means invalid.
    tags: Vec<u32>,
    line_shift: u32,
    index_mask: u32,
    /// Bits of a line number that index `tags`; the rest are the tag.
    tag_shift: u32,
}

/// Tag value representing an invalid line.
const INVALID: u32 = u32::MAX;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if size or line are not powers of two, or size < line.
    pub fn new(cfg: CacheCfg) -> Cache {
        assert!(cfg.size.is_power_of_two() && cfg.line.is_power_of_two());
        assert!(cfg.size >= cfg.line);
        let lines = cfg.size / cfg.line;
        Cache {
            cfg,
            tags: vec![INVALID; lines as usize],
            line_shift: cfg.line.trailing_zeros(),
            index_mask: lines - 1,
            tag_shift: lines.trailing_zeros(),
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.tags.len() as u32
    }

    /// Where `paddr`'s line lives and the tag it carries there.
    #[inline]
    fn slot(&self, paddr: u32) -> (usize, u32) {
        let lineno = paddr >> self.line_shift;
        (
            (lineno & self.index_mask) as usize,
            lineno >> self.tag_shift,
        )
    }

    /// Accesses `paddr`; returns true on hit, allocating on miss.
    #[inline]
    pub fn access(&mut self, paddr: u32) -> bool {
        let (idx, tag) = self.slot(paddr);
        let hit = self.tags[idx] == tag;
        self.tags[idx] = tag;
        hit
    }

    /// A store to `paddr`: true on a hit, and a miss installs nothing
    /// (write-through, no-write-allocate; a hit keeps the line).
    #[inline]
    pub fn write_update(&mut self, paddr: u32) -> bool {
        let (idx, tag) = self.slot(paddr);
        self.tags[idx] == tag
    }

    /// Invalidates the line containing `paddr` (the `cache`
    /// instruction used by the kernel's flush routines).
    pub fn invalidate_line(&mut self, paddr: u32) {
        let (idx, _) = self.slot(paddr);
        self.tags[idx] = INVALID;
    }

    /// The configuration this cache was built with.
    pub fn cfg(&self) -> CacheCfg {
        self.cfg
    }
}

/// A FIFO write buffer draining one entry every `drain_cycles`.
///
/// Stores enter the buffer; when it is full the processor stalls until
/// the oldest entry retires. Retirement times are tracked as absolute
/// cycle numbers, so drain overlaps naturally with whatever else the
/// processor is doing — the overlap the paper's trace-driven simulator
/// does *not* model (§5.1, the `liv` error).
pub struct WriteBuffer {
    /// Completion times of in-flight entries (monotonic): a ring of
    /// `len` entries, the oldest at `head`.
    slots: [u64; WB_MAX],
    head: usize,
    len: usize,
    capacity: usize,
    drain_cycles: u64,
    last_completion: u64,
    /// Total cycles the processor has stalled on a full buffer.
    pub stall_cycles: u64,
    /// Total stall events.
    pub stalls: u64,
}

/// The deepest write buffer the ring holds.
const WB_MAX: usize = 8;

impl WriteBuffer {
    /// Creates a write buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= capacity <= WB_MAX`.
    pub fn new(capacity: usize, drain_cycles: u64) -> WriteBuffer {
        assert!((1..=WB_MAX).contains(&capacity), "write buffer depth");
        WriteBuffer {
            slots: [0; WB_MAX],
            head: 0,
            len: 0,
            capacity,
            drain_cycles,
            last_completion: 0,
            stall_cycles: 0,
            stalls: 0,
        }
    }

    /// Pushes a store at time `now`; returns the new current time
    /// (which is later than `now` if the processor had to stall).
    #[inline]
    pub fn push(&mut self, mut now: u64) -> u64 {
        while self.len > 0 && self.slots[self.head] <= now {
            self.pop_front();
        }
        if self.len >= self.capacity {
            // Stall until the oldest entry retires.
            let front = self.pop_front();
            self.stall_cycles += front - now;
            self.stalls += 1;
            now = front;
        }
        let start = self.last_completion.max(now);
        let done = start + self.drain_cycles;
        self.last_completion = done;
        self.slots[(self.head + self.len) % WB_MAX] = done;
        self.len += 1;
        now
    }

    /// Removes and returns the oldest entry (there must be one).
    #[inline]
    fn pop_front(&mut self) -> u64 {
        let front = self.slots[self.head];
        self.head = (self.head + 1) % WB_MAX;
        self.len -= 1;
        front
    }

    /// Number of entries still in flight at time `now`.
    pub fn in_flight(&self, now: u64) -> usize {
        (0..self.len)
            .filter(|k| self.slots[(self.head + k) % WB_MAX] > now)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The write buffer as it was before the ring: the reference.
    struct DequeBuffer {
        slots: VecDeque<u64>,
        capacity: usize,
        drain_cycles: u64,
        last_completion: u64,
        stall_cycles: u64,
        stalls: u64,
    }

    impl DequeBuffer {
        fn push(&mut self, mut now: u64) -> u64 {
            while self.slots.front().is_some_and(|&front| front <= now) {
                self.slots.pop_front();
            }
            if self.slots.len() >= self.capacity {
                let front = self.slots.pop_front().expect("capacity > 0");
                self.stall_cycles += front - now;
                self.stalls += 1;
                now = front;
            }
            let done = self.last_completion.max(now) + self.drain_cycles;
            self.last_completion = done;
            self.slots.push_back(done);
            now
        }

        fn in_flight(&self, now: u64) -> usize {
            self.slots.iter().filter(|&&t| t > now).count()
        }
    }

    proptest! {
        /// The ring is the deque: same time back from every push, same
        /// stall totals, same occupancy, at every depth it may have.
        #[test]
        fn ring_matches_the_deque_it_replaced(
            capacity in 1usize..9,
            drain in 1u64..21,
            gaps in proptest::collection::vec(0u64..30, 1..300),
        ) {
            let mut ring = WriteBuffer::new(capacity, drain);
            let mut deque = DequeBuffer {
                slots: VecDeque::new(),
                capacity,
                drain_cycles: drain,
                last_completion: 0,
                stall_cycles: 0,
                stalls: 0,
            };
            let mut now = 0;
            for gap in gaps {
                now += gap;
                let after = deque.push(now);
                prop_assert_eq!(ring.push(now), after);
                prop_assert_eq!(ring.stall_cycles, deque.stall_cycles);
                prop_assert_eq!(ring.stalls, deque.stalls);
                for t in [now, after, after + gap] {
                    prop_assert_eq!(ring.in_flight(t), deque.in_flight(t));
                }
                now = after;
            }
        }
    }

    #[test]
    fn the_ring_holds_the_decstation_write_buffer() {
        assert!((1..=WB_MAX).contains(&crate::dec5000::WB_ENTRIES));
        WriteBuffer::new(WB_MAX, 1);
        for bad in [0, WB_MAX + 1] {
            assert!(std::panic::catch_unwind(|| WriteBuffer::new(bad, 1)).is_err());
        }
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheCfg {
            size: 1024,
            line: 16,
        });
        assert!(!c.access(0)); // cold miss
        assert!(c.access(4)); // same line
        assert!(!c.access(1024)); // conflicting line
        assert!(!c.access(0)); // evicted
    }

    #[test]
    fn no_allocate_does_not_install() {
        let mut c = Cache::new(CacheCfg {
            size: 1024,
            line: 16,
        });
        assert!(!c.write_update(64));
        assert!(!c.write_update(64)); // still not resident
        c.access(64);
        assert!(c.write_update(64));
    }

    #[test]
    fn invalidate_line() {
        let mut c = Cache::new(CacheCfg {
            size: 1024,
            line: 16,
        });
        c.access(128);
        c.invalidate_line(128);
        assert!(!c.access(128));
    }

    #[test]
    fn write_buffer_stalls_when_full() {
        let mut wb = WriteBuffer::new(2, 10);
        let t0 = wb.push(0); // completes at 10
        assert_eq!(t0, 0);
        let t1 = wb.push(0); // completes at 20
        assert_eq!(t1, 0);
        let t2 = wb.push(0); // full: stall to 10
        assert_eq!(t2, 10);
        assert_eq!(wb.stall_cycles, 10);
        assert_eq!(wb.stalls, 1);
    }

    #[test]
    fn write_buffer_drains_over_time() {
        let mut wb = WriteBuffer::new(2, 10);
        wb.push(0);
        wb.push(0);
        // At cycle 100 everything has drained; no stall.
        let t = wb.push(100);
        assert_eq!(t, 100);
        assert_eq!(wb.stall_cycles, 0);
        assert_eq!(wb.in_flight(100), 1);
    }
}
