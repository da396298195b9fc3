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
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.tags.len() as u32
    }

    /// Accesses `paddr`; returns true on hit, allocating on miss.
    #[inline]
    pub fn access(&mut self, paddr: u32) -> bool {
        let lineno = paddr >> self.line_shift;
        let idx = (lineno & self.index_mask) as usize;
        let tag = lineno >> self.index_mask.trailing_ones();
        if self.tags[idx] == tag {
            true
        } else {
            self.tags[idx] = tag;
            false
        }
    }

    /// Accesses `paddr` without allocating on miss (write-through,
    /// no-write-allocate stores).
    #[inline]
    pub fn access_no_allocate(&mut self, paddr: u32) -> bool {
        let lineno = paddr >> self.line_shift;
        let idx = (lineno & self.index_mask) as usize;
        let tag = lineno >> self.index_mask.trailing_ones();
        self.tags[idx] == tag
    }

    /// Updates the line on a write hit (write-through keeps the line).
    #[inline]
    pub fn write_update(&mut self, paddr: u32) -> bool {
        self.access_no_allocate(paddr)
    }

    /// Invalidates the line containing `paddr` (the `cache`
    /// instruction used by the kernel's flush routines).
    pub fn invalidate_line(&mut self, paddr: u32) {
        let lineno = paddr >> self.line_shift;
        let idx = (lineno & self.index_mask) as usize;
        self.tags[idx] = INVALID;
    }

    /// Invalidates the whole cache.
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID);
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
    /// Completion times of in-flight entries (monotonic).
    slots: std::collections::VecDeque<u64>,
    capacity: usize,
    drain_cycles: u64,
    last_completion: u64,
    /// Total cycles the processor has stalled on a full buffer.
    pub stall_cycles: u64,
    /// Total stall events.
    pub stalls: u64,
}

impl WriteBuffer {
    /// Creates a write buffer with `capacity` entries.
    pub fn new(capacity: usize, drain_cycles: u64) -> WriteBuffer {
        WriteBuffer {
            slots: std::collections::VecDeque::with_capacity(capacity),
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
        while let Some(&front) = self.slots.front() {
            if front <= now {
                self.slots.pop_front();
            } else {
                break;
            }
        }
        if self.slots.len() >= self.capacity {
            // Stall until the oldest entry retires.
            let front = self.slots.pop_front().expect("capacity > 0");
            self.stall_cycles += front - now;
            self.stalls += 1;
            now = front;
        }
        let start = self.last_completion.max(now);
        let done = start + self.drain_cycles;
        self.last_completion = done;
        self.slots.push_back(done);
        now
    }

    /// Number of entries still in flight at time `now`.
    pub fn in_flight(&self, now: u64) -> usize {
        self.slots.iter().filter(|&&t| t > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!c.access_no_allocate(64));
        assert!(!c.access_no_allocate(64)); // still not resident
        c.access(64);
        assert!(c.access_no_allocate(64));
    }

    #[test]
    fn invalidate_line_and_all() {
        let mut c = Cache::new(CacheCfg {
            size: 1024,
            line: 16,
        });
        c.access(128);
        c.invalidate_line(128);
        assert!(!c.access(128));
        c.access(256);
        c.invalidate_all();
        assert!(!c.access(256));
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
