//! Memory-mapped devices: console, line clock, disk controller, and
//! the trace-analysis doorbell.
//!
//! Devices live at physical address [`DEV_BASE`], reachable by the
//! kernel through kseg1 (uncached) at `0xbc00_0000`. The disk models a
//! fixed per-operation latency that is *independent of CPU speed* —
//! exactly the property that produces the paper's time-dilation
//! distortion (§4.1): an instrumented system does ~15x less useful
//! work per disk service time, so I/O appears 15x faster to it.

/// Physical base address of the device page.
pub const DEV_BASE: u32 = 0x1c00_0000;
/// kseg1 virtual address of the device page (what kernels use).
pub const DEV_BASE_K1: u32 = 0xbc00_0000;

/// Device register offsets from [`DEV_BASE`].
pub mod regs {
    /// Write: transmit one byte to the console.
    pub const CONSOLE_TX: u32 = 0x00;
    /// Write: halt the machine with this exit code.
    pub const HALT: u32 = 0x04;
    /// Write: clock interrupt interval in cycles (0 disables).
    pub const CLOCK_INTERVAL: u32 = 0x08;
    /// Write: acknowledge (clear) the clock interrupt.
    pub const CLOCK_ACK: u32 = 0x0c;
    /// Write: disk block number for the next command.
    pub const DISK_BLOCK: u32 = 0x10;
    /// Write: physical memory address for disk DMA.
    pub const DISK_ADDR: u32 = 0x14;
    /// Write: disk command (1 = read, 2 = write); starts the operation.
    pub const DISK_CMD: u32 = 0x18;
    /// Read: 1 while an operation is in flight. Write: ack interrupt.
    pub const DISK_STAT: u32 = 0x1c;
    /// Write: ring the trace-analysis doorbell; the machine stops and
    /// returns control to the host analysis program.
    pub const TRACE_REQ: u32 = 0x20;
    /// Read: low word of the cycle counter.
    pub const CYCLES_LO: u32 = 0x24;
    /// Read: high word of the cycle counter.
    pub const CYCLES_HI: u32 = 0x28;
    /// Read: number of clock ticks raised since boot.
    pub const CLOCK_TICKS: u32 = 0x2c;
}

/// Interrupt line numbers (0..5 map to cause bits IP2..IP7).
pub mod irq {
    /// Disk-completion interrupt line.
    pub const DISK: u32 = 2;
    /// Line-clock interrupt line.
    pub const CLOCK: u32 = 3;
}

/// Disk block size in bytes (one page, as the kernels' buffer caches
/// use page-sized blocks).
pub const DISK_BLOCK_SIZE: u32 = 4096;

/// A pending disk operation.
#[derive(Clone, Copy, Debug)]
pub struct DiskOp {
    /// 1 = read, 2 = write.
    pub cmd: u32,
    /// Block number.
    pub block: u32,
    /// Physical DMA address.
    pub paddr: u32,
    /// Cycle at which the operation completes.
    pub done_at: u64,
}

/// Side effects a device write asks the machine to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DevAction {
    /// Nothing further.
    None,
    /// Halt the machine with an exit code.
    Halt(u32),
    /// Stop and hand control to the host trace-analysis program.
    TraceRequest(u32),
}

/// Device state.
pub struct Devices {
    /// Console output captured for the host.
    pub console: Vec<u8>,
    /// Clock interval in cycles (0 = disabled).
    pub clock_interval: u64,
    /// Next cycle at which the clock fires.
    pub clock_next: u64,
    /// Clock interrupt line currently asserted.
    pub clock_pending: bool,
    /// Ticks raised since boot.
    pub clock_ticks: u64,
    /// Disk contents.
    pub disk_image: Vec<u8>,
    /// In-flight disk operation.
    pub disk_op: Option<DiskOp>,
    /// Disk interrupt line currently asserted.
    pub disk_pending: bool,
    /// Fixed disk operation latency in cycles.
    pub disk_latency: u64,
    /// Staged DMA address.
    disk_addr: u32,
    /// Staged block number.
    disk_block: u32,
    /// Count of disk operations started.
    pub disk_ops: u64,
}

impl Devices {
    /// Creates the device complex with the given disk image and
    /// per-operation latency.
    pub fn new(disk_image: Vec<u8>, disk_latency: u64) -> Devices {
        Devices {
            console: Vec::new(),
            clock_interval: 0,
            clock_next: u64::MAX,
            clock_pending: false,
            clock_ticks: 0,
            disk_image,
            disk_op: None,
            disk_pending: false,
            disk_latency,
            disk_addr: 0,
            disk_block: 0,
            disk_ops: 0,
        }
    }

    /// True if `paddr` falls in the device page.
    #[inline]
    pub fn owns(paddr: u32) -> bool {
        (DEV_BASE..DEV_BASE + 0x1000).contains(&paddr)
    }

    /// Handles a word read from a device register.
    pub fn read(&mut self, paddr: u32, now: u64) -> u32 {
        match paddr - DEV_BASE {
            regs::DISK_STAT => u32::from(self.disk_op.is_some()),
            regs::CYCLES_LO => now as u32,
            regs::CYCLES_HI => (now >> 32) as u32,
            regs::CLOCK_TICKS => self.clock_ticks as u32,
            _ => 0,
        }
    }

    /// Handles a word write to a device register, returning any
    /// machine-level action required.
    pub fn write(&mut self, paddr: u32, v: u32, now: u64) -> DevAction {
        match paddr - DEV_BASE {
            regs::CONSOLE_TX => self.console.push(v as u8),
            regs::HALT => return DevAction::Halt(v),
            regs::CLOCK_INTERVAL => {
                self.clock_interval = v as u64;
                self.clock_next = if v == 0 { u64::MAX } else { now + v as u64 };
            }
            regs::CLOCK_ACK => self.clock_pending = false,
            regs::DISK_BLOCK => self.disk_block = v,
            regs::DISK_ADDR => self.disk_addr = v,
            regs::DISK_CMD
                // Ignore a second command while one is in flight; real
                // controllers would error, our kernels never do this.
                if self.disk_op.is_none() => {
                    self.disk_op = Some(DiskOp {
                        cmd: v,
                        block: self.disk_block,
                        paddr: self.disk_addr,
                        done_at: now + self.disk_latency,
                    });
                    self.disk_ops += 1;
                }
            regs::DISK_STAT => self.disk_pending = false,
            regs::TRACE_REQ => return DevAction::TraceRequest(v),
            _ => {}
        }
        DevAction::None
    }

    /// Earliest cycle at which a device event is due.
    pub fn next_due(&self) -> u64 {
        let disk = self.disk_op.map_or(u64::MAX, |op| op.done_at);
        self.clock_next.min(disk)
    }

    /// Advances device state to `now`; returns `(clock_line,
    /// disk_line, completed_op)`. The completed operation's DMA is the
    /// machine's job (it owns memory).
    pub fn tick(&mut self, now: u64) -> Option<DiskOp> {
        if now >= self.clock_next {
            self.clock_pending = true;
            self.clock_ticks += 1;
            // Skip any missed intervals rather than bursting.
            while self.clock_next <= now {
                self.clock_next += self.clock_interval.max(1);
            }
        }
        if let Some(op) = self.disk_op {
            if now >= op.done_at {
                self.disk_op = None;
                self.disk_pending = true;
                return Some(op);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_fires_and_acks() {
        let mut d = Devices::new(vec![], 100);
        d.write(DEV_BASE + regs::CLOCK_INTERVAL, 50, 0);
        assert_eq!(d.next_due(), 50);
        assert!(d.tick(49).is_none());
        assert!(!d.clock_pending);
        d.tick(50);
        assert!(d.clock_pending);
        assert_eq!(d.clock_ticks, 1);
        d.write(DEV_BASE + regs::CLOCK_ACK, 0, 55);
        assert!(!d.clock_pending);
        assert_eq!(d.next_due(), 100);
    }

    #[test]
    fn disk_completes_after_latency() {
        let mut d = Devices::new(vec![0u8; 8192], 1000);
        d.write(DEV_BASE + regs::DISK_BLOCK, 1, 0);
        d.write(DEV_BASE + regs::DISK_ADDR, 0x2000, 0);
        d.write(DEV_BASE + regs::DISK_CMD, 1, 0);
        assert_eq!(d.read(DEV_BASE + regs::DISK_STAT, 1), 1);
        assert!(d.tick(999).is_none());
        let op = d.tick(1000).unwrap();
        assert_eq!(op.block, 1);
        assert_eq!(op.paddr, 0x2000);
        assert!(d.disk_pending);
        assert_eq!(d.read(DEV_BASE + regs::DISK_STAT, 1001), 0);
    }

    #[test]
    fn halt_and_doorbell_actions() {
        let mut d = Devices::new(vec![], 10);
        assert_eq!(d.write(DEV_BASE + regs::HALT, 3, 0), DevAction::Halt(3));
        assert_eq!(
            d.write(DEV_BASE + regs::TRACE_REQ, 7, 0),
            DevAction::TraceRequest(7)
        );
    }

    #[test]
    fn console_collects_bytes() {
        let mut d = Devices::new(vec![], 10);
        for b in b"ok" {
            d.write(DEV_BASE + regs::CONSOLE_TX, *b as u32, 0);
        }
        assert_eq!(d.console, b"ok");
    }
}
