//! The whole-machine simulator.
//!
//! Executes W3K code with R3000 semantics (branch delay slots,
//! software-refilled TLB, precise exceptions) and a DECstation
//! 5000/200-style timing model: one cycle per issued instruction plus
//! cache-miss penalties, write-buffer stalls, floating-point
//! interlocks and uncached-access penalties, with all of those
//! *overlapping* as they do in hardware. This is the "real machine"
//! side of the paper's validation: its cycle counter is the
//! high-resolution timer of Table 2, and its UTLB-refill counter is
//! the TLB miss counter of Table 3.

use crate::cache::{Cache, WriteBuffer};
use crate::counters::Counters;
use crate::cp0::{Cp0, ExcCode, Exception};
use crate::dec5000::{self, lat};
use crate::dev::{irq, DevAction, Devices, DISK_BLOCK_SIZE};
use crate::mem::Mem;
use crate::tlb::{Tlb, TlbLookup};
use wrl_isa::reg::RA;
use wrl_isa::{seg, Executable, FReg, Inst, Reg};

/// Machine configuration: what differs between the runs of one
/// DECstation. Everything the hardware fixes is a constant of
/// [`crate::dec5000`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Physical memory size in bytes.
    pub mem_bytes: u32,
    /// Bare mode: no kernel — kuseg is identity-mapped without TLB
    /// refills, and `syscall`/`break` return control to the host.
    /// Used for standalone program runs (pixie-style estimates,
    /// instrumentation verification, workload unit tests).
    pub bare: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mem_bytes: 32 << 20,
            bare: false,
        }
    }
}

impl Config {
    /// Bare-machine configuration for standalone user programs.
    pub fn bare() -> Config {
        Config {
            bare: true,
            ..Config::default()
        }
    }
}

/// Why the machine stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopEvent {
    /// A store to the HALT device register; payload is the exit code.
    Halted(u32),
    /// A store to the TRACE_REQ doorbell: the host trace-analysis
    /// program should run (§3.1's switch to trace-analysis mode).
    TraceRequest(u32),
    /// Bare mode: a `syscall` reached the host; payload is the code
    /// field. The machine has already advanced past the instruction.
    Syscall(u32),
    /// Bare mode: a `break` reached the host.
    Break(u32),
    /// The instruction budget given to [`Machine::run`] was exhausted.
    Budget,
    /// An exception was raised with no handler installed (bare mode
    /// only); payload is the cause code.
    UnhandledException(u8),
}

/// A memory reference observed by the optional reference tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefEvent {
    /// Instruction fetch at a virtual address.
    Ifetch {
        /// Virtual address of the instruction.
        vaddr: u32,
        /// True if executed in user mode.
        user: bool,
    },
    /// Data load.
    Load {
        /// Virtual address loaded.
        vaddr: u32,
        /// True if executed in user mode.
        user: bool,
    },
    /// Data store.
    Store {
        /// Virtual address stored.
        vaddr: u32,
        /// True if executed in user mode.
        user: bool,
    },
}

/// Callback type receiving reference events.
pub type RefTracer = Box<dyn FnMut(RefEvent)>;

/// CPU architectural state.
#[derive(Clone, PartialEq)]
pub struct Cpu {
    /// General-purpose registers (`regs[0]` is forced to zero).
    pub regs: [u32; 32],
    /// FP register words (doubles in even/odd little-endian pairs).
    pub fregs: [u32; 32],
    /// FP condition bit.
    pub fcc: bool,
    /// HI register.
    pub hi: u32,
    /// LO register.
    pub lo: u32,
    /// Address of the next instruction to execute.
    pub pc: u32,
    /// Address of the instruction after that (branch target capture).
    pub next_pc: u32,
}

impl Cpu {
    fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            fregs: [0; 32],
            fcc: false,
            hi: 0,
            lo: 0,
            pc: 0,
            next_pc: 4,
        }
    }

    /// Reads a double from an even/odd FP register pair.
    pub fn get_d(&self, f: u8) -> f64 {
        let lo = self.fregs[f as usize & 30] as u64;
        let hi = self.fregs[(f as usize & 30) + 1] as u64;
        f64::from_bits(lo | (hi << 32))
    }

    /// Writes a double to an even/odd FP register pair.
    pub fn set_d(&mut self, f: u8, v: f64) {
        let bits = v.to_bits();
        self.fregs[f as usize & 30] = bits as u32;
        self.fregs[(f as usize & 30) + 1] = (bits >> 32) as u32;
    }
}

/// The machine: CPU, CP0/TLB, memory, caches, devices, counters.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// System control coprocessor.
    pub cp0: Cp0,
    /// The TLB.
    pub tlb: Tlb,
    /// Physical memory.
    pub mem: Mem,
    /// Devices.
    pub dev: Devices,
    /// Event counters.
    pub counters: Counters,
    bare: bool,
    icache: Cache,
    dcache: Cache,
    wb: WriteBuffer,
    // Scoreboards: FP register pairs (at their even index), the FP
    // condition bit, HI/LO.
    fp: [Ready; 32],
    fcc: Ready,
    hilo: Ready,
    /// True if the instruction about to execute sits in a delay slot.
    next_is_delay: bool,
    /// The idle-loop PC range `[lo, hi)` as `(lo, hi - lo)`: a PC is
    /// in it if `pc - lo < len`. `(0, 0)` when unset.
    idle: (u32, u32),
    /// Optional reference tracer.
    tracer: Option<RefTracer>,
    halted: Option<StopEvent>,
    /// A stop for the host, returned before anything else happens.
    stop: Option<StopEvent>,
    fetching: FetchPage,
    /// The cycle at which `run` next looks past the instruction: 0
    /// while an enabled interrupt is pending, else the next device
    /// event. Whatever can move either sets it to 0 ([`Machine::moved`]),
    /// and [`Machine::settle`] derives it again.
    horizon: u64,
    /// User mode, as of the last [`Machine::settle`]: the mode the
    /// instructions since `mode_from` were fetched in.
    user: bool,
    /// Instructions retired: `counters.insts()` plus those retired
    /// since the run began.
    retired: u64,
    /// `retired` when the mode was last settled.
    mode_from: u64,
    /// Fetches that did not retire: Random ticks on those too.
    unretired: u64,
    /// `retired + unretired` when Random was last brought up to date.
    ticked: u64,
    /// What `run` saw at the last arrival at the idle-loop head; `None`
    /// after an edge or a re-entry.
    spin: Option<Spin>,
    /// Idle-loop iterations `run` has jumped rather than executed.
    skipped: u64,
}

/// An arrival at the idle-loop head, outside a delay slot.
struct Spin {
    /// [`Counters::effects`] here.
    effects: u64,
    /// Cycles, instructions retired and idle instructions here.
    at: [u64; 3],
    /// The state here — CPU, CP0, [`Tlb::generation`] and the fetch
    /// page's I-cache line — taken once an iteration has passed with no
    /// side effect, so a traced spin, which stores, never copies it.
    state: Option<(Cpu, Cp0, (u64, u32))>,
}

/// The page the machine is fetching from: what the last full resolution of
/// a PC learned, good for the next fetch while `vpage` compares equal.
/// [`Machine::settle`] drops it when `ctx` or `tlb_generation` moved.
#[derive(Clone, Copy)]
struct FetchPage {
    /// `pc & FETCH_PAGE` of an aligned PC in the page, so one compare
    /// covers page and alignment; `u32::MAX` (which no PC masks to)
    /// when no page is held.
    vpage: u32,
    /// [`Cp0::fetch_ctx`] when the page was resolved.
    ctx: u32,
    /// [`Tlb::generation`] when the page was resolved.
    tlb_generation: u64,
    /// Physical base of the page, all of it inside memory.
    pbase: u32,
    /// Which of the page's instructions the idle range holds.
    idle: Idle,
    /// Fetches go through the I-cache (cacheable page, IsC clear).
    through_cache: bool,
    /// Physical number of the I-cache line the last fetch touched —
    /// still resident, since only a fetch or a `cache` op touches the
    /// I-cache — or `u32::MAX` after a `cache` op or a new page.
    line: u32,
}

/// Which of a fetch page's instructions the idle range holds.
#[derive(Clone, Copy)]
enum Idle {
    /// None of them.
    None,
    /// All of them.
    All,
    /// Some: test each PC.
    Some,
}

/// The [`Idle`] class of the page at `vbase`, for the idle range
/// `(lo, len)`.
fn idle_class((lo, len): (u32, u32), vbase: u32) -> Idle {
    let (lo, hi) = (u64::from(lo), u64::from(lo) + u64::from(len));
    let (base, end) = (u64::from(vbase), u64::from(vbase) + 0x1000);
    if hi <= base || end <= lo {
        Idle::None
    } else if lo <= base && end <= hi {
        Idle::All
    } else {
        Idle::Some
    }
}

/// The bits of a PC that name its page and its alignment.
const FETCH_PAGE: u32 = 0xffff_f003;
/// `paddr >> ILINE_SHIFT` is the number of an I-cache line.
const ILINE_SHIFT: u32 = dec5000::ICACHE.line.trailing_zeros();

/// One scoreboard cell: the absolute cycle at which a resource is
/// ready, on the real clock and on the ideal clock (1 IPC, perfect
/// memory) of the pixie-style arithmetic-stall estimate.
#[derive(Clone, Copy, Default)]
struct Ready {
    real: u64,
    ideal: u64,
}

enum Access {
    Fetch,
    Load,
    Store,
}

impl Machine {
    /// Creates a machine with the given configuration and disk image.
    pub fn new(cfg: Config, disk_image: Vec<u8>) -> Machine {
        let mut tlb = Tlb::new();
        tlb.flush();
        Machine {
            cpu: Cpu::new(),
            cp0: Cp0::new(),
            tlb,
            mem: Mem::new(cfg.mem_bytes),
            dev: Devices::new(disk_image, dec5000::DISK_LATENCY),
            counters: Counters::default(),
            icache: Cache::new(dec5000::ICACHE),
            dcache: Cache::new(dec5000::DCACHE),
            wb: WriteBuffer::new(dec5000::WB_ENTRIES, dec5000::WB_DRAIN_CYCLES),
            bare: cfg.bare,
            fp: [Ready::default(); 32],
            fcc: Ready::default(),
            hilo: Ready::default(),
            next_is_delay: false,
            idle: (0, 0),
            tracer: None,
            halted: None,
            stop: None,
            fetching: FetchPage {
                vpage: u32::MAX,
                ctx: 0,
                tlb_generation: 0,
                pbase: 0,
                idle: Idle::None,
                through_cache: false,
                line: u32::MAX,
            },
            horizon: 0,
            user: false,
            retired: 0,
            mode_from: 0,
            unretired: 0,
            ticked: 0,
            spin: None,
            skipped: 0,
        }
    }

    /// Idle-loop iterations [`Machine::run`] has jumped over rather than
    /// executed, since the machine was made.
    pub fn skipped_idle_iterations(&self) -> u64 {
        self.skipped
    }

    /// Total cycles elapsed (wraps the counter for convenience).
    pub fn cycles(&self) -> u64 {
        self.counters.cycles
    }

    /// Sets the PC (and clears any pending branch).
    pub fn set_pc(&mut self, pc: u32) {
        self.cpu.pc = pc;
        self.cpu.next_pc = pc.wrapping_add(4);
        self.next_is_delay = false;
    }

    /// Configures the idle-loop PC range `[lo, hi)` for idle-time
    /// accounting (the "measured idle" side of §5.1).
    pub fn set_idle_range(&mut self, range: Option<(u32, u32)>) {
        self.idle = range.map_or((0, 0), |(lo, hi)| (lo, hi.saturating_sub(lo)));
        self.fetching.vpage = u32::MAX;
    }

    /// Installs a reference tracer receiving every I/D reference (the
    /// independent "CPU simulator" trace of §4.3).
    pub fn set_tracer(&mut self, t: Option<RefTracer>) {
        self.tracer = t;
    }

    /// Loads an executable image into physical memory.
    ///
    /// kseg0/kseg1 addresses go where [`seg::unmapped`] puts them;
    /// kuseg addresses are placed identity-mapped (bare runs) unless a
    /// page map is supplied via [`Machine::load_segment_mapped`].
    pub fn load_executable(&mut self, exe: &Executable) {
        let to_phys = |v: u32| seg::unmapped(v).map_or(v, |(paddr, _)| paddr);
        for (i, w) in exe.text.iter().enumerate() {
            self.mem
                .write_word(to_phys(exe.text_base) + (i as u32) * 4, *w);
        }
        self.mem.write_bytes(to_phys(exe.data_base), &exe.data);
        // bss is already zero (fresh memory) for initial loads; clear
        // explicitly in case of reuse.
        for off in (0..exe.bss_size).step_by(4) {
            self.mem.write_word(to_phys(exe.bss_base) + off, 0);
        }
    }

    /// Copies a byte slice to a physical address (segment loading
    /// under an explicit page map).
    pub fn load_segment_mapped(&mut self, paddr: u32, bytes: &[u8]) {
        self.mem.write_bytes(paddr, bytes);
    }

    /// Reads a word at a virtual address without side effects, using
    /// the current TLB state (host diagnostics, the analysis program's
    /// `/dev/kmem` view).
    pub fn peek_virt_word(&self, vaddr: u32) -> Option<u32> {
        let paddr = self.probe_translate(vaddr)?;
        if !self.mem.in_range(paddr, 4) {
            return None;
        }
        Some(self.mem.read_word(paddr & !3))
    }

    /// Translates a virtual address as the kernel would see it, with
    /// no side effects: no mode check, no counter, no exception. This
    /// is the read-only half of the architectural `translate`, not a
    /// second map — nothing that acts on the machine goes through it.
    pub fn probe_translate(&self, vaddr: u32) -> Option<u32> {
        if self.bare && vaddr < 0x8000_0000 {
            return Some(vaddr);
        }
        // The unmapped segments answer before the TLB is searched:
        // Mach's cache-flush loop asks once per line.
        if let Some((paddr, _)) = seg::unmapped(vaddr) {
            return Some(paddr);
        }
        match self.tlb.scan(vaddr, self.cp0.asid()) {
            TlbLookup::Hit { pfn, .. } => Some((pfn << 12) | (vaddr & 0xfff)),
            _ => None,
        }
    }

    /// Runs until a stop event or until `max_insts` instructions
    /// retire. An idle loop that spins with no side effect, while no
    /// reference tracer is installed, is not executed iteration by
    /// iteration: whole iterations up to the next device event or the
    /// end of the budget are added to the counts at once, leaving
    /// every counter, Random and the state as [`Machine::step`] would.
    pub fn run(&mut self, max_insts: u64) -> StopEvent {
        if let Some(e) = self.halted {
            return e;
        }
        self.enter();
        let target = self.retired + max_insts;
        while self.retired < target {
            if self.counters.cycles >= self.horizon && self.edge() {
                break;
            }
            if self.cpu.pc == self.idle.0 {
                self.spin(target);
            }
            self.instruction();
        }
        self.leave();
        let e = self.stop.take().unwrap_or(StopEvent::Budget);
        if matches!(e, StopEvent::Halted(_)) {
            self.halted = Some(e);
        }
        e
    }

    /// Executes one instruction; returns a stop event if the machine
    /// should hand control to the host. The reference for
    /// [`Machine::run`]: it never skips an idle iteration. Like `run`,
    /// once halted it executes nothing and returns the halt again.
    pub fn step(&mut self) -> Option<StopEvent> {
        if self.halted.is_some() {
            return self.halted;
        }
        self.enter();
        if !(self.counters.cycles >= self.horizon && self.edge()) {
            self.instruction();
        }
        self.leave();
        let e = self.stop.take();
        if matches!(e, Some(StopEvent::Halted(_))) {
            self.halted = e;
        }
        e
    }

    /// Takes up whatever the host changed since the last run:
    /// `counters`, `cp0`, `tlb` and `dev` are `pub`.
    fn enter(&mut self) {
        self.spin = None;
        self.retired = self.counters.insts();
        self.mode_from = self.retired;
        self.ticked = self.retired + self.unretired;
        self.settle();
    }

    /// Leaves `counters` and Random as a step at a time would have.
    fn leave(&mut self) {
        self.split_modes();
        self.sync_random(0);
    }

    /// Counts the instructions since the last split in the mode they
    /// were fetched in.
    fn split_modes(&mut self) {
        let n = self.retired - self.mode_from;
        if self.user {
            self.counters.user_insts += n;
        } else {
            self.counters.kernel_insts += n;
        }
        self.mode_from = self.retired;
    }

    /// Brings Random up to date: it ticks once per fetch, and
    /// `in_flight` fetches have neither retired nor failed yet.
    fn sync_random(&mut self, in_flight: u64) {
        let fetched = self.retired + self.unretired + in_flight;
        self.tlb.tick_by(fetched - self.ticked);
        self.ticked = fetched;
    }

    /// Something [`Machine::settle`] reads has moved — the interrupt
    /// lines or mask, a device deadline, the mode, the fetch context
    /// or the TLB — so the next step looks before it fetches.
    #[inline]
    fn moved(&mut self) {
        self.horizon = 0;
    }

    /// Re-derives what the per-instruction path takes as given: the
    /// mode, the held fetch page, the horizon.
    fn settle(&mut self) {
        self.split_modes();
        self.user = self.cp0.user_mode();
        let f = &mut self.fetching;
        if f.ctx != self.cp0.fetch_ctx() || f.tlb_generation != self.tlb.generation() {
            f.vpage = u32::MAX;
        }
        self.horizon = if self.cp0.interrupts_enabled() && self.cp0.pending_interrupts() != 0 {
            0
        } else {
            self.dev.next_due()
        };
    }

    /// The step's work that is not every instruction's, due once the
    /// clock reaches the horizon: a pending stop, device progress,
    /// interrupt dispatch, then [`Machine::settle`]. Returns true if
    /// a stop is pending.
    #[cold]
    #[inline(never)]
    fn edge(&mut self) -> bool {
        self.spin = None;
        if self.stop.is_some() {
            return true;
        }
        let now = self.counters.cycles;
        if now >= self.dev.next_due() {
            if let Some(op) = self.dev.tick(now) {
                self.dma(op);
            }
            self.sync_irq_lines();
        }
        // Interrupt dispatch (before the instruction at pc is fetched).
        if self.cp0.interrupts_enabled() && self.cp0.pending_interrupts() != 0 {
            let (pc, in_delay) = (self.cpu.pc, self.next_is_delay);
            self.take_exception(Exception::plain(ExcCode::Int), pc, in_delay);
        }
        self.settle();
        false
    }

    /// At the idle-loop head: marks the arrival and, if the iteration
    /// since the last mark (with no edge between) had no side effect
    /// and no stall and left the state as it found it, jumps the whole
    /// iterations that end before the horizon and the budget — each
    /// would run as that one did — leaving the next instruction to run.
    #[cold]
    #[inline(never)]
    fn spin(&mut self, target: u64) {
        if self.next_is_delay || self.tracer.is_some() || self.idle.1 == 0 {
            return;
        }
        let effects = self.counters.effects();
        let mark = self.spin.take().filter(|m| m.effects == effects);
        let held = (self.tlb.generation(), self.fetching.line);
        let state = mark
            .as_ref()
            .map(|_| (self.cpu.clone(), self.cp0.clone(), held));
        if let Some(m) = mark.filter(|m| m.state == state) {
            let now = self.counters.cycles;
            let (d, r) = (now - m.at[0], self.retired - m.at[1]);
            // A scoreboard cell still in the future could stall a later
            // iteration where this one did not.
            let icyc = self.ideal_cycle();
            let ready = |c: &Ready| c.real <= now && c.ideal <= icyc;
            let mut cells = self.fp.iter().chain([&self.fcc, &self.hilo]);
            if d == r && r > 0 && self.horizon > now && cells.all(ready) {
                let k = ((self.horizon - now - 1) / d).min((target - self.retired - 1) / r);
                self.counters.cycles += k * d;
                self.counters.idle_insts += k * (self.counters.idle_insts - m.at[2]);
                self.retired += k * r;
                self.skipped += k;
            }
        }
        let at = [self.counters.cycles, self.retired, self.counters.idle_insts];
        self.spin = Some(Spin { effects, at, state });
    }

    /// Translates for an access, raising the architectural exception
    /// on failure. Returns `(paddr, cached)`.
    fn translate(&mut self, vaddr: u32, access: Access) -> Result<(u32, bool), Exception> {
        if vaddr < 0x8000_0000 {
            if self.bare {
                return Ok((vaddr, true));
            }
            return self.translate_mapped(vaddr, access, true);
        }
        if self.user {
            let code = match access {
                Access::Store => ExcCode::AdES,
                _ => ExcCode::AdEL,
            };
            return Err(Exception::addr(code, vaddr, false));
        }
        match seg::unmapped(vaddr) {
            Some(hit) => Ok(hit),
            None => self.translate_mapped(vaddr, access, false),
        }
    }

    fn translate_mapped(
        &mut self,
        vaddr: u32,
        access: Access,
        user_segment: bool,
    ) -> Result<(u32, bool), Exception> {
        match self.tlb.lookup(vaddr, self.cp0.asid()) {
            TlbLookup::Hit {
                pfn,
                dirty,
                noncacheable,
            } => {
                if matches!(access, Access::Store) && !dirty {
                    return Err(Exception::addr(ExcCode::Mod, vaddr, false));
                }
                Ok(((pfn << 12) | (vaddr & 0xfff), !noncacheable))
            }
            // A miss in kuseg takes the refill vector; an invalid
            // entry, or any kseg2 fault, the general one.
            found => {
                let missed = found == TlbLookup::Miss;
                match (missed, user_segment) {
                    (true, true) => self.counters.utlb_misses += 1,
                    (true, false) => self.counters.ktlb_misses += 1,
                    _ => {}
                }
                let code = match access {
                    Access::Store => ExcCode::TlbS,
                    _ => ExcCode::TlbL,
                };
                Err(Exception::addr(code, vaddr, missed && user_segment))
            }
        }
    }

    /// The one fault exit: a bare machine has no handler and stops,
    /// any other vectors to its kernel.
    fn raise(&mut self, exc: Exception, epc_inst: u32, in_delay: bool) {
        if self.bare {
            self.stop_with(StopEvent::UnhandledException(exc.code as u8));
        } else {
            self.take_exception(exc, epc_inst, in_delay);
        }
    }

    /// Hands control to the host once the current instruction is done.
    #[cold]
    fn stop_with(&mut self, e: StopEvent) {
        self.stop = Some(e);
        self.moved();
    }

    fn take_exception(&mut self, exc: Exception, epc_inst: u32, in_delay: bool) {
        let epc = if in_delay {
            epc_inst.wrapping_sub(4)
        } else {
            epc_inst
        };
        self.cp0.enter_exception(exc, epc, in_delay);
        self.counters.exceptions[(exc.code as usize) & 15] += 1;
        if exc.code == ExcCode::Int {
            self.counters.interrupts += 1;
        }
        self.counters.cycles += dec5000::EXC_ENTRY_CYCLES;
        let vector = if exc.utlb { 0x8000_0000 } else { 0x8000_0080 };
        self.cpu.pc = vector;
        self.cpu.next_pc = vector + 4;
        self.next_is_delay = false;
        self.moved();
    }

    fn sync_irq_lines(&mut self) {
        self.cp0
            .set_hw_interrupt(irq::CLOCK, self.dev.clock_pending);
        self.cp0.set_hw_interrupt(irq::DISK, self.dev.disk_pending);
    }

    #[cold]
    #[inline(never)]
    fn dma(&mut self, op: crate::dev::DiskOp) {
        let base = (op.block * DISK_BLOCK_SIZE) as usize;
        let end = base + DISK_BLOCK_SIZE as usize;
        if end > self.dev.disk_image.len() {
            self.dev.disk_image.resize(end, 0);
        }
        if op.cmd == 1 {
            let mut buf = [0u8; DISK_BLOCK_SIZE as usize];
            buf.copy_from_slice(&self.dev.disk_image[base..end]);
            self.mem.write_bytes(op.paddr, &buf);
        } else {
            let mut buf = [0u8; DISK_BLOCK_SIZE as usize];
            self.mem.read_bytes(op.paddr, &mut buf);
            self.dev.disk_image[base..end].copy_from_slice(&buf);
        }
    }

    /// Resolves the PC in full — alignment, mode, translation, range,
    /// in the R3000's order: a misaligned PC is an address error
    /// before it is a TLB miss — and keeps what it learned in
    /// `fetching`. Returns the physical address of the instruction.
    #[inline(never)]
    fn resolve_fetch(&mut self, ipc: u32) -> Result<u32, Exception> {
        if ipc & 3 != 0 {
            return Err(Exception::addr(ExcCode::AdEL, ipc, false));
        }
        let (paddr, cached) = self.translate(ipc, Access::Fetch)?;
        if !self.mem.in_range(paddr, 4) {
            return Err(Exception::addr(ExcCode::AdEL, ipc, false));
        }
        let pbase = paddr & !0xfff;
        // A page memory ends inside of is resolved at every fetch.
        let whole = self.mem.in_range(pbase, 0x1000);
        self.fetching = FetchPage {
            vpage: if whole { ipc & FETCH_PAGE } else { u32::MAX },
            ctx: self.cp0.fetch_ctx(),
            tlb_generation: self.tlb.generation(),
            pbase,
            idle: idle_class(self.idle, ipc & !0xfff),
            through_cache: cached && !self.cp0.cache_isolated(),
            line: u32::MAX,
        };
        Ok(paddr)
    }

    /// The per-instruction path: fetch, execute, retire. What it takes
    /// as given between edges — the mode, the held page's context, no
    /// interrupt or device due — [`Machine::edge`] has settled.
    #[inline]
    fn instruction(&mut self) {
        let ipc = self.cpu.pc;
        let in_delay = self.next_is_delay;

        // Fetch: from the held page, through the full resolution
        // otherwise.
        let paddr = if ipc & FETCH_PAGE == self.fetching.vpage {
            self.fetching.pbase | (ipc & 0xfff)
        } else {
            match self.resolve_fetch(ipc) {
                Ok(paddr) => paddr,
                Err(e) => return self.raise(e, ipc, in_delay),
            }
        };
        self.counters.cycles += 1;
        if self.fetching.through_cache {
            // Inside the line of the last fetch this is a hit, and a
            // hit changes nothing.
            let line = paddr >> ILINE_SHIFT;
            if line != self.fetching.line {
                self.fetching.line = line;
                if !self.icache.access(paddr) {
                    self.counters.icache_misses += 1;
                    self.counters.cycles += dec5000::IMISS_PENALTY;
                }
            }
        } else {
            self.counters.uncached_ifetches += 1;
            self.counters.cycles += dec5000::UNCACHED_PENALTY;
        }
        if let Some(t) = self.tracer.as_mut() {
            t(RefEvent::Ifetch {
                vaddr: ipc,
                user: self.user,
            });
        }

        let Ok(inst) = self.mem.fetch(paddr) else {
            self.unretired += 1;
            return self.raise(Exception::plain(ExcCode::RI), ipc, in_delay);
        };

        // Advance PC state (the two-register delay-slot scheme).
        self.cpu.pc = self.cpu.next_pc;
        self.cpu.next_pc = self.cpu.pc.wrapping_add(4);

        match self.exec(inst, ipc, in_delay) {
            Ok(()) => self.next_is_delay = inst.has_delay_slot(),
            // A faulting instruction retires into its handler; a bare
            // machine stops on it, unretired.
            Err(e) if self.bare => {
                self.unretired += 1;
                return self.raise(e, ipc, in_delay);
            }
            Err(e) => self.take_exception(e, ipc, in_delay),
        }
        self.retired += 1;
        match self.fetching.idle {
            Idle::None => {}
            Idle::All => self.counters.idle_insts += 1,
            Idle::Some => {
                let (lo, len) = self.idle;
                self.counters.idle_insts += u64::from(ipc.wrapping_sub(lo) < len);
            }
        }
    }

    #[inline]
    fn rd(&self, r: Reg) -> u32 {
        self.cpu.regs[r.idx()]
    }

    #[inline]
    fn wr(&mut self, r: Reg, v: u32) {
        if r.idx() != 0 {
            self.cpu.regs[r.idx()] = v;
        }
    }

    /// Stalls the real and the ideal clock until `r` is ready.
    #[inline]
    fn wait(&mut self, r: Ready) {
        let now = self.counters.cycles;
        if r.real > now {
            self.counters.fp_stall_cycles += r.real - now;
            self.counters.cycles = r.real;
        }
        let icyc = self.ideal_cycle();
        if r.ideal > icyc {
            self.counters.fp_stall_ideal += r.ideal - icyc;
        }
    }

    #[inline]
    fn ideal_cycle(&self) -> u64 {
        self.retired + self.counters.fp_stall_ideal
    }

    /// The cell of a result issued now that takes `lat` cycles.
    #[inline]
    fn ready_in(&self, lat: u64) -> Ready {
        Ready {
            real: self.counters.cycles + lat,
            ideal: self.ideal_cycle() + lat,
        }
    }

    /// Counts and traces a store that translated.
    #[inline]
    fn count_store(&mut self, vaddr: u32) {
        self.counters.stores += 1;
        if let Some(t) = self.tracer.as_mut() {
            t(RefEvent::Store {
                vaddr,
                user: self.user,
            });
        }
    }

    /// Loads `width` (1, 2 or 4) bytes: aligned is `vaddr & (width -
    /// 1) == 0`, a mask, not a division.
    #[inline]
    fn load(&mut self, vaddr: u32, width: u32) -> Result<u32, Exception> {
        if vaddr & (width - 1) != 0 {
            return Err(Exception::addr(ExcCode::AdEL, vaddr, false));
        }
        let (paddr, cached) = self.translate(vaddr, Access::Load)?;
        self.counters.loads += 1;
        if let Some(t) = self.tracer.as_mut() {
            t(RefEvent::Load {
                vaddr,
                user: self.user,
            });
        }
        if Devices::owns(paddr) {
            self.counters.uncached_data += 1;
            self.counters.cycles += dec5000::UNCACHED_PENALTY;
            return Ok(self.dev.read(paddr, self.counters.cycles));
        }
        if !self.mem.in_range(paddr, width) {
            return Err(Exception::addr(ExcCode::AdEL, vaddr, false));
        }
        if cached {
            if !self.dcache.access(paddr) {
                self.counters.dcache_misses += 1;
                self.counters.cycles += dec5000::DMISS_PENALTY;
            }
        } else {
            self.counters.uncached_data += 1;
            self.counters.cycles += dec5000::UNCACHED_PENALTY;
        }
        Ok(match width {
            1 => self.mem.read_byte(paddr) as u32,
            2 => self.mem.read_half(paddr) as u32,
            _ => self.mem.read_word(paddr),
        })
    }

    /// Stores `v` (`width` as for [`Machine::load`]); a word store to
    /// HALT or the doorbell stops the machine. The device's answer is
    /// the only way to a stop, and the architectural translate the
    /// only way to the device.
    #[inline]
    fn store(&mut self, vaddr: u32, v: u32, width: u32) -> Result<(), Exception> {
        if vaddr & (width - 1) != 0 {
            return Err(Exception::addr(ExcCode::AdES, vaddr, false));
        }
        let (paddr, cached) = self.translate(vaddr, Access::Store)?;
        if Devices::owns(paddr) {
            self.dev_store(paddr, vaddr, v, width);
            return Ok(());
        }
        self.count_store(vaddr);
        if !self.mem.in_range(paddr, width) {
            return Err(Exception::addr(ExcCode::AdES, vaddr, false));
        }
        // Write-through with write buffer.
        if cached {
            self.dcache.write_update(paddr);
            let now = self.wb.push(self.counters.cycles);
            let stall = self.wb.stall_cycles;
            self.counters.cycles = now;
            self.counters.wb_stall_cycles = stall;
        } else {
            self.counters.uncached_data += 1;
            self.counters.cycles += dec5000::UNCACHED_PENALTY;
        }
        match width {
            1 => self.mem.write_byte(paddr, v as u8),
            2 => self.mem.write_half(paddr, v as u16),
            _ => self.mem.write_word(paddr, v),
        }
        Ok(())
    }

    /// A store that translated to the device page. The register is
    /// written at the cycle the uncached store lands. HALT stops the
    /// machine with the store neither counted, traced nor charged;
    /// narrower stores are plain register writes.
    #[cold]
    #[inline(never)]
    fn dev_store(&mut self, paddr: u32, vaddr: u32, v: u32, width: u32) {
        let lands = self.counters.cycles + dec5000::UNCACHED_PENALTY;
        match (self.dev.write(paddr, v, lands), width) {
            (DevAction::Halt(code), 4) => return self.stop_with(StopEvent::Halted(code)),
            (DevAction::TraceRequest(w), 4) => self.stop_with(StopEvent::TraceRequest(w)),
            _ => {}
        }
        self.count_store(vaddr);
        self.counters.uncached_data += 1;
        self.counters.cycles = lands;
        self.sync_irq_lines();
        self.moved();
    }

    /// Executes `inst`; a fault is the `Err`. A stop for the host
    /// leaves through [`Machine::stop_with`].
    fn exec(&mut self, inst: Inst, ipc: u32, in_delay: bool) -> Result<(), Exception> {
        use Inst::*;
        match inst {
            Mfc0 { .. } | Mtc0 { .. } | Tlbr | Tlbwi | Tlbwr | Tlbp | Rfe | Cache { .. }
                if self.user =>
            {
                return Err(Exception::plain(ExcCode::CpU));
            }
            Sll { rd, rt, sh } => self.wr(rd, self.rd(rt) << sh),
            Srl { rd, rt, sh } => self.wr(rd, self.rd(rt) >> sh),
            Sra { rd, rt, sh } => self.wr(rd, ((self.rd(rt) as i32) >> sh) as u32),
            Sllv { rd, rt, rs } => self.wr(rd, self.rd(rt) << (self.rd(rs) & 31)),
            Srlv { rd, rt, rs } => self.wr(rd, self.rd(rt) >> (self.rd(rs) & 31)),
            Srav { rd, rt, rs } => self.wr(rd, ((self.rd(rt) as i32) >> (self.rd(rs) & 31)) as u32),
            Addu { rd, rs, rt } => self.wr(rd, self.rd(rs).wrapping_add(self.rd(rt))),
            Subu { rd, rs, rt } => self.wr(rd, self.rd(rs).wrapping_sub(self.rd(rt))),
            And { rd, rs, rt } => self.wr(rd, self.rd(rs) & self.rd(rt)),
            Or { rd, rs, rt } => self.wr(rd, self.rd(rs) | self.rd(rt)),
            Xor { rd, rs, rt } => self.wr(rd, self.rd(rs) ^ self.rd(rt)),
            Nor { rd, rs, rt } => self.wr(rd, !(self.rd(rs) | self.rd(rt))),
            Slt { rd, rs, rt } => {
                self.wr(rd, u32::from((self.rd(rs) as i32) < (self.rd(rt) as i32)))
            }
            Sltu { rd, rs, rt } => self.wr(rd, u32::from(self.rd(rs) < self.rd(rt))),
            Mult { rs, rt } => {
                let p = (self.rd(rs) as i32 as i64) * (self.rd(rt) as i32 as i64);
                self.set_hilo(p as u64, lat::INT_MUL);
            }
            Multu { rs, rt } => {
                let p = (self.rd(rs) as u64) * (self.rd(rt) as u64);
                self.set_hilo(p, lat::INT_MUL);
            }
            Div { rs, rt } => {
                let (a, b) = (self.rd(rs) as i32, self.rd(rt) as i32);
                if b != 0 {
                    self.cpu.lo = a.wrapping_div(b) as u32;
                    self.cpu.hi = a.wrapping_rem(b) as u32;
                }
                self.hilo = self.ready_in(lat::INT_DIV);
            }
            Divu { rs, rt } => {
                let (a, b) = (self.rd(rs), self.rd(rt));
                // Division by zero leaves HI/LO unchanged (undefined
                // on the real part; we pick the stable behaviour).
                if let Some(q) = a.checked_div(b) {
                    self.cpu.lo = q;
                    self.cpu.hi = a % b;
                }
                self.hilo = self.ready_in(lat::INT_DIV);
            }
            Mfhi { rd } => {
                self.wait(self.hilo);
                self.wr(rd, self.cpu.hi);
            }
            Mflo { rd } => {
                self.wait(self.hilo);
                self.wr(rd, self.cpu.lo);
            }
            Mthi { rs } => self.cpu.hi = self.rd(rs),
            Mtlo { rs } => self.cpu.lo = self.rd(rs),
            Addiu { rt, rs, imm } => self.wr(rt, self.rd(rs).wrapping_add(imm as u32)),
            Slti { rt, rs, imm } => self.wr(rt, u32::from((self.rd(rs) as i32) < imm as i32)),
            Sltiu { rt, rs, imm } => self.wr(rt, u32::from(self.rd(rs) < imm as i32 as u32)),
            Andi { rt, rs, imm } => self.wr(rt, self.rd(rs) & imm as u32),
            Ori { rt, rs, imm } => self.wr(rt, self.rd(rs) | imm as u32),
            Xori { rt, rs, imm } => self.wr(rt, self.rd(rs) ^ imm as u32),
            Lui { rt, imm } => self.wr(rt, (imm as u32) << 16),
            Lb { rt, base, off } => {
                self.load_reg(rt, ea(self, base, off), 1, |v| v as i8 as u32)?
            }
            Lbu { rt, base, off } => self.load_reg(rt, ea(self, base, off), 1, |v| v)?,
            Lh { rt, base, off } => {
                self.load_reg(rt, ea(self, base, off), 2, |v| v as i16 as u32)?
            }
            Lhu { rt, base, off } => self.load_reg(rt, ea(self, base, off), 2, |v| v)?,
            Lw { rt, base, off } => self.load_reg(rt, ea(self, base, off), 4, |v| v)?,
            Sb { rt, base, off } => return self.store(ea(self, base, off), self.rd(rt), 1),
            Sh { rt, base, off } => return self.store(ea(self, base, off), self.rd(rt), 2),
            Sw { rt, base, off } => return self.store(ea(self, base, off), self.rd(rt), 4),
            Lwc1 { ft, base, off } => {
                self.cpu.fregs[ft.idx()] = self.load(ea(self, base, off), 4)?;
                // Loading either half makes the pair "written".
                let r = &mut self.fp[pair(ft)];
                r.real = r.real.max(self.counters.cycles);
            }
            Swc1 { ft, base, off } => {
                self.wait(self.fp[pair(ft)]);
                return self.store(ea(self, base, off), self.cpu.fregs[ft.idx()], 4);
            }
            Beq { rs, rt, off } => self.branch(self.rd(rs) == self.rd(rt), ipc, off),
            Bne { rs, rt, off } => self.branch(self.rd(rs) != self.rd(rt), ipc, off),
            Blez { rs, off } => self.branch(self.rd(rs) as i32 <= 0, ipc, off),
            Bgtz { rs, off } => self.branch(self.rd(rs) as i32 > 0, ipc, off),
            Bltz { rs, off } => self.branch((self.rd(rs) as i32) < 0, ipc, off),
            Bgez { rs, off } => self.branch(self.rd(rs) as i32 >= 0, ipc, off),
            J { target } => {
                self.cpu.next_pc = (ipc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Jal { target } => {
                self.wr(RA, ipc.wrapping_add(8));
                self.cpu.next_pc = (ipc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Jr { rs } => self.cpu.next_pc = self.rd(rs),
            Jalr { rd, rs } => {
                let t = self.rd(rs);
                self.wr(rd, ipc.wrapping_add(8));
                self.cpu.next_pc = t;
            }
            Syscall { code } => {
                if !self.bare {
                    return Err(Exception::plain(ExcCode::Sys));
                }
                // The host services the call; resume after it.
                debug_assert!(!in_delay, "syscall in a delay slot");
                self.stop_with(StopEvent::Syscall(code));
            }
            Break { code } => {
                if !self.bare {
                    return Err(Exception::plain(ExcCode::Bp));
                }
                self.stop_with(StopEvent::Break(code));
            }
            Mfc0 { rt, rd } => {
                self.sync_random(1);
                if rd == crate::cp0::reg::RANDOM {
                    // A spin that reads Random is not a fixed point.
                    self.spin = None;
                }
                let v = self.cp0.read(rd, self.tlb.random() as u32);
                self.wr(rt, v);
            }
            Mtc0 { rt, rd } => {
                self.cp0.write(rd, self.rd(rt));
                self.moved();
            }
            Tlbr => {
                let e = self.tlb.read_indexed((self.cp0.index >> 8) as usize);
                self.cp0.entryhi = e.entry_hi();
                self.cp0.entrylo = e.entry_lo();
                self.moved();
            }
            Tlbwi => {
                let e = crate::tlb::TlbEntry::from_regs(self.cp0.entryhi, self.cp0.entrylo);
                self.tlb.write_indexed((self.cp0.index >> 8) as usize, e);
                self.moved();
            }
            Tlbwr => {
                let e = crate::tlb::TlbEntry::from_regs(self.cp0.entryhi, self.cp0.entrylo);
                self.sync_random(1);
                self.tlb.write_random(e);
                self.moved();
            }
            Tlbp => {
                self.cp0.index = match self.tlb.probe(self.cp0.entryhi) {
                    Some(i) => (i as u32) << 8,
                    None => 0x8000_0000,
                };
            }
            Rfe => {
                self.cp0.rfe();
                self.counters.cycles += dec5000::RFE_CYCLES;
                self.moved();
            }
            Cache { op, base, off } => {
                if let Some(paddr) = self.probe_translate(ea(self, base, off)) {
                    if op == 0 {
                        self.icache.invalidate_line(paddr);
                        self.fetching.line = u32::MAX;
                        // An iteration that invalidates a line it ran
                        // from misses in the next, not in itself.
                        self.spin = None;
                    } else {
                        self.dcache.invalidate_line(paddr);
                    }
                }
            }
            Mfc1 { rt, fs } => {
                self.wait(self.fp[pair(fs)]);
                self.wr(rt, self.cpu.fregs[fs.idx()]);
            }
            Mtc1 { rt, fs } => {
                self.cpu.fregs[fs.idx()] = self.rd(rt);
                let r = &mut self.fp[pair(fs)];
                r.real = r.real.max(self.counters.cycles);
            }
            AddD { fd, fs, ft } => self.fp_op(fd, fs, Some(ft), lat::FP_ADD, |a, b| a + b),
            SubD { fd, fs, ft } => self.fp_op(fd, fs, Some(ft), lat::FP_ADD, |a, b| a - b),
            MulD { fd, fs, ft } => self.fp_op(fd, fs, Some(ft), lat::FP_MUL, |a, b| a * b),
            DivD { fd, fs, ft } => self.fp_op(fd, fs, Some(ft), lat::FP_DIV, |a, b| a / b),
            AbsD { fd, fs } => self.fp_op(fd, fs, None, lat::FP_ADD, |a, _| a.abs()),
            MovD { fd, fs } => self.fp_op(fd, fs, None, 1, |a, _| a),
            NegD { fd, fs } => self.fp_op(fd, fs, None, lat::FP_ADD, |a, _| -a),
            CvtDW { fd, fs } => {
                self.wait(self.fp[pair(fs)]);
                let w = self.cpu.fregs[fs.idx()] as i32;
                self.cpu.set_d(fd.0, w as f64);
                self.fp[pair(fd)] = self.ready_in(lat::FP_CVT);
            }
            CvtWD { fd, fs } => {
                self.wait(self.fp[pair(fs)]);
                let v = self.cpu.get_d(fs.0);
                self.cpu.fregs[fd.idx()] = v as i32 as u32;
                self.fp[pair(fd)] = self.ready_in(lat::FP_CVT);
            }
            CEqD { fs, ft } => self.fp_cmp(fs, ft, |a, b| a == b),
            CLtD { fs, ft } => self.fp_cmp(fs, ft, |a, b| a < b),
            CLeD { fs, ft } => self.fp_cmp(fs, ft, |a, b| a <= b),
            Bc1t { off } => {
                self.wait(self.fcc);
                self.branch(self.cpu.fcc, ipc, off);
            }
            Bc1f { off } => {
                self.wait(self.fcc);
                self.branch(!self.cpu.fcc, ipc, off);
            }
        }
        Ok(())
    }

    /// `rt = extend(load(vaddr))`.
    #[inline]
    fn load_reg(
        &mut self,
        rt: Reg,
        vaddr: u32,
        width: u32,
        extend: fn(u32) -> u32,
    ) -> Result<(), Exception> {
        let v = self.load(vaddr, width)?;
        self.wr(rt, extend(v));
        Ok(())
    }

    /// Takes the branch to `ipc + 4 + off * 4` if `taken`.
    #[inline]
    fn branch(&mut self, taken: bool, ipc: u32, off: i16) {
        if taken {
            self.cpu.next_pc = ipc.wrapping_add(4).wrapping_add(((off as i32) << 2) as u32);
        }
    }

    /// HI/LO from a 64-bit product, ready in `lat` cycles.
    fn set_hilo(&mut self, p: u64, lat: u64) {
        self.cpu.lo = p as u32;
        self.cpu.hi = (p >> 32) as u32;
        self.hilo = self.ready_in(lat);
    }

    /// A double-precision `fd = f(fs, ft)`, `ft` unread (and `f`'s
    /// second operand 0) for a one-operand instruction.
    fn fp_op(&mut self, fd: FReg, fs: FReg, ft: Option<FReg>, lat: u64, f: fn(f64, f64) -> f64) {
        self.wait(self.fp[pair(fs)]);
        let b = ft.map_or(0.0, |ft| {
            self.wait(self.fp[pair(ft)]);
            self.cpu.get_d(ft.0)
        });
        let v = f(self.cpu.get_d(fs.0), b);
        self.cpu.set_d(fd.0, v);
        self.fp[pair(fd)] = self.ready_in(lat);
    }

    /// A double-precision compare into the FP condition bit.
    fn fp_cmp(&mut self, fs: FReg, ft: FReg, f: fn(f64, f64) -> bool) {
        self.wait(self.fp[pair(fs)]);
        self.wait(self.fp[pair(ft)]);
        self.cpu.fcc = f(self.cpu.get_d(fs.0), self.cpu.get_d(ft.0));
        self.fcc = self.ready_in(lat::FP_CMP);
    }
}

/// The effective address `base + off` of a load, store or `cache` op.
#[inline]
fn ea(m: &Machine, base: Reg, off: i16) -> u32 {
    m.rd(base).wrapping_add(off as u32)
}

/// Scoreboard index of the even/odd pair holding FP register `f`.
#[inline]
fn pair(f: FReg) -> usize {
    f.idx() & 30
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From a mark one six-instruction iteration back, with equal state
    /// and no side effect, `spin` jumps the iterations whose every
    /// instruction starts before the horizon — unless that iteration
    /// took a cycle more than it retired instructions.
    #[test]
    fn a_spin_is_jumped_to_the_horizon_only_without_a_stall() {
        for (d, cycles) in [(6, 100 + 149 * 6), (7, 100)] {
            let mut m = Machine::new(Config::default(), Vec::new());
            m.set_idle_range(Some((0x8000_1000, 0x8000_1018)));
            m.set_pc(0x8000_1000);
            (m.counters.cycles, m.retired, m.horizon) = (100, 100, 1_000);
            let held = (m.tlb.generation(), m.fetching.line);
            let state = Some((m.cpu.clone(), m.cp0.clone(), held));
            let effects = m.counters.effects();
            m.spin = Some(Spin {
                effects,
                at: [100 - d, 94, 0],
                state,
            });
            m.spin(10_000);
            assert_eq!(m.counters.cycles, cycles, "{d} cycles an iteration");
        }
    }

    /// A page's class says of each of its PCs what the range test
    /// does, for ranges that start, end, hold or miss the page, at
    /// both ends of the address space.
    #[test]
    fn an_idle_class_answers_for_every_pc_of_its_page() {
        let edges = |b: u32| {
            [
                b,
                b + 4,
                b + 0xffc,
                b.wrapping_add(0x1000),
                b.wrapping_sub(4),
            ]
        };
        for vbase in [0u32, 0x8000_1000, 0xffff_f000] {
            for lo in edges(vbase) {
                for hi in edges(vbase).into_iter().chain([0, u32::MAX]) {
                    let idle = (lo, hi.saturating_sub(lo));
                    let class = idle_class(idle, vbase);
                    for pc in (vbase..=vbase + 0xffc).step_by(4) {
                        let held = match class {
                            Idle::None => false,
                            Idle::All => true,
                            Idle::Some => pc.wrapping_sub(idle.0) < idle.1,
                        };
                        assert_eq!(held, lo <= pc && pc < hi, "{lo:#x}..{hi:#x} at {pc:#x}");
                    }
                }
            }
        }
    }
}
