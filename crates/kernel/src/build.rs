//! Building and booting a complete traced (or untraced) system.
//!
//! The host side plays three roles the paper's infrastructure also
//! needed: the *build system* (assembling and epoxie-instrumenting
//! the kernel and the workloads), the *boot loader* (placing segments
//! into page frames chosen by the page-mapping policy, writing page
//! tables and the process table), and the *analysis program* (drained
//! from the in-kernel buffer at the trace-analysis doorbell — the
//! `/dev/kmem` read of §3.1, or Mach's buffer mapping).

use std::collections::HashMap;
use std::sync::Arc;

use wrl_epoxie::{build_traced, FullPolicy, Mode};
use wrl_isa::link::{link, Layout, Linked};
use wrl_isa::Object;
use wrl_isa::Width;
use wrl_machine::{Config as MachineConfig, Machine, StopEvent};
use wrl_memsim::pagemap::{PageMap, Policy, PAGE_SIZE};
use wrl_memsim::sim::SpaceKey;
use wrl_trace::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
use wrl_trace::layout::{bk, user as utrace};
use wrl_workloads::Workload;

use crate::kdata::{dir_off, proc_off};
use crate::kdataobj::{self, KdataCfg};
use crate::kmain::{self, KmainCfg, Variant};
use crate::layout::{self, pte, uvm};
use crate::server;
use crate::vectors;

/// Full-system build configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// OS personality.
    pub variant: Variant,
    /// Instrument kernel and workloads with epoxie, and run the clock
    /// at 1/[`layout::CLOCK_DILATION`] of its rate (§4.1). Traced
    /// builds always use [`Mode::Modified`]: the Original (inline)
    /// scheme's store/bump pairs are not interrupt-safe in kernel
    /// context (see DESIGN.md).
    pub traced: bool,
    /// In-kernel trace buffer size.
    pub ktrace_bytes: u32,
    /// Page-mapping policy.
    pub page_policy: Policy,
    /// Conservative (write-through) file writes.
    pub conservative_write: bool,
    /// Plant the §4.4 I-cache flush bug.
    pub icache_flush_bug: bool,
}

impl KernelConfig {
    /// Ultrix-like system, not traced (the "measured" side).
    pub fn ultrix() -> KernelConfig {
        KernelConfig {
            variant: Variant::Ultrix,
            traced: false,
            ktrace_bytes: layout::KTRACE_BYTES_DEFAULT,
            page_policy: Policy::FirstFree { base_pfn: 0x2000 },
            conservative_write: true,
            icache_flush_bug: false,
        }
    }

    /// Mach-like system, not traced.
    pub fn mach() -> KernelConfig {
        KernelConfig {
            variant: Variant::Mach,
            page_policy: Policy::Random {
                seed: 0x3a11,
                base_pfn: 0x2000,
                frames: layout::UFRAME_POOL_FRAMES,
            },
            conservative_write: false,
            ..KernelConfig::ultrix()
        }
    }

    /// The traced version of this configuration (instrumented
    /// binaries, slowed clock).
    pub fn traced(mut self) -> KernelConfig {
        self.traced = true;
        self
    }
}

/// Metadata about one loaded process.
#[derive(Clone, Debug)]
pub struct ProcMeta {
    /// Workload (or "uxserver") name.
    pub name: String,
    /// ASID (= process index + 1).
    pub asid: u8,
    /// Basic-block table for the traced binary, if traced.
    pub table: Option<Arc<BbTable>>,
    /// The original (uninstrumented) linked binary.
    pub orig: Linked,
}

/// A built system, ready to run.
pub struct System {
    /// The loader's page map — the "page-map extracted from the
    /// running system" of §4.2, including the kseg2 page-table pages
    /// under [`SpaceKey::Kernel`].
    pub pagemap: PageMap,
    /// The machine, loaded and pointed at the kernel entry.
    pub machine: Machine,
    /// The kernel basic-block table (traced builds).
    pub kernel_table: Option<Arc<BbTable>>,
    /// The original (uninstrumented) kernel link.
    pub kernel_orig: Linked,
    /// The kernel link actually running.
    pub kernel_exe: Linked,
    /// Loaded processes in index order.
    pub procs: Vec<ProcMeta>,
    /// The configuration used.
    pub cfg: KernelConfig,
    /// Idle-loop address range in the *running* kernel (for the
    /// machine's measured idle counters).
    pub idle_range: (u32, u32),
}

/// Result of running a system to completion.
#[derive(Debug, Default)]
pub struct SystemRun {
    /// Exit code from the HALT device.
    pub exit_code: u32,
    /// Trace words drained at analysis doorbells, in order. Collected
    /// by [`System::run`]; empty after [`System::run_with`], whose
    /// callback is handed every word instead.
    pub trace_words: Vec<u32>,
    /// Number of analysis phases (doorbells).
    pub drains: u64,
    /// Console output.
    pub console: Vec<u8>,
}

fn kernel_objects(cfg: &KernelConfig) -> Vec<Object> {
    // §4.1: the traced system's clock ticks at 1/Nth the rate.
    let dilation = if cfg.traced {
        layout::CLOCK_DILATION
    } else {
        1
    };
    let kd = KdataCfg {
        trace_on: cfg.traced,
        ktrace_bytes: cfg.ktrace_bytes,
        clock_interval: layout::CLOCK_INTERVAL * dilation,
    };
    vec![
        vectors::object(),
        kmain::object(&KmainCfg {
            variant: cfg.variant,
            conservative_write: cfg.conservative_write,
            icache_flush_bug: cfg.icache_flush_bug,
        }),
        kdataobj::object(&kd),
    ]
}

fn kernel_layout() -> Layout {
    Layout {
        text_base: layout::KTEXT_BASE,
        data_base: layout::KDATA_BASE,
    }
}

/// The hand-traced console-loop record (§3.5): registered manually,
/// exactly as the paper's hand-instrumented routines were.
fn hand_records(instr: &Linked, orig: &Linked, table: &mut BbTable) {
    let id = instr.exe.sym("k_cons_record").expect("k_cons_record");
    let orig_va = orig.exe.sym("k_cons_record").expect("k_cons_record");
    table.insert(
        id,
        BbInfo {
            orig_vaddr: orig_va,
            n_insts: 2,
            ops: vec![
                MemOp {
                    index: 0,
                    store: false,
                    width: Width::Byte,
                },
                MemOp {
                    index: 1,
                    store: true,
                    width: Width::Word,
                },
            ],
            flags: BbTraceFlags {
                idle_start: false,
                idle_stop: false,
                hand_traced: true,
            },
        },
    );
}

struct LoadedProgram {
    exe: Linked,
    orig: Linked,
    table: Option<Arc<BbTable>>,
}

fn build_user(objects: &[Object], cfg: &KernelConfig) -> LoadedProgram {
    if cfg.traced {
        let tp = build_traced(
            objects,
            Layout::user(),
            "__start",
            Mode::Modified,
            FullPolicy::Syscall,
        )
        .expect("user program instruments");
        LoadedProgram {
            exe: tp.instr,
            orig: tp.orig,
            table: Some(Arc::new(tp.table)),
        }
    } else {
        let l = link(objects, Layout::user(), "__start").expect("user program links");
        LoadedProgram {
            exe: l.clone(),
            orig: l,
            table: None,
        }
    }
}

/// Builds a complete system running the given workloads.
///
/// Under Mach a UNIX server process is added automatically.
pub fn build_system(cfg: &KernelConfig, workloads: &[&Workload]) -> System {
    assert!(!workloads.is_empty(), "need at least one workload");
    assert!(
        layout::KTRACE_PHYS + cfg.ktrace_bytes <= layout::UFRAME_POOL_PHYS,
        "in-kernel trace buffer ({} MB) would overlap the user frame pool;          the static layout allows at most {} MB",
        cfg.ktrace_bytes >> 20,
        (layout::UFRAME_POOL_PHYS - layout::KTRACE_PHYS) >> 20
    );
    let kobjs = kernel_objects(cfg);

    let (kernel_exe, kernel_orig, kernel_table) = if cfg.traced {
        let tp = build_traced(
            &kobjs,
            kernel_layout(),
            "kboot",
            Mode::Modified,
            FullPolicy::KernelFlag,
        )
        .expect("kernel instruments");
        let mut table = tp.table;
        hand_records(&tp.instr, &tp.orig, &mut table);
        (tp.instr, tp.orig, Some(Arc::new(table)))
    } else {
        let l = link(&kobjs, kernel_layout(), "kboot").expect("kernel links");
        (l.clone(), l, None)
    };

    // User programs.
    struct Staged {
        name: String,
        prog: LoadedProgram,
        files: Vec<(String, Vec<u8>)>,
    }
    let mut programs: Vec<Staged> = Vec::new();
    for w in workloads {
        programs.push(Staged {
            name: w.name.to_string(),
            prog: build_user(&w.objects, cfg),
            files: w.files.clone(),
        });
    }
    let server_idx = if cfg.variant == Variant::Mach {
        let objs = vec![
            server::object(),
            wrl_workloads::support::crt0(),
            wrl_workloads::support::libw3k(),
        ];
        programs.push(Staged {
            name: "uxserver".to_string(),
            prog: build_user(&objs, cfg),
            files: vec![],
        });
        Some(programs.len() - 1)
    } else {
        None
    };
    assert!(programs.len() <= layout::MAX_PROCS);

    // ---------------- Disk image and directory -------------------
    let mut disk = vec![0u8; 4 * 4096]; // directory blocks reserved
    let mut dir_entries: Vec<(String, u32, u32)> = Vec::new();
    for staged in &programs {
        for (name, content) in &staged.files {
            let start_block = (disk.len() / 4096) as u32;
            disk.extend_from_slice(content);
            // Pad to a block boundary.
            let pad = (4096 - disk.len() % 4096) % 4096;
            disk.resize(disk.len() + pad, 0);
            dir_entries.push((name.clone(), start_block, content.len() as u32));
        }
    }
    let next_free_block = (disk.len() / 4096) as u32;
    // Leave room for created output files.
    disk.resize(disk.len() + 64 * 4096 * 8, 0);

    // ---------------- Machine ------------------------------------
    let mut m = Machine::new(
        MachineConfig {
            mem_bytes: layout::MEM_BYTES,
            bare: false,
        },
        disk,
    );
    m.load_executable(&kernel_exe.exe);

    // Poke helpers.
    let sym = |name: &str| -> u32 {
        kernel_exe
            .exe
            .sym(name)
            .unwrap_or_else(|| panic!("kernel symbol {name}"))
    };
    let poke = |m: &mut Machine, vaddr: u32, v: u32| {
        m.mem.write_word(vaddr - layout::KSEG0, v);
    };

    // Directory into kernel data.
    let dir_base = sym("k_fs_dir");
    for (i, (name, start, len)) in dir_entries.iter().enumerate() {
        let e = dir_base + (i as u32) * dir_off::SIZE;
        for (k, b) in name.as_bytes().iter().enumerate().take(19) {
            m.mem
                .write_byte(e - layout::KSEG0 + dir_off::NAME as u32 + k as u32, *b);
        }
        poke(&mut m, e + dir_off::START as u32, *start);
        poke(&mut m, e + dir_off::LEN as u32, *len);
    }
    poke(&mut m, sym("k_fs_next_block"), next_free_block);
    poke(
        &mut m,
        sym("k_nlive"),
        (programs.len() - usize::from(server_idx.is_some())) as u32,
    );
    if let Some(si) = server_idx {
        poke(&mut m, sym("k_server_idx"), si as u32);
    }

    // ---------------- Processes ----------------------------------
    let mut pagemap = PageMap::new(cfg.page_policy.clone());
    let mut kseg2_entries: Vec<((SpaceKey, u32), u32)> = Vec::new();
    let ktlb_dir = sym("k_ktlb_dir");
    let proc_base_sym = sym("k_proc");
    let mut procs = Vec::new();

    for (i, staged) in programs.iter().enumerate() {
        let (name, prog) = (&staged.name, &staged.prog);
        let asid = (i + 1) as u8;
        let key = SpaceKey::User(asid);
        let exe = &prog.exe.exe;
        let pt_phys = layout::pt_phys(i);

        // Map a virtual range eagerly, returning nothing; segments are
        // copied separately through the map.
        let mut map_range = |m: &mut Machine, lo: u32, hi: u32| {
            let mut va = lo & !(PAGE_SIZE - 1);
            while va < hi {
                let vpn = va >> 12;
                let pfn = pagemap.frame(key, vpn);
                m.mem.write_word(pt_phys + vpn * 4, pte::make(pfn));
                va += PAGE_SIZE;
            }
        };
        let text_end = exe.text_end();
        map_range(&mut m, exe.text_base, text_end);
        map_range(&mut m, exe.data_base, exe.brk() + PAGE_SIZE);
        map_range(&mut m, uvm::HEAP_BASE, uvm::HEAP_MAX);
        if cfg.traced {
            map_range(
                &mut m,
                utrace::BOOKKEEPING,
                utrace::TRACE_BUF + utrace::TRACE_BUF_BYTES,
            );
        }
        if cfg.variant == Variant::Mach {
            map_range(&mut m, uvm::MAILBOX, uvm::MAILBOX + PAGE_SIZE);
        }

        // Copy segments through the page map.
        let mut copy_out = |m: &mut Machine, vaddr: u32, bytes: &[u8]| {
            for (k, &b) in bytes.iter().enumerate() {
                let va = vaddr + k as u32;
                let pfn = pagemap.frame(key, va >> 12);
                m.mem.write_byte((pfn << 12) | (va & 0xfff), b);
            }
        };
        let mut text_bytes = Vec::with_capacity(exe.text.len() * 4);
        for w in &exe.text {
            text_bytes.extend_from_slice(&w.to_le_bytes());
        }
        copy_out(&mut m, exe.text_base, &text_bytes);
        copy_out(&mut m, exe.data_base, &exe.data);

        // Trace bookkeeping page content.
        if cfg.traced {
            let buf_end = utrace::TRACE_BUF + utrace::TRACE_BUF_BYTES;
            let bkp = pagemap.frame(key, utrace::BOOKKEEPING >> 12) << 12;
            m.mem.write_word(bkp + bk::BUF_END as u32, buf_end - 512);
            m.mem.write_word(bkp + bk::HARD_END as u32, buf_end);
        }

        // KTLB directory entries for this process's page-table pages,
        // mirrored into the extracted page map for the simulator.
        for p in 0..(layout::PT_BYTES / PAGE_SIZE) {
            let pte_page_pfn = (pt_phys >> 12) + p;
            let kseg2_vpn = (layout::pt_kseg2(i) >> 12) + p;
            kseg2_entries.push(((SpaceKey::Kernel, kseg2_vpn), pte_page_pfn));
            let slot = (i as u32) * 512 + p;
            // Global bit set: kseg2 mappings are ASID-independent.
            poke(
                &mut m,
                ktlb_dir + slot * 4,
                pte::make(pte_page_pfn) | (1 << 8),
            );
        }

        // Process-table entry.
        let pb = proc_base_sym + (i as u32) * proc_off::SIZE;
        poke(&mut m, pb + proc_off::STATE as u32, 1); // ready
        poke(&mut m, pb + proc_off::ASID as u32, asid as u32);
        poke(&mut m, pb + proc_off::CONTEXT as u32, layout::pt_kseg2(i));
        poke(&mut m, pb + proc_off::EPC as u32, exe.entry);
        poke(&mut m, pb + proc_off::TRACED as u32, u32::from(cfg.traced));
        poke(&mut m, pb + proc_off::WAIT_BLOCK as u32, -1i32 as u32);
        poke(
            &mut m,
            pb + proc_off::IS_SERVER as u32,
            u32::from(Some(i) == server_idx),
        );
        poke(&mut m, pb + proc_off::BRK as u32, uvm::HEAP_BASE);
        poke(&mut m, pb + proc_off::NEED_IFLUSH as u32, 1);
        poke(&mut m, pb + proc_off::TEXT_START as u32, exe.text_base);
        poke(&mut m, pb + proc_off::TEXT_END as u32, text_end);
        poke(&mut m, pb + proc_off::REPLY_TO as u32, -1i32 as u32);
        poke(&mut m, pb + proc_off::TOKEN as u32, asid as u32);
        if cfg.variant == Variant::Mach {
            let mb = pagemap.frame(key, uvm::MAILBOX >> 12) << 12;
            poke(&mut m, pb + proc_off::MAILBOX_PHYS as u32, mb);
        }
        if cfg.traced {
            poke(
                &mut m,
                pb + proc_off::reg(wrl_trace::layout::XREG1.0) as u32,
                utrace::TRACE_BUF,
            );
            poke(
                &mut m,
                pb + proc_off::reg(wrl_trace::layout::XREG3.0) as u32,
                utrace::BOOKKEEPING,
            );
            // The trace runtime is the last object in the link; the
            // kernel defers buffer copies for interrupts landing here.
            let rt_start = prog
                .exe
                .placements
                .last()
                .expect("runtime placement")
                .text_addr;
            poke(&mut m, pb + proc_off::RT_START as u32, rt_start);
            poke(&mut m, pb + proc_off::RT_END as u32, text_end);
            // This context's trace-page PTEs, for the per-thread
            // remap at dispatch (§3.6).
            let tpte = sym("k_tpte") + (i as u32) * 17 * 4;
            for (k, vpn) in ((utrace::BOOKKEEPING >> 12)
                ..=(utrace::TRACE_BUF + utrace::TRACE_BUF_BYTES - 1) >> 12)
                .enumerate()
            {
                let pfn = pagemap.frame(key, vpn);
                poke(&mut m, tpte + (k as u32) * 4, pte::make(pfn));
            }
        }

        // Mach: the server needs the directory too.
        if Some(i) == server_idx {
            let sv_dir = prog.exe.exe.sym("sv_dir").expect("server directory symbol");
            for (k, (fname, start, len)) in dir_entries.iter().enumerate() {
                let e = sv_dir + (k as u32) * dir_off::SIZE;
                for (b_i, b) in fname.as_bytes().iter().enumerate().take(19) {
                    let va = e + dir_off::NAME as u32 + b_i as u32;
                    let pfn = pagemap.frame(key, va >> 12);
                    m.mem.write_byte((pfn << 12) | (va & 0xfff), *b);
                }
                let mut w = |va: u32, v: u32| {
                    let pfn = pagemap.frame(key, va >> 12);
                    m.mem.write_word((pfn << 12) | (va & 0xfff), v);
                };
                w(e + dir_off::START as u32, *start);
                w(e + dir_off::LEN as u32, *len);
            }
            let nb = prog.exe.exe.sym("sv_next_block").expect("sv_next_block");
            let pfn = pagemap.frame(key, nb >> 12);
            m.mem
                .write_word((pfn << 12) | (nb & 0xfff), next_free_block);
        }

        procs.push(ProcMeta {
            name: name.clone(),
            asid,
            table: prog.table.clone(),
            orig: prog.orig.clone(),
        });
    }

    let idle_range = (
        kernel_exe.exe.sym("idle_loop").expect("idle_loop"),
        kernel_exe.exe.sym("idle_out").expect("idle_out"),
    );
    m.set_idle_range(Some(idle_range));
    m.set_pc(kernel_exe.exe.entry);

    for (k, v) in kseg2_entries {
        pagemap.insert(k, v);
    }
    System {
        pagemap,
        machine: m,
        kernel_table,
        kernel_orig,
        kernel_exe,
        procs,
        cfg: cfg.clone(),
        idle_range,
    }
}

impl System {
    /// Runs the system to halt, draining the trace buffer at every
    /// analysis doorbell and collecting the words in
    /// [`SystemRun::trace_words`].
    ///
    /// # Panics
    ///
    /// Panics if the instruction budget is exhausted before halt.
    pub fn run(&mut self, max_insts: u64) -> SystemRun {
        let mut words = Vec::new();
        let mut out = self.run_with(max_insts, |chunk| words.extend_from_slice(chunk));
        out.trace_words = words;
        out
    }

    /// The one drain loop: runs the system to halt and hands each
    /// drained buffer to `on_drain` as it is read out — the paper's
    /// actual workflow, where the analysis program consumes the
    /// in-kernel buffer while the traced processes are paused (§3.3),
    /// rather than archiving the whole trace first. Nothing is
    /// retained: the slice is a buffer reused from drain to drain, so
    /// long runs never grow a whole-trace vector.
    ///
    /// # Panics
    ///
    /// Panics if the instruction budget is exhausted before halt.
    pub fn run_with(&mut self, max_insts: u64, mut on_drain: impl FnMut(&[u32])) -> SystemRun {
        let mut out = SystemRun::default();
        let mut buf = Vec::new();
        let mut budget = max_insts;
        loop {
            let before = self.machine.counters.insts();
            let ev = self.machine.run(budget);
            budget = budget.saturating_sub(self.machine.counters.insts() - before);
            match ev {
                StopEvent::TraceRequest(fill) => {
                    out.drains += 1;
                    let end = fill - layout::KSEG0;
                    buf.clear();
                    buf.extend(
                        (layout::KTRACE_PHYS..end)
                            .step_by(4)
                            .map(|a| self.machine.mem.read_word(a)),
                    );
                    on_drain(&buf);
                }
                StopEvent::Halted(code) => {
                    out.exit_code = code;
                    break;
                }
                other => panic!(
                    "system stopped unexpectedly: {other:?} at pc={:#010x} after {} insts",
                    self.machine.cpu.pc,
                    self.machine.counters.insts()
                ),
            }
            if budget == 0 {
                panic!(
                    "system budget exhausted at pc={:#010x}",
                    self.machine.cpu.pc
                );
            }
        }
        out.console = self.machine.dev.console.clone();
        out
    }

    /// Every user context's table, by token: each process under its
    /// ASID, and each thread spawned at run time under its own token
    /// with its parent's table (discovered from the final process
    /// table: a thread shares its parent's binary).
    fn user_tables(&self) -> Vec<(u8, Arc<BbTable>)> {
        let table_of = |asid: u8| self.procs.iter().find(|p| p.asid == asid)?.table.clone();
        let procs = self.procs.iter().map(|p| (p.asid, p.asid));
        procs
            .chain(self.thread_parents())
            .filter_map(|(token, asid)| Some((token, table_of(asid)?)))
            .collect()
    }

    /// Builds a trace parser sharing this system's tables, threads
    /// spawned at run time included.
    ///
    /// # Panics
    ///
    /// Panics when called on an untraced build.
    pub fn parser(&self) -> wrl_trace::TraceParser {
        let kt = self
            .kernel_table
            .clone()
            .expect("parser() needs a traced build");
        wrl_trace::TraceParser::with_tables(kt, self.user_tables())
    }

    /// Bundles a run's trace with this system's tables for
    /// distribution (the §3.4 "traces on tape"): the tables
    /// [`System::parser`] uses, so the archive parses as the live run
    /// does.
    ///
    /// # Panics
    ///
    /// Panics when called on an untraced build.
    pub fn archive(&self, run: &SystemRun) -> wrl_trace::TraceArchive {
        wrl_trace::TraceArchive {
            kernel_table: self.kernel_table.clone().expect("traced build"),
            user_tables: self.user_tables(),
            words: run.trace_words.clone(),
        }
    }

    /// Tokens of threads spawned at run time, with their parents'
    /// ASIDs (read from the final process table).
    pub fn thread_parents(&self) -> Vec<(u8, u8)> {
        let proc_base = self.kernel_exe.exe.sym("k_proc").expect("k_proc symbol") - layout::KSEG0;
        let mut out = Vec::new();
        for slot in self.procs.len()..layout::MAX_PROCS {
            let pb = proc_base + (slot as u32) * proc_off::SIZE;
            if self.machine.mem.read_word(pb + proc_off::STATE as u32) == 0 {
                continue;
            }
            let token = self.machine.mem.read_word(pb + proc_off::TOKEN as u32) as u8;
            let asid = self.machine.mem.read_word(pb + proc_off::ASID as u32) as u8;
            out.push((token, asid));
        }
        out
    }

    /// Map of process names to ASIDs.
    pub fn asids(&self) -> HashMap<String, u8> {
        self.procs
            .iter()
            .map(|p| (p.name.clone(), p.asid))
            .collect()
    }
}
