//! The twelve Table-1 workloads, as W3K programs.
//!
//! Each module implements one workload of the paper's experimental
//! suite (Table 1) as real assembly with the algorithm's
//! characteristic memory behaviour: sed's stream edit, egrep's scan
//! loops, yacc's LR-table walks, gcc's large multi-phase text,
//! compress's LZW hash sprawl, espresso's cube bitsets, lisp's cons
//! recursion, eqntott's TLB-thrashing truth table, fpppp's huge
//! straight-line FP blocks, doduc's branchy Monte-Carlo FP, liv's
//! store-per-iteration Livermore loop, and tomcatv's multi-array mesh
//! sweeps.
//!
//! Inputs are scaled so that the full validation matrix runs in
//! minutes (see DESIGN.md); the *relative* ordering of run times and
//! the characteristic event mixes (TLB misses, write-buffer pressure,
//! I/O) are preserved.

#![forbid(unsafe_code)]

pub mod compress;
pub mod doduc;
pub mod egrep;
pub mod eqntott;
pub mod espresso;
pub mod fpppp;
pub mod gcc;
pub mod hostenv;
pub mod lisp;
pub mod liv;
pub mod sed;
pub mod support;
pub mod tomcatv;
pub mod yacc;

pub use hostenv::HostEnv;

use wrl_isa::link::{link, Layout, Linked};
use wrl_isa::Object;
use wrl_machine::{Config, Machine, StopEvent};
use wrl_trace::layout::trapcode;

/// One experimental workload.
pub struct Workload {
    /// Short name (Table 1).
    pub name: &'static str,
    /// The Table-1 description.
    pub description: &'static str,
    /// Instruction budget for an untraced run (safety cutoff).
    pub max_insts: u64,
    /// Program objects: the workload itself plus crt0 and libw3k.
    pub objects: Vec<Object>,
    /// Input files placed on disk (or in the host FS for bare runs).
    pub files: Vec<(String, Vec<u8>)>,
}

fn with_rt(main_obj: Object) -> Vec<Object> {
    vec![main_obj, support::crt0(), support::libw3k()]
}

/// Returns all twelve workloads in Table-1 order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "sed",
            description: "The UNIX stream editor run three times over the same 17K input file.",
            max_insts: 4_000_000,
            objects: with_rt(sed::object()),
            files: sed::files(),
        },
        Workload {
            name: "egrep",
            description: "The UNIX pattern search program run three times over a 27K input file.",
            max_insts: 8_000_000,
            objects: with_rt(egrep::object()),
            files: egrep::files(),
        },
        Workload {
            name: "yacc",
            description: "The LR(1) parser-generator run on an 11K grammar.",
            max_insts: 8_000_000,
            objects: with_rt(yacc::object()),
            files: yacc::files(),
        },
        Workload {
            name: "gcc",
            description: "The GNU C compiler translating a 17K (preprocessed) source file \
                          into optimized Sun-3 assembly code.",
            max_insts: 16_000_000,
            objects: with_rt(gcc::object()),
            files: gcc::files(),
        },
        Workload {
            name: "compress",
            description: "Data compression using Lempel-Ziv encoding. A 100K file is \
                          compressed then uncompressed.",
            max_insts: 20_000_000,
            objects: with_rt(compress::object()),
            files: compress::files(),
        },
        Workload {
            name: "espresso",
            description: "A program that minimizes boolean functions run on a 30K input file.",
            max_insts: 24_000_000,
            objects: with_rt(espresso::object()),
            files: espresso::files(),
        },
        Workload {
            name: "lisp",
            description: "The 8-queens problem solved in LISP.",
            max_insts: 60_000_000,
            objects: with_rt(lisp::object()),
            files: lisp::files(),
        },
        Workload {
            name: "eqntott",
            description: "A program that converts boolean equations to truth tables using \
                          a 1390 byte input file.",
            max_insts: 40_000_000,
            objects: with_rt(eqntott::object()),
            files: eqntott::files(),
        },
        Workload {
            name: "fpppp",
            description: "A program that does quantum chemistry analysis. This program is \
                          written in Fortran.",
            max_insts: 30_000_000,
            objects: with_rt(fpppp::object()),
            files: fpppp::files(),
        },
        Workload {
            name: "doduc",
            description: "Monte-Carlo simulation of the time evolution of a nuclear reactor \
                          component described by 8K input file. This program is written in \
                          Fortran.",
            max_insts: 40_000_000,
            objects: with_rt(doduc::object()),
            files: doduc::files(),
        },
        Workload {
            name: "liv",
            description: "The Livermore Loops benchmark.",
            max_insts: 8_000_000,
            objects: with_rt(liv::object()),
            files: liv::files(),
        },
        Workload {
            name: "tomcatv",
            description: "A program that generates a vectorized mesh. This program is \
                          written in Fortran.",
            max_insts: 80_000_000,
            objects: with_rt(tomcatv::object()),
            files: tomcatv::files(),
        },
    ]
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Links a workload's objects with the user layout.
pub fn link_user(objects: &[Object]) -> Linked {
    link(objects, Layout::user(), "__start").expect("workload links")
}

/// Result of a bare (kernel-less) workload run.
pub struct BareRun {
    /// The machine after the run.
    pub machine: Machine,
    /// The host environment (files, console output, exit code).
    pub env: HostEnv,
    /// Instructions retired.
    pub insts: u64,
}

/// Runs a workload to completion on a bare machine with host-emulated
/// syscalls.
///
/// # Panics
///
/// Panics if the run does not exit within the budget or stops
/// abnormally — workload tests rely on this.
pub fn run_bare(w: &Workload) -> BareRun {
    let linked = link_user(&w.objects);
    let mut m = Machine::new(Config::bare(), vec![]);
    m.load_executable(&linked.exe);
    m.set_pc(linked.exe.entry);
    let mut env = HostEnv::new(w.files.iter().cloned());
    env.brk = linked.exe.brk();
    let mut budget = w.max_insts;
    loop {
        let before = m.counters.insts();
        let ev = m.run(budget);
        budget = budget.saturating_sub(m.counters.insts() - before);
        match ev {
            StopEvent::Syscall(code) if code == trapcode::SYSCALL_ABI => {
                if !env.handle(&mut m) {
                    break;
                }
            }
            StopEvent::Budget => panic!("{}: instruction budget exhausted", w.name),
            other => panic!("{}: unexpected stop {other:?}", w.name),
        }
        if budget == 0 {
            panic!("{}: instruction budget exhausted", w.name);
        }
    }
    let insts = m.counters.insts();
    BareRun {
        machine: m,
        env,
        insts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_is_the_papers_twelve() {
        let ws = all();
        assert_eq!(ws.len(), 12);
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        let mut want = vec![
            "compress", "doduc", "egrep", "eqntott", "espresso", "fpppp", "gcc", "lisp", "liv",
            "sed", "tomcatv", "yacc",
        ];
        want.sort_unstable();
        assert_eq!(names, want);
        for w in &ws {
            assert!(!w.description.is_empty(), "{} lacks a description", w.name);
            assert!(w.max_insts > 0);
            assert!(w.objects.len() >= 2, "{}: crt0 + code expected", w.name);
        }
    }

    #[test]
    fn by_name_round_trips_and_rejects_unknown() {
        for w in all() {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("dhrystone").is_none());
    }

    #[test]
    fn input_generators_are_deterministic() {
        assert_eq!(support::gen_text(7, 4096), support::gen_text(7, 4096));
        assert_ne!(support::gen_text(7, 4096), support::gen_text(8, 4096));
        let b = support::gen_binary(3, 1000);
        assert_eq!(b.len(), 1000);
        assert_eq!(b, support::gen_binary(3, 1000));
    }
}
