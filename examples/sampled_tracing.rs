//! Sampled tracing with `trace_ctl` — the §3.1/§3.3 kernel interface.
//!
//! "The kernel call interface supports requests to activate and
//! deactivate tracing": a program (or a controlling tool) can bracket
//! just the phases it cares about, paying the ~10x dilation only
//! there. This example builds a program with an *untraced* warm-up
//! phase (a large initialization loop) and a *traced* steady-state
//! phase, runs it both ways, and shows what sampling saves.

use systrace::isa::asm::Asm;
use systrace::isa::reg::*;
use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::MemSim;
use systrace::trace::layout::trace_ctl;

/// A two-phase program. When `sample` is true the warm-up phase is
/// excluded from the trace with `trace_ctl`.
fn two_phase(sample: bool) -> systrace::workloads::Workload {
    let mut a = Asm::new("phases");
    a.global_label("main");
    a.addiu(SP, SP, -8);
    a.sw(RA, 4, SP);

    if sample {
        a.li(A0, trace_ctl::STOP as i32);
        a.jal("__trace_ctl");
        a.nop();
    }
    // Warm-up: touch a 64 KB arena (the "initialization" the paper's
    // users would skip).
    a.la(T0, "arena");
    a.li(T1, 16384);
    a.label("warm");
    a.sw(T1, 0, T0);
    a.addiu(T0, T0, 4);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "warm");
    a.nop();
    if sample {
        a.li(A0, trace_ctl::START as i32);
        a.jal("__trace_ctl");
        a.nop();
    }

    // Steady state: a pointer-chase over the arena (the phase under
    // study).
    a.la(T0, "arena");
    a.li(T1, 4000);
    a.li(T2, 0);
    a.label("steady");
    a.sll(T3, T2, 2);
    a.la(T4, "arena");
    a.addu(T3, T4, T3);
    a.lw(T2, 0, T3);
    a.andi(T2, T2, 0x3fff);
    a.addiu(T1, T1, -1);
    a.bne(T1, ZERO, "steady");
    a.nop();

    a.li(V0, 0);
    a.lw(RA, 4, SP);
    a.jr(RA);
    a.addiu(SP, SP, 8);

    a.data();
    a.align4();
    a.global_label("arena");
    a.space(64 * 1024);

    systrace::workloads::Workload {
        name: "phases",
        description: "two-phase program for sampled tracing",
        max_insts: 40_000_000,
        objects: vec![
            a.finish(),
            systrace::workloads::support::crt0(),
            systrace::workloads::support::libw3k(),
        ],
        files: vec![],
    }
}

fn run(sample: bool) -> (usize, u64, f64) {
    let w = two_phase(sample);
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(2_000_000_000);
    assert_eq!(run.exit_code, 0);
    let mut parser = sys.parser();
    let mut sim = MemSim::new(sys.pagemap.clone());
    parser.parse_all(&run.trace_words, &mut sim);
    assert_eq!(parser.stats.errors, 0);
    (
        run.trace_words.len(),
        sim.stats.insts(),
        sim.stats.user_cpi(),
    )
}

fn main() {
    println!("sampled tracing via trace_ctl (§3.1/§3.3)\n");
    let (full_words, full_insts, full_cpi) = run(false);
    let (samp_words, samp_insts, samp_cpi) = run(true);
    println!("            |  trace words | traced insts | user CPI");
    println!("{:-<54}", "");
    println!(
        "full trace  | {:>12} | {:>12} | {:>7.2}",
        full_words, full_insts, full_cpi
    );
    println!(
        "steady only | {:>12} | {:>12} | {:>7.2}",
        samp_words, samp_insts, samp_cpi
    );
    println!("{:-<54}", "");
    println!(
        "sampling excluded the warm-up: {:.0}% fewer trace words,",
        100.0 * (1.0 - samp_words as f64 / full_words as f64)
    );
    println!("while the steady-state phase is captured identically.");
    assert!(samp_words < full_words / 2);
}
