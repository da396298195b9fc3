//! Trace anatomy: boot the traced Ultrix system, collect the system
//! trace, and annotate its first entries — control words, kernel and
//! user basic blocks, and memory references — to show how the
//! one-word-per-entry format of §3.3 carries a whole system's
//! interleaved activity.

use systrace::kernel::{build_system, KernelConfig};
use systrace::trace::{classify, CtlOp, TraceWord};

fn main() {
    let w = systrace::workloads::by_name("sed").unwrap();
    let mut sys = build_system(&KernelConfig::ultrix().traced(), &[&w]);
    let run = sys.run(4_000_000_000);
    println!(
        "collected {} trace words over {} analysis phases (exit code {})",
        run.trace_words.len(),
        run.drains.max(1),
        run.exit_code
    );

    let ktab = sys.kernel_table.clone().unwrap();
    let utab = sys.procs[0].table.clone().unwrap();

    println!("\nfirst 40 entries, annotated:");
    let mut kernel_depth = 0i32;
    for (i, &word) in run.trace_words.iter().take(40).enumerate() {
        let note = match classify(word) {
            TraceWord::Ctl(c) => {
                match c.op {
                    CtlOp::KEnter => kernel_depth += 1,
                    CtlOp::KExit => kernel_depth -= 1,
                    _ => {}
                }
                match c.op {
                    CtlOp::CtxSwitch => format!("-- context switch to asid {}", c.payload),
                    CtlOp::KEnter => format!("-- kernel entered (cause {})", c.payload),
                    CtlOp::KExit => "-- kernel exited".to_string(),
                    CtlOp::TraceOn => "-- trace generation on".to_string(),
                    CtlOp::TraceOff => "-- trace generation off (analysis)".to_string(),
                    CtlOp::Eof => "-- end of trace".to_string(),
                }
            }
            TraceWord::Addr(a) => {
                if let Some(info) = ktab.get(a) {
                    format!(
                        "kernel bb   (orig {:#010x}, {} insts, {} mem ops{})",
                        info.orig_vaddr,
                        info.n_insts,
                        info.ops.len(),
                        if info.flags.idle_start { ", idle" } else { "" }
                    )
                } else if let Some(info) = utab.get(a) {
                    format!(
                        "user bb     (orig {:#010x}, {} insts, {} mem ops)",
                        info.orig_vaddr,
                        info.n_insts,
                        info.ops.len()
                    )
                } else if a >= 0x8000_0000 {
                    "kernel data address".to_string()
                } else {
                    "user data address".to_string()
                }
            }
            TraceWord::BadCtl(_) => "corrupt!".to_string(),
        };
        println!("{i:4}  {word:#010x}  [depth {kernel_depth}]  {note}");
    }

    // Parse the whole trace and summarise.
    let mut parser = sys.parser();
    parser.parse_all(&run.trace_words, &mut ());
    let s = &parser.stats;
    println!("\nwhole-trace summary:");
    println!(
        "  kernel irefs {:>9}   user irefs {:>9}",
        s.kernel_irefs, s.user_irefs
    );
    println!(
        "  kernel drefs {:>9}   user drefs {:>9}",
        s.kernel_drefs, s.user_drefs
    );
    println!(
        "  kernel entries {}, context switches {}, idle insts {}, parse errors {}",
        s.kernel_entries, s.ctx_switches, s.idle_insts, s.errors
    );
}
