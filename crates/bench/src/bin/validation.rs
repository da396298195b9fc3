//! The §5 validation panel and its eight views: Table 1, Table 2,
//! Table 3, Figure 3, the §5.1 idle-scale ablation, the §4.1 dilation
//! table, the §3.4 kernel-vs-user CPI split and Table 2 to the cycle.
//!
//! `validation DIR [WORKLOAD...]` validates each workload (all twelve
//! by default) once on Mach and once on Ultrix, and writes every view
//! of that one panel to `DIR/<view>.txt`. `dilation.txt` also gets the
//! §4.1 UTLB-synthesis ablation, the one run outside the panel.

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(dir) = args.next() else {
        eprintln!("usage: validation DIR [WORKLOAD...]");
        std::process::exit(2);
    };
    let workloads = wrl_bench::workloads_named(args);
    let panel = wrl_bench::validate_panel(&workloads);
    for (name, render) in wrl_bench::VIEWS {
        let mut text = render(&panel);
        if name == "dilation" {
            text += &wrl_bench::utlb_synthesis_ablation();
        }
        let path = format!("{dir}/{name}.txt");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}
