//! The §5 validation panel and its five views: Table 1, Table 2,
//! Table 3, Figure 3 and the §5.1 idle-scale ablation.
//!
//! `validation DIR [WORKLOAD...]` validates each workload (all twelve
//! by default) once on Mach and once on Ultrix, and writes every view
//! of that one panel to `DIR/<view>.txt`.

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(dir) = args.next() else {
        eprintln!("usage: validation DIR [WORKLOAD...]");
        std::process::exit(2);
    };
    let workloads = wrl_bench::workloads_named(args);
    let panel = wrl_bench::validate_panel(&workloads);
    for (name, render) in wrl_bench::VIEWS {
        let path = format!("{dir}/{name}.txt");
        std::fs::write(&path, render(&panel)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}
