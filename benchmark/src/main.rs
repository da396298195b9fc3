//! The systrace benchmark: four workloads over the reproduction's two
//! real paths, measured end to end with tracing off and layer by
//! layer, from spans around each layer's public entry points, with
//! tracing on. `README.md` beside this package has the tables.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark compare <set-a> <set-b>
//! ```

mod compare;
mod gen;
mod metrics;
mod panel;
mod pin;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::process::Command;

use panel::Cx;
use run::{Metric, Opts, Outcome, Workload};
use workloads::archive_analyze::ArchiveAnalyze;
use workloads::archive_scan::ArchiveScan;
use workloads::serve_query::ServeQuery;
use workloads::trace_predict::TracePredict;

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "trace_predict",
    "archive_scan",
    "archive_analyze",
    "serve_query",
];

const USAGE: &str =
    "usage: benchmark --workload <trace_predict|archive_scan|archive_analyze|serve_query> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]\n       benchmark compare <set-a> <set-b>";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        },
    })
}

/// First line of a command's output, or `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The run header: what was asked and on what host.
fn header<'a, W: Workload<'a>>(opts: &Opts, nproc: usize, pinned: Option<usize>) {
    println!(
        "# systrace benchmark: workload={} seed={} seconds={} trace={} smoke={}",
        W::NAME,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        u8::from(opts.smoke)
    );
    let pinned = pinned.map_or("none".to_string(), |cpu| cpu.to_string());
    println!(
        "# host: nproc={nproc} pinned_to_cpu={pinned} load_threads=1 other_threads=[{}]",
        W::threads()
    );
    println!(
        "# toolchain: {}",
        first_line(Command::new("rustc").arg("--version"))
    );
    // The ceiling keeps git inside this checkout: a checkout that is
    // not a repository of its own reports `unknown`.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd);
    println!(
        "# commit: {}",
        first_line(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        )
    );
    println!("# loadavg at start: {}", loadavg());
}

fn unit_of(m: &Metric) -> &'static str {
    let row = metrics::END_TO_END.iter().find(|e| e.name == m.name);
    row.expect("an end-to-end metric of the table").unit
}

fn print_metric(workload: &str, m: &Metric) {
    println!(
        "metric {workload} {} {} {} n={}",
        m.name,
        m.value,
        unit_of(m),
        m.samples
    );
}

/// Where the span file goes: beside the package when run from the
/// repository root, as the benchmark's command does.
fn out_dir() -> std::path::PathBuf {
    let package = std::path::Path::new("benchmark");
    if package.join("Cargo.toml").is_file() {
        package.join("benchmark-out")
    } else {
        "benchmark-out".into()
    }
}

fn json_metrics<'m>(metrics: impl Iterator<Item = (&'m str, f64, &'m str)>) -> String {
    let rows: Vec<String> = metrics
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Prints what the run measured; the last line is the result object.
fn report<'a, W: Workload<'a>>(opts: &Opts, o: &Outcome) -> std::io::Result<()> {
    for m in o.common.iter().chain(&o.own) {
        print_metric(W::NAME, m);
    }
    println!("diag {} passes {}", W::NAME, o.passes);
    println!("diag {} pass_iqr_pct {:.2}", W::NAME, o.pass_iqr_pct);
    println!("diag {} drift_pct {:+.2}", W::NAME, o.drift_pct);
    for what in &o.wrong {
        println!("wrong {} {what}", W::NAME);
    }
    let metrics = if opts.trace {
        let per_layer = metrics::per_layer();
        for name in o.layers.keys() {
            assert!(
                per_layer.iter().any(|(n, ..)| n == name),
                "{name} is not in the per-layer table"
            );
        }
        // Every per-layer metric, 0 for a layer this workload leaves idle.
        let values: Vec<(&str, f64, &str)> = per_layer
            .iter()
            .map(|(name, unit, _)| {
                let name = name.as_str();
                (name, o.layers.get(name).copied().unwrap_or(0.0), *unit)
            })
            .collect();
        for (name, value, unit) in &values {
            println!("layer {} {name} {value} {unit}", W::NAME);
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.spans.jsonl", W::NAME));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans::write_jsonl(&o.spans, &mut file)?;
        file.flush()?;
        println!("# {} spans written to {}", o.spans.len(), path.display());
        json_metrics(values.into_iter())
    } else {
        // What every workload reports is what BENCHMARK.json lists,
        // in its order.
        let everywhere = metrics::END_TO_END.iter().filter(|e| e.everywhere);
        json_metrics(everywhere.map(|e| {
            let mut measured = o.common.iter().chain(&o.own);
            let m = measured.find(|m| m.name == e.name);
            let m = m.unwrap_or_else(|| panic!("{} reports no {}", W::NAME, e.name));
            (e.name, m.value, e.unit)
        }))
    };
    println!("# loadavg at end: {}", loadavg());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.wrong.is_empty(),
        o.tally.attempted,
        o.tally.failed
    );
    Ok(())
}

fn drive<'a, W: Workload<'a>>(cx: &'a Cx, opts: &Opts) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    header::<W>(opts, nproc, pin::to_one_cpu());
    let outcome = run::run::<W>(cx, opts);
    match report::<W>(opts, &outcome) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let code = match &args[1..] {
            [a, b] => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
        std::process::exit(code);
    }
    let Args { workload, opts } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cx = Cx::new(opts.seed);
    let code = match workload.as_str() {
        "trace_predict" => drive::<TracePredict>(&cx, &opts),
        "archive_scan" => drive::<ArchiveScan>(&cx, &opts),
        "archive_analyze" => drive::<ArchiveAnalyze>(&cx, &opts),
        _ => drive::<ServeQuery>(&cx, &opts),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contracts_command_line_parses() {
        let a = parse_args(&args(
            "--workload serve_query --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_query");
        assert_eq!((a.opts.seed, a.opts.seconds), (7, 30.0));
        assert!(a.opts.trace && !a.opts.smoke);
        let a = parse_args(&args(
            "--smoke --trace 0 --seconds 1 --seed 0 --workload archive_scan",
        ))
        .unwrap();
        assert!(a.opts.smoke && !a.opts.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload archive_scan --seed x --seconds 1 --trace 0",
            "--workload archive_scan --seed 1 --seconds 0 --trace 0",
            "--workload archive_scan --seed 1 --seconds 1 --trace 2",
            "--workload archive_scan --seed 1 --seconds 1",
            "--workload archive_scan --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload archive_scan --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_object_has_every_digit_and_no_more_keys() {
        let json =
            json_metrics([("setup_s", 0.8127341, "s"), ("peak_rss_mb", 71.0, "MB")].into_iter());
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0.8127341, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 71, \"unit\": \"MB\"}}"
        );
    }
}
