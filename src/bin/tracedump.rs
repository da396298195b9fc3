//! tracedump: record, inspect and re-analyse system trace archives.
//!
//! ```text
//! tracedump record <workload> <ultrix|mach> <out.w3kt>   collect a system trace
//! tracedump info   <file.w3kt>                           summarise an archive (any version)
//! tracedump refs   <file.w3kt> [n]                       print the first n references
//! tracedump sim    <file.w3kt>                           run the memory-system simulation
//! tracedump metrics <file.w3kt> [out.json]               re-analyse and dump wrl-obs metrics
//! tracedump compress <in.w3kt> <out.w3kt> [block_words] [--format v3|v4]
//!                                                        write a compressed block store
//! tracedump serve  <addr> <file.w3kt>...                 serve archives over wrl-wire/v1
//! tracedump catalog <addr>                               list a server's archives
//! tracedump fetch  <addr> <archive> [--asid A] [--window LO..HI]
//!                                                        run a windowed query server-side
//! tracedump analyze <file.w3kt> <sinks> [--workers N]
//!                                                        run a composed sink stack in one pass
//! tracedump analyze <addr> <archive> <sinks> --tables <file.w3kt> [--asid A] [--window LO..HI]
//!                                                        same, over a remote node's word stream
//! ```
//!
//! Every reading subcommand accepts all archive versions: raw v1
//! archives and compressed, block-indexed v3/v4 stores
//! (`wrl-store`). `compress --format v4` writes the columnar layout
//! (per-class columns, per-ASID zonemaps) and `info` reports its
//! per-column byte split.
//! The `serve` / `catalog` / `fetch` trio is the `wrl-serve` client
//! and server surface: `serve` publishes archives (named by file
//! stem) on a TCP address, and `fetch` ships only the trace words the
//! predicate admits — blocks the index rules out are never decoded.
//! `analyze` is the `wrl-tracer` surface: a comma-separated sink
//! spec (`cache:65536:2,tlb,dilation,pagemap,defense,sampled:64k,
//! wset:4096,phase:4096:0.5`) builds a composed stack fed from one
//! decode+parse pass — inline (the default) or with the sinks dealt
//! over `--workers`, each worker decoding and parsing the archive
//! once for its share; the report is the same either way. The remote
//! form ships only the predicate-admitted word stream from a `serve`
//! node; the static basic-block tables are read from a locally-held
//! archive (`--tables`), the same split as debug symbols vs a core
//! file.

use std::sync::Arc;
use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::{MemSim, PageMap, Policy};
use systrace::serve::{Catalog, Client, ServeCfg, Server};
use systrace::store::{BlockFormat, FarmCfg, Predicate, StoreObs, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{Space, TraceArchive, TraceSink};
use systrace::tracer::{analyze_store, analyze_words, build_stack, TracerObs};

/// `tracedump refs … | head -1` closes the pipe after one line: the
/// next print to it is the end of output, exit 0, not a panic.
fn end_output_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        report(info);
    }));
}

fn usage() -> ! {
    eprintln!("usage: tracedump record <workload> <ultrix|mach> <out.w3kt>");
    eprintln!("       tracedump info <file.w3kt>");
    eprintln!("       tracedump refs <file.w3kt> [n]");
    eprintln!("       tracedump sim <file.w3kt>");
    eprintln!("       tracedump metrics <file.w3kt> [out.json]");
    eprintln!("       tracedump compress <in.w3kt> <out.w3kt> [block_words] [--format v3|v4]");
    eprintln!("       tracedump serve <addr> <file.w3kt>...");
    eprintln!("       tracedump catalog <addr>");
    eprintln!("       tracedump fetch <addr> <archive> [--asid A] [--window LO..HI]");
    eprintln!("       tracedump analyze <file.w3kt> <sinks> [--workers N]");
    eprintln!(
        "       tracedump analyze <addr> <archive> <sinks> --tables <file.w3kt> [--asid A] [--window LO..HI]"
    );
    std::process::exit(2);
}

fn main() {
    end_output_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") if args.len() == 4 => record(&args[1], &args[2], &args[3]),
        Some("info") if args.len() == 2 => info(&args[1]),
        Some("refs") => refs(
            args.get(1).unwrap_or_else(|| usage()),
            args.get(2).and_then(|s| s.parse().ok()).unwrap_or(30),
        ),
        Some("sim") if args.len() == 2 => sim(&args[1]),
        Some("metrics") if args.len() == 2 || args.len() == 3 => {
            metrics(&args[1], args.get(2).map(String::as_str))
        }
        Some("compress") if args.len() >= 3 => {
            let mut block_words = DEFAULT_BLOCK_WORDS;
            let mut format = BlockFormat::Row;
            let mut it = args[3..].iter();
            while let Some(opt) = it.next() {
                match opt.as_str() {
                    "--format" => {
                        format = match it.next().map(String::as_str) {
                            Some("v3") => BlockFormat::Row,
                            Some("v4") => BlockFormat::Columnar,
                            _ => usage(),
                        }
                    }
                    s => block_words = s.parse().unwrap_or_else(|_| usage()),
                }
            }
            compress(&args[1], &args[2], block_words, format)
        }
        Some("serve") if args.len() >= 3 => serve(&args[1], &args[2..]),
        Some("catalog") if args.len() == 2 => catalog(&args[1]),
        Some("fetch") if args.len() >= 3 => fetch(&args[1], &args[2], &args[3..]),
        Some("analyze") if args.len() >= 3 => analyze(&args[1..]),
        _ => usage(),
    }
}

fn record(workload: &str, os: &str, out: &str) {
    let w = systrace::workloads::by_name(workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}");
        std::process::exit(2);
    });
    let cfg = match os {
        "mach" => KernelConfig::mach().traced(),
        "ultrix" => KernelConfig::ultrix().traced(),
        _ => usage(),
    };
    let mut sys = build_system(&cfg, &[&w]);
    let run = sys.run(8_000_000_000);
    let archive = sys.archive(&run);
    archive.save(out).expect("write archive");
    println!(
        "recorded {} trace words ({} analysis phases) to {out}",
        archive.words.len(),
        run.drains.max(1)
    );
}

/// Loads either archive version as a block store (a v1 file is
/// compressed in memory).
fn load_store(path: &str) -> TraceStore {
    TraceStore::load(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// Loads either archive version as a raw in-memory archive.
fn load(path: &str) -> TraceArchive {
    load_store(path).to_archive().unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// The on-disk format version of a `W3KTRACE` file, if readable.
fn disk_version(path: &str) -> Option<u32> {
    let mut header = [0u8; 12];
    use std::io::Read;
    let mut f = std::fs::File::open(path).ok()?;
    f.read_exact(&mut header).ok()?;
    (&header[..8] == systrace::trace::archive::MAGIC)
        .then(|| u32::from_le_bytes(header[8..12].try_into().unwrap()))
}

fn info(path: &str) {
    let store = load_store(path);
    let a = store.to_archive().unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    println!("{path}:");
    match disk_version(path) {
        // Every loadable version above 1 is a compressed block store.
        Some(v) if v >= 2 => println!(
            "  format      : v{v} store, {} blocks of {} words, {} -> {} bytes ({:.2}x)",
            store.n_blocks(),
            store.block_words,
            store.raw_bytes(),
            store.compressed_bytes(),
            store.raw_bytes() as f64 / store.compressed_bytes().max(1) as f64,
        ),
        Some(v) => println!("  format      : v{v} archive (raw words)"),
        None => {}
    }
    // Columnar stores also report the per-column byte split: the
    // column budget (every read decodes all seven).
    if let Ok(Some(stats)) = store.column_stats() {
        let total = store.compressed_bytes().max(1);
        for (name, bytes) in systrace::store::column::COLUMN_NAMES
            .iter()
            .zip(stats.section_bytes)
        {
            println!(
                "  column      : {name:<12} {bytes:>10} bytes ({:.1}%)",
                100.0 * bytes as f64 / total as f64
            );
        }
        println!(
            "  column      : {:<12} {:>10} bytes ({:.1}%)",
            "(framing)",
            stats.overhead_bytes,
            100.0 * stats.overhead_bytes as f64 / total as f64
        );
    }
    println!("  trace words : {}", a.words.len());
    println!("  kernel table: {} blocks", a.kernel_table.len());
    for (asid, t) in &a.user_tables {
        println!("  user table  : asid {asid}, {} blocks", t.len());
    }
    let mut parser = a.parser();
    let mut sink = systrace::trace::CollectSink::default();
    parser.parse_all(&a.words, &mut sink);
    let s = &parser.stats;
    println!("  kernel refs : {} I, {} D", s.kernel_irefs, s.kernel_drefs);
    println!("  user refs   : {} I, {} D", s.user_irefs, s.user_drefs);
    println!(
        "  {} kernel entries, {} context switches, {} idle insts, {} errors",
        s.kernel_entries, s.ctx_switches, s.idle_insts, s.errors
    );
}

fn refs(path: &str, n: usize) {
    let a = load(path);
    struct Printer {
        left: usize,
    }
    impl TraceSink for Printer {
        fn irefs(&mut self, va: u32, n: u32, space: Space, idle: bool) {
            for i in (0..n).take(self.left) {
                println!(
                    "I {:#010x} {}{}",
                    va + 4 * i,
                    match space {
                        Space::Kernel => "kernel".into(),
                        Space::User(a) => format!("user:{a}"),
                    },
                    if idle { " idle" } else { "" }
                );
                self.left -= 1;
            }
        }
        fn dref(&mut self, va: u32, store: bool, _w: systrace::isa::Width, space: Space) {
            if self.left > 0 {
                println!(
                    "{} {va:#010x} {}",
                    if store { "S" } else { "L" },
                    match space {
                        Space::Kernel => "kernel".into(),
                        Space::User(a) => format!("user:{a}"),
                    }
                );
                self.left -= 1;
            }
        }
    }
    let mut parser = a.parser();
    let mut p = Printer { left: n };
    for &w in &a.words {
        if p.left == 0 {
            break;
        }
        parser.push_word(w, &mut p);
    }
}

fn sim(path: &str) {
    let a = load(path);
    let mut parser = a.parser();
    let mut sim = MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x2000 }));
    parser.parse_all(&a.words, &mut sim);
    let s = &sim.stats;
    println!("memory-system simulation of {path}:");
    println!("  instructions : {}", s.insts());
    println!(
        "  icache misses: {} ({:.3}%)",
        s.imisses,
        100.0 * s.imisses as f64 / s.insts().max(1) as f64
    );
    println!("  dcache misses: {}", s.dmisses);
    println!("  wb stalls    : {} cycles", s.wb_stall_cycles);
    println!("  utlb misses  : {}", s.utlb_misses);
    println!(
        "  kernel CPI {:.2} / user CPI {:.2}",
        s.kernel_cpi(),
        s.user_cpi()
    );
    println!("  total cycles : {}", sim.cycles);
}

fn metrics(path: &str, out: Option<&str>) {
    systrace::obs::register_all();
    let a = load(path);
    let mut parser = a.parser();
    parser.attach_obs(systrace::trace::ParserObs::register());
    let mut sim = MemSim::new(PageMap::new(Policy::FirstFree { base_pfn: 0x2000 }));
    parser.parse_all(&a.words, &mut sim);
    parser.stats.export_obs();
    sim.stats.export_obs();
    let json = systrace::obs::global()
        .snapshot()
        .to_json(&[("source", path)]);
    match out {
        Some(f) => {
            std::fs::write(f, &json).expect("write metrics json");
            eprintln!("wrote metrics to {f}");
        }
        None => println!("{json}"),
    }
}

/// Serves `paths` (named by file stem) on `addr` until killed. Used
/// interactively and by the CI serve-smoke job.
fn serve(addr: &str, paths: &[String]) {
    systrace::obs::register_all();
    let mut cat = Catalog::new();
    for p in paths {
        let name = std::path::Path::new(p)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(p)
            .to_string();
        let store = load_store(p);
        println!(
            "  {name}: {} words in {} blocks of {}",
            store.n_words,
            store.n_blocks(),
            store.block_words
        );
        cat.add(name, Arc::new(store));
    }
    let server = Server::start(addr, cat, ServeCfg::default()).unwrap_or_else(|e| {
        eprintln!("{addr}: {e}");
        std::process::exit(1);
    });
    println!("serving {} archive(s) on {}", paths.len(), server.addr());
    loop {
        std::thread::park();
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("{addr}: {e}");
        std::process::exit(1);
    })
}

fn catalog(addr: &str) {
    let mut client = connect(addr);
    let rows = client.catalog().unwrap_or_else(|e| {
        eprintln!("catalog: {e}");
        std::process::exit(1);
    });
    println!("{addr}: {} archive(s)", rows.len());
    for r in rows {
        println!(
            "  {:<16} {:>10} words, {:>6} blocks of {:>5}, {:>9} bytes compressed",
            r.name, r.n_words, r.n_blocks, r.block_words, r.compressed_bytes
        );
    }
}

/// Parses the predicate flags `--asid A` and `--window LO..HI` out of
/// `opts`. Any other flag goes to `extra` with the rest of the
/// arguments, to take its value from; `extra` exits with [`usage`] on
/// a flag its subcommand does not know.
fn predicate<'a>(
    opts: &'a [String],
    mut extra: impl FnMut(&str, &mut std::slice::Iter<'a, String>),
) -> Predicate {
    let mut pred = Predicate::default();
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--asid" => {
                let a = it.next().and_then(|s| s.parse().ok());
                pred.asid = Some(a.unwrap_or_else(|| usage()));
            }
            "--window" => {
                let w = it.next().and_then(|s| {
                    let (lo, hi) = s.split_once("..")?;
                    Some((lo.parse().ok()?, hi.parse().ok()?))
                });
                pred.window = Some(w.unwrap_or_else(|| usage()));
            }
            flag => extra(flag, &mut it),
        }
    }
    pred
}

fn fetch(addr: &str, archive: &str, opts: &[String]) {
    let pred = predicate(opts, |_, _| usage());
    let mut client = connect(addr);
    let q = client.query(archive, &pred).unwrap_or_else(|e| {
        eprintln!("fetch: {e}");
        std::process::exit(1);
    });
    let touched = q.blocks_decoded + q.blocks_skipped;
    println!("{archive} @ {addr}:");
    println!(
        "  predicate   : asid={} window={}",
        pred.asid.map_or("any".into(), |a| a.to_string()),
        pred.window
            .map_or("all".into(), |(lo, hi)| format!("{lo}..{hi}")),
    );
    println!("  trace words : {}", q.words.len());
    println!(
        "  blocks      : {} decoded, {} skipped ({:.1}% pushed down)",
        q.blocks_decoded,
        q.blocks_skipped,
        100.0 * f64::from(q.blocks_skipped) / f64::from(touched.max(1)),
    );
}

/// Runs a composed sink stack in one decode+parse pass, locally over
/// a store file or remotely over a served archive's word stream.
/// Prints every sink's report; exits 1 if any sink failed mid-pass.
fn analyze(args: &[String]) {
    if args.iter().any(|a| a == "--tables") {
        if args.len() < 3 {
            usage();
        }
        analyze_remote(&args[0], &args[1], &args[2], &args[3..]);
    } else {
        analyze_local(&args[0], &args[1], &args[2..]);
    }
}

/// Builds the stack for `spec` (exiting with usage-style diagnostics
/// on a bad spec) and attaches the `tracer.*` metrics.
fn stack_for(spec: &str) -> systrace::tracer::Stack {
    let pagemap = PageMap::new(Policy::FirstFree { base_pfn: 0x2000 });
    let mut stack = build_stack(spec, &pagemap).unwrap_or_else(|e| {
        eprintln!("sink spec: {e}");
        std::process::exit(2);
    });
    stack.attach_obs(TracerObs::register());
    stack
}

/// Prints one pass's reports and exits nonzero if a sink failed.
fn finish_analysis(report: &systrace::tracer::StackReport) {
    println!(
        "  {} words analysed by {} sink(s), {} events routed",
        report.words,
        report.reports.len(),
        report.applied
    );
    print!("{}", report.render());
    if report.failed() > 0 {
        std::process::exit(1);
    }
}

fn analyze_local(path: &str, spec: &str, opts: &[String]) {
    systrace::obs::register_all();
    let mut cfg = FarmCfg { workers: 1 };
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--workers" => {
                cfg.workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let store = load_store(path);
    let stack = stack_for(spec);
    println!("one-pass analysis of {path}:");
    let report = analyze_store(&store, stack, cfg).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    finish_analysis(&report);
}

/// Remote analysis: the word stream comes from a `serve` node via a
/// predicate-pushdown query; the static basic-block tables (which the
/// fetch path never ships) come from a locally held archive of the
/// same trace.
fn analyze_remote(addr: &str, archive: &str, spec: &str, opts: &[String]) {
    systrace::obs::register_all();
    let mut tables: Option<&str> = None;
    let pred = predicate(opts, |flag, it| match flag {
        "--tables" => tables = Some(it.next().unwrap_or_else(|| usage())),
        _ => usage(),
    });
    let tables = tables.unwrap_or_else(|| usage());
    let parser = load_store(tables).parser();
    let stack = stack_for(spec);
    let mut client = connect(addr);
    let q = client.query(archive, &pred).unwrap_or_else(|e| {
        eprintln!("analyze: {e}");
        std::process::exit(1);
    });
    println!(
        "one-pass analysis of {archive} @ {addr} ({} decoded / {} skipped blocks):",
        q.blocks_decoded, q.blocks_skipped
    );
    let report = analyze_words(parser, &q.words, stack);
    finish_analysis(&report);
}

fn compress(inp: &str, out: &str, block_words: usize, format: BlockFormat) {
    let obs = StoreObs::register();
    // Rebuild from the raw words so the requested block size and
    // format apply regardless of the input's format or block size.
    let a = load(inp);
    let store = TraceStore::from_archive_with(&a, block_words, format);
    store.save(out).unwrap_or_else(|e| {
        eprintln!("{out}: {e}");
        std::process::exit(1);
    });
    obs.export_store(&store);
    println!(
        "compressed {} words into {} v{} blocks: {} -> {} bytes ({:.2}x)",
        store.n_words,
        store.n_blocks(),
        format.version(),
        store.raw_bytes(),
        store.compressed_bytes(),
        store.raw_bytes() as f64 / store.compressed_bytes().max(1) as f64,
    );
}
