//! `archive_scan`: a cold read of the store. Every pass opens each of
//! the four serialized archives, scans it block by block with CRC
//! verification, and runs the entry's 64 seeded queries with no block
//! cache. The store's decode and index pruning do all the work and
//! the parser none; the set-up is the store's write path.

use systrace::store::{crc32_words, BlockFormat, TraceStore};

use crate::panel::{exact_metrics, Archives, Cx, QuerySet, ARCHIVES};
use crate::run::{Findings, Tally, Workload};
use crate::spans::Spans;

pub struct ArchiveScan<'a> {
    cx: &'a Cx,
    arch: Archives,
    queries: [QuerySet; 2],
    /// Blocks the queries of one pass decoded and skipped.
    decoded: u64,
    skipped: u64,
}

/// Span of a whole-archive block scan, by block format.
pub fn decode_span(format: BlockFormat) -> &'static str {
    match format {
        BlockFormat::Row => "store.decode_v3",
        BlockFormat::Columnar => "store.decode_v4",
    }
}

/// Scans `store` with its block reader and compares every block with
/// the recorded words. The comparison is the benchmark's own work and
/// gets its own span inside the decode span.
pub fn scan_equals(store: &TraceStore, words: &[u32], sp: &Spans) -> bool {
    sp.time(decode_span(store.format()), || {
        let mut reader = store.block_reader();
        let mut at = 0;
        while let Some(block) = reader.next_block() {
            let Ok(block) = block else { return false };
            if !sp.time("bench.check", || words[at..].starts_with(block)) {
                return false;
            }
            at += block.len();
        }
        at == words.len()
    })
}

impl ArchiveScan<'_> {
    fn returned_words(&self) -> u64 {
        let per_entry = |q: &QuerySet| q.expected.iter().map(|w| w.len() as u64).sum::<u64>();
        // Each entry's query set runs against both of its archives.
        2 * self.queries.iter().map(per_entry).sum::<u64>()
    }

    fn scanned_words(&self) -> u64 {
        (0..4).map(|a| self.arch.words(a).len() as u64).sum()
    }
}

impl<'a> Workload<'a> for ArchiveScan<'a> {
    const NAME: &'static str = "archive_scan";
    type Products = Archives;

    fn set_up(cx: &'a Cx, sp: &Spans) -> Archives {
        Archives::build(cx, sp)
    }

    fn digest(arch: &Archives) -> u64 {
        arch.digest()
    }

    fn new(cx: &'a Cx, arch: Archives) -> Self {
        let queries = [0, 1].map(|e| QuerySet::new(cx.seed, e, &arch.recorded[e]));
        ArchiveScan {
            cx,
            arch,
            queries,
            decoded: 0,
            skipped: 0,
        }
    }

    fn words_per_pass(&self) -> u64 {
        self.scanned_words() + self.returned_words()
    }

    fn pass(&mut self, sp: &Spans, _timed: bool) -> Tally {
        let mut tally = Tally::default();
        (self.decoded, self.skipped) = (0, 0);
        for (a, (_, entry, _)) in ARCHIVES.iter().enumerate() {
            let opened = sp.time("store.open", || TraceStore::decode_any(&self.arch.bytes[a]));
            tally.op(opened.is_ok());
            let Ok(store) = opened else { continue };
            tally.op(scan_equals(&store, self.arch.words(a), sp));
            let qs = &self.queries[*entry];
            for (pred, want) in qs.preds.iter().zip(&qs.expected) {
                let got = sp.time("store.query", || store.query(pred));
                tally.op(sp.time("bench.check", || match &got {
                    Ok(q) => {
                        self.decoded += u64::from(q.blocks_decoded);
                        self.skipped += u64::from(q.blocks_skipped);
                        q.words == *want
                            && (q.blocks_decoded + q.blocks_skipped) as usize == store.n_blocks()
                    }
                    Err(_) => false,
                }));
            }
        }
        tally
    }

    fn probes(&mut self, sp: &Spans) -> Tally {
        // Stand-alone: the block CRC kernel over the panel's words.
        for r in &self.arch.recorded {
            std::hint::black_box(sp.time("store.crc", || crc32_words(&r.archive.words)));
        }
        Tally::default()
    }

    fn finish(self, out: &mut Findings) {
        exact_metrics(self.cx, &self.arch, out);
        write_path_layers(&self.arch, out);

        let words_of = |format| {
            (0..4)
                .filter(|a| ARCHIVES[*a].2 == format)
                .map(|a| self.arch.words(a).len() as f64)
                .sum::<f64>()
        };
        let scanned = self.scanned_words() as f64;
        out.rate("store.open.mwords_per_s", "store.open", scanned / 1e6);
        for format in [BlockFormat::Row, BlockFormat::Columnar] {
            let span = decode_span(format);
            out.rate(decode_rate(format), span, words_of(format) / 1e6);
        }
        out.rate(
            "store.query.mwords_per_s",
            "store.query",
            self.returned_words() as f64 / 1e6,
        );
        out.layer("store.query.blocks_decoded", self.decoded as f64);
        out.layer("store.query.blocks_skipped", self.skipped as f64);
        out.layer(
            "store.query.prune_ratio",
            self.skipped as f64 / (self.decoded + self.skipped) as f64,
        );
        out.rate("store.crc.mb_per_s", "store.crc", scanned / 2.0 * 4.0 / 1e6);
    }
}

pub fn decode_rate(format: BlockFormat) -> &'static str {
    match format {
        BlockFormat::Row => "store.decode_v3.mwords_per_s",
        BlockFormat::Columnar => "store.decode_v4.mwords_per_s",
    }
}

/// The per-layer quantities of the archive set-up (the write path),
/// shared by the three workloads that start from archives.
pub fn write_path_layers(arch: &Archives, out: &mut Findings) {
    let panel_words: f64 = arch
        .recorded
        .iter()
        .map(|r| r.archive.words.len() as f64)
        .sum();
    let insts: f64 = arch.recorded.iter().map(|r| r.traced_insts as f64).sum();
    out.rate(
        "machine.run_traced.minst_per_s",
        "machine.run_traced",
        insts / 1e6,
    );
    out.layer(
        "machine.drains",
        arch.recorded.iter().map(|r| r.drains as f64).sum(),
    );
    out.layer("machine.trace_words", panel_words);
    out.rate(
        "store.encode_v3.mwords_per_s",
        "store.encode_v3",
        panel_words / 1e6,
    );
    out.rate(
        "store.encode_v4.mwords_per_s",
        "store.encode_v4",
        panel_words / 1e6,
    );
    out.rate(
        "store.serialize.mwords_per_s",
        "store.serialize",
        2.0 * panel_words / 1e6,
    );
    for (name, format) in [
        ("store.v3.bytes_per_word", BlockFormat::Row),
        ("store.v4.bytes_per_word", BlockFormat::Columnar),
    ] {
        let of_format = (0..4).filter(|a| ARCHIVES[*a].2 == format);
        let (bytes, words) = of_format.fold((0usize, 0usize), |(b, w), a| {
            (b + arch.bytes[a].len(), w + arch.words(a).len())
        });
        out.layer(name, bytes as f64 / words as f64);
    }
}
