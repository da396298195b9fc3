//! Observability for the trace store: once-per-run gauges describing
//! the last store built or loaded, plus rare-path counters for
//! integrity failures.
//!
//! Follows the trace path's split (see `wrl-trace`'s `obs` module):
//! sizes and ratios are exact properties of a finished store and are
//! exported once, while CRC and codec failures are §4.3-style
//! defensive events counted the moment they are detected (a healthy
//! system records all zeros). Rows in `docs/METRICS.md` are kept
//! honest by the `metrics_doc_sync` test.

use crate::container::{StoreError, TraceStore};

wrl_obs::metrics! {
    /// Gauges, histograms and error tallies for the store.
    #[derive(Clone)]
    pub struct StoreObs {
        blocks: gauge "store.blocks", "blocks", "§3.2",
            "Block count of the last store built or loaded.";
        raw_bytes: gauge "store.raw_bytes", "bytes", "§3.2",
            "Uncompressed word-stream size of the last store.";
        compressed_bytes: gauge "store.compressed_bytes", "bytes", "§3.2",
            "Compressed block-area size of the last store.";
        block_comp_bytes: histogram "store.block.comp_bytes", "bytes", "§3.2",
            "Per-block compressed sizes of the last store.";
        crc_errors: counter "store.crc_errors", "errors", "§4.3",
            "Blocks whose decoded words failed their index CRC.";
        codec_errors: counter "store.codec_errors", "errors", "§4.3",
            "Blocks whose compressed bytes failed to decode.";
    }
}

impl StoreObs {
    /// Exports one store's shape: block count, raw and compressed
    /// sizes, and the per-block compressed-size distribution.
    pub fn export_store(&self, s: &TraceStore) {
        self.blocks.set(s.n_blocks() as i64);
        self.raw_bytes.set(s.raw_bytes() as i64);
        self.compressed_bytes.set(s.compressed_bytes() as i64);
        for i in 0..s.n_blocks() {
            self.block_comp_bytes
                .record(u64::from(s.block_meta(i).comp_len));
        }
    }

    /// Bumps the matching integrity counter for a detected error
    /// (framing and I/O errors have no counter — they abort loads
    /// rather than accumulating).
    pub fn tally_error(&self, e: &StoreError) {
        match e {
            StoreError::CrcMismatch { .. } => self.crc_errors.inc(),
            StoreError::BlockCodec { .. } => self.codec_errors.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::TraceArchive;

    #[test]
    fn export_sets_store_gauges() {
        let a = TraceArchive {
            words: vec![0x8003_0100; 500],
            ..TraceArchive::default()
        };
        let s = TraceStore::from_archive(&a, 64);
        let obs = StoreObs::register();
        obs.export_store(&s);
        assert_eq!(obs.blocks.get(), 8);
    }

    #[test]
    fn crc_errors_are_tallied() {
        let obs = StoreObs::register();
        let before = obs.crc_errors.get();
        obs.tally_error(&StoreError::CrcMismatch {
            block: 0,
            want: 1,
            got: 2,
        });
        obs.tally_error(&StoreError::Malformed("not counted"));
        assert_eq!(obs.crc_errors.get(), before + 1);
    }
}
