//! The injectors: seeded corruption primitives for each stack layer.
//!
//! Each injector is a pure function of `(input, rng, intensity)` so a
//! [`crate::FaultPlan`] replays the identical corruption everywhere.
//! Word and byte flips attack content; truncation models short reads;
//! [`store_regions`] maps an encoded store's byte ranges so a plan can
//! aim at exactly one structural region (header+tables, block area,
//! footer index, or trailer) and the campaign can assert per-region
//! detection guarantees.

use crate::SplitMix64;
use wrl_store::{INDEX_ENTRY_BYTES_V4, TRAILER_BYTES};
use wrl_trace::archive::decode_table_section;

/// Flips `n` random single bits across `words` (no-op on an empty
/// slice). The same `(rng state, n)` always flips the same bits.
pub fn flip_word_bits(words: &mut [u32], rng: &mut SplitMix64, n: u32) {
    if words.is_empty() {
        return;
    }
    for _ in 0..n {
        let i = rng.below(words.len() as u64) as usize;
        let bit = rng.below(32) as u32;
        words[i] ^= 1 << bit;
    }
}

/// Flips `n` random single bits within `bytes[range]` (no-op on an
/// empty range).
pub fn flip_byte_bits_in(
    bytes: &mut [u8],
    range: core::ops::Range<usize>,
    rng: &mut SplitMix64,
    n: u32,
) {
    if range.is_empty() {
        return;
    }
    for _ in 0..n {
        let i = range.start + rng.below(range.len() as u64) as usize;
        let bit = rng.below(8) as u32;
        bytes[i] ^= 1 << bit;
    }
}

/// Truncates `words` at a random point strictly inside the slice —
/// the short-read model for the raw word stream.
pub fn truncate_words(words: &mut Vec<u32>, rng: &mut SplitMix64) {
    if words.is_empty() {
        return;
    }
    let keep = rng.below(words.len() as u64) as usize;
    words.truncate(keep);
}

/// Truncates `bytes` at a random point strictly inside the buffer —
/// the short-read model for an encoded store.
pub fn short_read(bytes: &mut Vec<u8>, rng: &mut SplitMix64) {
    if bytes.is_empty() {
        return;
    }
    let keep = rng.below(bytes.len() as u64) as usize;
    bytes.truncate(keep);
}

/// The structural byte ranges of an encoded block store, located the way
/// a real reader does: table section from the front, index position
/// from the fixed trailer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreRegions {
    /// Magic, version, block size, table section and word count — the
    /// decoding metadata ahead of the blocks.
    pub header: core::ops::Range<usize>,
    /// The concatenated compressed blocks.
    pub blocks: core::ops::Range<usize>,
    /// The footer index entries.
    pub index: core::ops::Range<usize>,
    /// The fixed trailer (n_blocks, index_pos, meta CRC, tail magic).
    pub trailer: core::ops::Range<usize>,
}

/// Maps the regions of an encoded block store. Returns `None` when the
/// buffer isn't a well-formed container (the injectors only target
/// stores they themselves encoded, so this never fires in a campaign).
pub fn store_regions(bytes: &[u8]) -> Option<StoreRegions> {
    if bytes.len() < 16 + TRAILER_BYTES {
        return None;
    }
    let (_, _, used) = decode_table_section(&bytes[16..]).ok()?;
    let blocks_at = 16 + used + 8;
    let tail_at = bytes.len() - TRAILER_BYTES;
    let index_pos =
        u64::from_le_bytes(bytes.get(tail_at + 4..tail_at + 12)?.try_into().ok()?) as usize;
    if blocks_at > index_pos || index_pos > tail_at {
        return None;
    }
    Some(StoreRegions {
        header: 0..blocks_at,
        blocks: blocks_at..index_pos,
        index: index_pos..tail_at,
        trailer: tail_at..bytes.len(),
    })
}

/// The byte range of one randomly chosen block's *column sections*
/// inside an encoded v4 store — past the block's leading encoded-CRC
/// word, so a flip lands in real column data and only the CRC checks
/// (not the framing parse) stand between it and a wrong answer.
/// `None` when the buffer is not a well-formed v4 container.
pub fn v4_column_target(bytes: &[u8], rng: &mut SplitMix64) -> Option<core::ops::Range<usize>> {
    if u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?) != wrl_store::STORE_VERSION_V4 {
        return None;
    }
    let r = store_regions(bytes)?;
    let n = r.index.len() / INDEX_ENTRY_BYTES_V4;
    if n == 0 {
        return None;
    }
    let i = rng.below(n as u64) as usize;
    let at = r.index.start + i * INDEX_ENTRY_BYTES_V4;
    let offset = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?) as usize;
    let comp_len = u32::from_le_bytes(bytes.get(at + 8..at + 12)?.try_into().ok()?) as usize;
    let start = r.blocks.start.checked_add(offset)?;
    let end = start.checked_add(comp_len)?;
    // Skip the 4-byte encoded-CRC prefix; a ≤4-byte block has no
    // section bytes to attack.
    (comp_len > 4 && end <= r.blocks.end).then(|| start + 4..end)
}

/// Flips `n` random bits across the ASID zonemap fields of a v4
/// store's index. The mask is *pruning* metadata: a cleared live bit
/// would make ASID queries silently skip blocks that contain matching
/// words — the one §4.3-forbidden outcome — so the zonemap must sit
/// under the metadata CRC and any flip must surface as a typed
/// [`wrl_store::StoreError::MetaCrcMismatch`] before the index is
/// trusted. (An adversary who can also re-seal that CRC can equally
/// re-seal every block CRC; forged-and-resealed metadata is outside
/// the integrity model, exactly as for the v3 summaries.) Returns
/// `false` when the buffer is not a well-formed v4 container.
pub fn flip_zonemap_bits(bytes: &mut [u8], rng: &mut SplitMix64, n: u32) -> bool {
    if bytes.len() < 12
        || u32::from_le_bytes(bytes[8..12].try_into().unwrap()) != wrl_store::STORE_VERSION_V4
    {
        return false;
    }
    let Some(r) = store_regions(bytes) else {
        return false;
    };
    let n_blocks = r.index.len() / INDEX_ENTRY_BYTES_V4;
    if n_blocks == 0 {
        return false;
    }
    for _ in 0..n {
        let i = rng.below(n_blocks as u64) as usize;
        let mask_at = r.index.start + i * INDEX_ENTRY_BYTES_V4 + 39;
        let bit = rng.below(64) as usize;
        bytes[mask_at + bit / 8] ^= 1 << (bit % 8);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_store::{BlockFormat, TraceStore, INDEX_ENTRY_BYTES};
    use wrl_trace::TraceArchive;

    fn encoded_store() -> Vec<u8> {
        let a = TraceArchive {
            words: (0..500).map(|i| 0x8000_0000 + i * 4).collect(),
            ..TraceArchive::default()
        };
        TraceStore::from_archive(&a, 64).encode()
    }

    #[test]
    fn regions_tile_the_store_exactly() {
        let bytes = encoded_store();
        let r = store_regions(&bytes).unwrap();
        assert_eq!(r.header.start, 0);
        assert_eq!(r.header.end, r.blocks.start);
        assert_eq!(r.blocks.end, r.index.start);
        assert_eq!(r.index.end, r.trailer.start);
        assert_eq!(r.trailer.end, bytes.len());
        assert_eq!(r.trailer.len(), TRAILER_BYTES);
        assert_eq!(r.index.len() % INDEX_ENTRY_BYTES, 0);
        assert!(!r.blocks.is_empty());
    }

    #[test]
    fn injectors_replay_identically_per_seed() {
        let mut a = vec![0u32; 100];
        let mut b = vec![0u32; 100];
        flip_word_bits(&mut a, &mut SplitMix64::new(9), 5);
        flip_word_bits(&mut b, &mut SplitMix64::new(9), 5);
        assert_eq!(a, b);
        assert_ne!(a, vec![0u32; 100], "five flips must change something");

        let mut x = vec![0u8; 64];
        let mut y = vec![0u8; 64];
        flip_byte_bits_in(&mut x, 10..20, &mut SplitMix64::new(3), 4);
        flip_byte_bits_in(&mut y, 10..20, &mut SplitMix64::new(3), 4);
        assert_eq!(x, y);
        assert!(x[..10].iter().all(|&v| v == 0), "flips stay in range");
        assert!(x[20..].iter().all(|&v| v == 0), "flips stay in range");
    }

    #[test]
    fn v4_targets_resolve_and_reject_row_stores() {
        let a = TraceArchive {
            words: (0..500).map(|i| 0x8000_0000 + i * 4).collect(),
            ..TraceArchive::default()
        };
        let v4 = TraceStore::from_archive_with(&a, 64, BlockFormat::Columnar).encode();
        let r = store_regions(&v4).unwrap();
        let target = v4_column_target(&v4, &mut SplitMix64::new(7)).unwrap();
        assert!(target.start >= r.blocks.start + 4);
        assert!(target.end <= r.blocks.end);
        let v3 = encoded_store();
        assert_eq!(v4_column_target(&v3, &mut SplitMix64::new(7)), None);
        assert!(!flip_zonemap_bits(
            &mut v3.clone(),
            &mut SplitMix64::new(7),
            3
        ));
        // A zonemap flip lands under the metadata CRC: the store must
        // refuse to decode rather than trust a forged mask.
        let mut forged = v4.clone();
        assert!(flip_zonemap_bits(&mut forged, &mut SplitMix64::new(7), 3));
        assert_ne!(forged, v4);
        assert!(matches!(
            TraceStore::decode(&forged),
            Err(wrl_store::StoreError::MetaCrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_always_shortens() {
        let mut w: Vec<u32> = (0..50).collect();
        truncate_words(&mut w, &mut SplitMix64::new(1));
        assert!(w.len() < 50);
        let mut b = encoded_store();
        let before = b.len();
        short_read(&mut b, &mut SplitMix64::new(1));
        assert!(b.len() < before);
    }
}
