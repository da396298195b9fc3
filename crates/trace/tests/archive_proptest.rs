//! Property-based tests of the archive format: encode/decode is the
//! identity on well-formed archives, and `decode` is total — any
//! truncation or byte corruption of the header, table or word
//! sections yields an [`ArchiveError`], never a panic and never an
//! archive that silently differs where the damage landed.

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use wrl_isa::Width;
use wrl_trace::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
use wrl_trace::{ArchiveError, TraceArchive};

fn width_of(k: u8) -> Width {
    match k % 3 {
        0 => Width::Byte,
        1 => Width::Half,
        _ => Width::Word,
    }
}

/// Compact generator output for one block: id, n_insts, flag bits,
/// and (index, store, width) per memory op.
type GenBlock = (u32, u16, u8, Vec<(u16, bool, u8)>);

/// Builds a table from compact generator output.
fn table_of(blocks: Vec<GenBlock>) -> Arc<BbTable> {
    let mut t = BbTable::new();
    for (id, n_insts, flags, ops) in blocks {
        t.insert(
            id,
            BbInfo {
                orig_vaddr: id ^ 0x0040_0000,
                n_insts,
                ops: ops
                    .into_iter()
                    .map(|(index, store, w)| MemOp {
                        index,
                        store,
                        width: width_of(w),
                    })
                    .collect(),
                flags: BbTraceFlags {
                    idle_start: flags & 1 != 0,
                    idle_stop: flags & 2 != 0,
                    hand_traced: flags & 4 != 0,
                },
            },
        );
    }
    Arc::new(t)
}

fn block_strategy() -> impl Strategy<Value = GenBlock> {
    (
        any::<u32>(),
        0u16..2000,
        0u8..8,
        vec((any::<u16>(), any::<bool>(), any::<u8>()), 0..5),
    )
}

fn archive_strategy() -> impl Strategy<Value = TraceArchive> {
    (
        vec(block_strategy(), 0..8),
        vec((any::<u8>(), vec(block_strategy(), 0..4)), 0..4),
        vec(any::<u32>(), 0..300),
    )
        .prop_map(|(kernel, users, words)| TraceArchive {
            kernel_table: table_of(kernel),
            user_tables: users
                .into_iter()
                .map(|(asid, blocks)| (asid, table_of(blocks)))
                .collect(),
            words,
        })
}

fn tables_equal(a: &BbTable, b: &BbTable) -> bool {
    a.len() == b.len() && a.iter().all(|(id, info)| b.get(*id) == Some(info))
}

proptest! {
    #[test]
    fn round_trip_is_identity(a in archive_strategy()) {
        let decoded = TraceArchive::decode(&a.encode()).expect("own encoding must decode");
        prop_assert!(tables_equal(&decoded.kernel_table, &a.kernel_table));
        prop_assert_eq!(decoded.user_tables.len(), a.user_tables.len());
        for ((da, dt), (ea, et)) in decoded.user_tables.iter().zip(a.user_tables.iter()) {
            prop_assert_eq!(da, ea);
            prop_assert!(tables_equal(dt, et));
        }
        prop_assert_eq!(&decoded.words, &a.words);
        // And encoding is canonical: a second trip is byte-identical.
        prop_assert_eq!(decoded.encode(), a.encode());
    }

    #[test]
    fn truncation_anywhere_errors_not_panics(
        a in archive_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = a.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Every proper prefix must be rejected (the word count in the
        // header makes even a words-section cut detectable).
        if cut < bytes.len() {
            prop_assert!(TraceArchive::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn header_corruption_is_detected(
        a in archive_strategy(),
        at in 0usize..12,
        xor in 1u8..=255,
    ) {
        // The first 12 bytes are magic + version; flipping any bit in
        // them must produce Malformed or Version, never Io or success.
        let mut bytes = a.encode();
        bytes[at] ^= xor;
        match TraceArchive::decode(&bytes) {
            Err(ArchiveError::Malformed(_)) | Err(ArchiveError::UnsupportedVersion(_)) => {}
            Err(ArchiveError::Io(e)) => prop_assert!(false, "io error from memory: {e}"),
            Ok(_) => prop_assert!(false, "corrupt header accepted"),
        }
    }

    #[test]
    fn body_corruption_never_panics(
        a in archive_strategy(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        // Flipping bits after the header (table and word sections) may
        // legitimately still decode — a corrupted word is just another
        // word — but it must never panic, and on success the byte
        // count consumed must have been consistent (decode returned a
        // structurally valid archive able to re-encode).
        let mut bytes = a.encode();
        if bytes.len() > 12 {
            let at = 12 + ((bytes.len() - 12) as f64 * pos_frac) as usize % (bytes.len() - 12);
            bytes[at] ^= xor;
            if let Ok(arch) = TraceArchive::decode(&bytes) {
                let _ = arch.encode();
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..200)) {
        let _ = TraceArchive::decode(&bytes);
    }
}

#[test]
fn oversized_user_table_count_is_rejected() {
    // 65 user tables exceeds the decoder's hard cap.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(wrl_trace::archive::MAGIC);
    bytes.extend_from_slice(&wrl_trace::archive::VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // empty kernel table
    bytes.extend_from_slice(&65u32.to_le_bytes()); // n_user = 65
    assert!(matches!(
        TraceArchive::decode(&bytes),
        Err(ArchiveError::Malformed(_))
    ));
}
