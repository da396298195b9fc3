//! Keeps `docs/FORMATS.md` honest: the constants table at the end of
//! the spec is parsed out of the markdown and asserted against the
//! format constants in code, in both directions — a renamed opcode, a
//! resized index entry or a new container version fails here until
//! the byte-level spec says the same thing. Companion to
//! `tests/metrics_doc_sync.rs`, which does the same for the metrics
//! registry.

use std::collections::BTreeMap;

use wrl_serve::wire::{err, op, MAX_FRAME, MIN_BODY, RAW_BLOCK_HEADER_BYTES};
use wrl_store::column::{N_COLUMNS, TAG_SLOTS, VAL_SLOTS};
use wrl_store::{
    BlockMeta, DEFAULT_BLOCK_WORDS, INDEX_ENTRY_BYTES, INDEX_ENTRY_BYTES_V4, STORE_VERSION,
    STORE_VERSION_V4, TRAILER_BYTES,
};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMATS.md");
    std::fs::read_to_string(path).expect("docs/FORMATS.md exists")
}

/// Parses the `## Constants` table into name → value. Values are
/// decimal or `0x`-prefixed hex.
fn doc_constants(md: &str) -> BTreeMap<String, u64> {
    let section = md
        .split("## Constants")
        .nth(1)
        .expect("FORMATS.md has a Constants section");
    let mut out = BTreeMap::new();
    for line in section.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 || !cells[0].starts_with('`') {
            continue;
        }
        let name = cells[0].trim_matches('`').to_string();
        let raw = cells[1];
        let value = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        }
        .unwrap_or_else(|_| panic!("constant {name} has a non-integer value {raw:?}"));
        assert!(
            out.insert(name.clone(), value).is_none(),
            "constant {name} is listed twice"
        );
    }
    out
}

/// Every format constant the spec must pin, with its code value.
fn code_constants() -> BTreeMap<String, u64> {
    let pairs: &[(&str, u64)] = &[
        ("archive.version.v1", u64::from(wrl_trace::archive::VERSION)),
        ("store.version.v3", u64::from(STORE_VERSION)),
        ("store.version.v4", u64::from(STORE_VERSION_V4)),
        ("store.index_entry_bytes.v3", INDEX_ENTRY_BYTES as u64),
        ("store.index_entry_bytes.v4", INDEX_ENTRY_BYTES_V4 as u64),
        ("store.trailer_bytes", TRAILER_BYTES as u64),
        ("store.default_block_words", DEFAULT_BLOCK_WORDS as u64),
        ("store.flag.summary", u64::from(BlockMeta::FLAG_SUMMARY)),
        (
            "store.flag.ctx_switch",
            u64::from(BlockMeta::FLAG_CTX_SWITCH),
        ),
        ("store.flag.daddr", u64::from(BlockMeta::FLAG_DADDR)),
        ("store.flag.columnar", u64::from(BlockMeta::FLAG_COLUMNAR)),
        ("trace.ctl_limit", u64::from(wrl_trace::CTL_LIMIT)),
        ("codec.fcm_slots", wrl_store::codec::FCM_SIZE as u64),
        ("column.n_columns", N_COLUMNS as u64),
        ("column.tag_slots", TAG_SLOTS as u64),
        ("column.val_slots", VAL_SLOTS as u64),
        ("wire.max_frame", MAX_FRAME as u64),
        ("wire.min_body", MIN_BODY as u64),
        ("wire.op.catalog", u64::from(op::CATALOG)),
        ("wire.op.fetch", u64::from(op::FETCH)),
        ("wire.op.query", u64::from(op::QUERY)),
        ("wire.op.metrics", u64::from(op::METRICS)),
        ("wire.op.response", u64::from(op::RESPONSE)),
        ("wire.op.busy", u64::from(op::BUSY)),
        ("wire.op.error", u64::from(op::ERROR)),
        ("wire.raw_block_header_bytes", RAW_BLOCK_HEADER_BYTES as u64),
        ("wire.err.no_such_archive", u64::from(err::NO_SUCH_ARCHIVE)),
        ("wire.err.bad_request", u64::from(err::BAD_REQUEST)),
        ("wire.err.store", u64::from(err::STORE)),
        ("wire.err.wire", u64::from(err::WIRE)),
    ];
    pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

#[test]
fn every_code_constant_is_documented_with_the_right_value() {
    let doc = doc_constants(&doc());
    for (name, value) in code_constants() {
        match doc.get(&name) {
            None => panic!("format constant {name} is missing from docs/FORMATS.md"),
            Some(&d) => assert_eq!(
                d, value,
                "docs/FORMATS.md documents {name} = {d}, code says {value}"
            ),
        }
    }
}

#[test]
fn every_documented_constant_exists_in_code() {
    let code = code_constants();
    for (name, value) in doc_constants(&doc()) {
        match code.get(&name) {
            None => panic!("docs/FORMATS.md documents unknown constant {name}"),
            Some(&c) => assert_eq!(
                c, value,
                "docs/FORMATS.md documents {name} = {value}, code says {c}"
            ),
        }
    }
}

#[test]
fn the_table_covers_the_whole_surface_and_nothing_else() {
    // The two directions above catch value drift; this catches a
    // silently shrunk table (both maps empty would pass them).
    let doc = doc_constants(&doc());
    assert_eq!(doc.len(), code_constants().len());
    assert!(doc.len() >= 30, "expected ≥30 pinned constants");
}

#[test]
fn magic_strings_and_versions_appear_in_the_spec_prose() {
    let md = doc();
    // The magics are strings, not table rows; the spec must state
    // them exactly as the code does.
    assert_eq!(wrl_trace::archive::MAGIC, b"W3KTRACE");
    assert!(md.contains("\"W3KTRACE\""), "container magic missing");
    assert_eq!(wrl_store::container::TAIL_MAGIC, b"W3KSIDX\0");
    assert!(md.contains("\"W3KSIDX\\0\""), "tail magic missing");
    assert_eq!(wrl_serve::wire::WIRE_SCHEMA, "wrl-wire/v1");
    assert!(md.contains("wrl-wire/v1"), "wire schema name missing");
    // Every decodable container version is spelled out in prose.
    for v in ["v1", "v3", "v4"] {
        assert!(md.contains(v), "version {v} never mentioned");
    }
}
