//! Docs-as-contract: `docs/METRICS.md` vs the live registry.
//!
//! The metrics reference's rows are generated from the registry (that
//! is, from the `wrl_obs::metrics!` tables) and checked mechanically:
//! this test registers every metric in the stack, parses the table,
//! and fails if either side has a row the other lacks or if any
//! name/kind/unit/site/paper cell disagrees. Adding a metric without
//! documenting it (or vice versa) breaks CI.
//!
//! To print a fresh table after adding a row (CI diffs this output
//! against the committed rows):
//!
//! ```text
//! cargo test --test metrics_doc_sync print_metrics_table -- --ignored --nocapture
//! ```

use std::collections::BTreeMap;

const DOC_PATH: &str = "docs/METRICS.md";

/// One row of the reference table, keyed the same way as a registry
/// descriptor.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    kind: String,
    unit: String,
    site: String,
    paper: String,
}

/// Extracts `(name, row)` pairs from the markdown table: rows look
/// like `| \`name\` | kind | unit | \`site\` | §x.y | help |`.
fn parse_doc_rows(text: &str) -> BTreeMap<String, Row> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 6 {
            continue;
        }
        let unquote = |s: &str| s.trim_matches('`').to_string();
        rows.insert(
            unquote(cells[0]),
            Row {
                kind: cells[1].to_string(),
                unit: cells[2].to_string(),
                site: unquote(cells[3]),
                paper: cells[4].to_string(),
            },
        );
    }
    rows
}

#[test]
fn metrics_doc_matches_registry() {
    systrace::obs::register_all();
    let snap = systrace::obs::global().snapshot();
    assert!(!snap.metrics.is_empty(), "register_all must register");

    let text = std::fs::read_to_string(DOC_PATH).expect("docs/METRICS.md must exist");
    let doc = parse_doc_rows(&text);

    for m in &snap.metrics {
        let row = doc.get(m.desc.name).unwrap_or_else(|| {
            panic!(
                "metric `{}` is registered but missing from {DOC_PATH} — \
                 add a row (see the how-to in that file)",
                m.desc.name
            )
        });
        assert_eq!(row.kind, m.kind.as_str(), "{}: kind", m.desc.name);
        assert_eq!(row.unit, m.desc.unit, "{}: unit", m.desc.name);
        assert_eq!(row.site, m.desc.site, "{}: source site", m.desc.name);
        assert_eq!(row.paper, m.desc.paper, "{}: paper section", m.desc.name);
        assert!(
            std::path::Path::new(m.desc.site).is_file(),
            "{}: source site {} is not a file",
            m.desc.name,
            m.desc.site
        );
    }
    for name in doc.keys() {
        assert!(
            snap.metrics.iter().any(|m| m.desc.name == *name),
            "{DOC_PATH} documents `{name}` but no such metric is registered — \
             remove the row or register the metric"
        );
    }
    assert_eq!(doc.len(), snap.metrics.len());
}

/// Prints the reference table in the exact format `docs/METRICS.md`
/// expects; paste the output over the existing table after adding or
/// changing metrics.
#[test]
#[ignore = "prints the METRICS.md table; run with --ignored --nocapture"]
fn print_metrics_table() {
    systrace::obs::register_all();
    let snap = systrace::obs::global().snapshot();
    println!("| name | kind | unit | source site | paper | description |");
    println!("|------|------|------|-------------|-------|-------------|");
    for m in &snap.metrics {
        println!(
            "| `{}` | {} | {} | `{}` | {} | {} |",
            m.desc.name,
            m.kind.as_str(),
            m.desc.unit,
            m.desc.site,
            m.desc.paper,
            m.desc.help
        );
    }
}
