//! The [`AnalysisSink`] trait and its report type.
//!
//! An analysis sink is a [`wrl_trace::TraceSink`] with a name that
//! ends in a structured [`SinkReport`] — or, having latched a fault
//! mid-pass, in a typed [`SinkError`] instead of a panic. Sinks
//! compose in one way: pushed into a [`crate::Stack`], which feeds
//! each the same events, so a whole analysis suite rides one
//! decode+parse pass as a single value.

use core::fmt;

use wrl_trace::TraceSink;

/// A typed mid-pass analysis failure. One *never* aborts the pass:
/// no hook can return it, so the failing sink latches it and returns
/// it from [`AnalysisSink::finish`] into its own report entry, and
/// every sibling sink's stream stays intact
/// (`tests/tracer_differential.rs` and the `tracer.sink` chaos site
/// hold that contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkError {
    /// The failing sink's [`AnalysisSink::name`].
    pub sink: String,
    /// What went wrong.
    pub what: String,
}

impl SinkError {
    /// A new error attributed to `sink`.
    pub fn new(sink: impl Into<String>, what: impl Into<String>) -> SinkError {
        SinkError {
            sink: sink.into(),
            what: what.into(),
        }
    }
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink {} failed: {}", self.sink, self.what)
    }
}

impl std::error::Error for SinkError {}

/// One scalar in a [`SinkReport`]. `F64` compares by bit pattern, so
/// report equality is the bit-identical equality the differential
/// suite pins.
#[derive(Clone, Debug)]
pub enum Value {
    /// An exact count.
    U64(u64),
    /// A derived ratio or estimate.
    F64(f64),
    /// A label.
    Text(String),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            // `{:?}` prints the shortest decimal that round-trips the
            // exact bit pattern — a deterministic, pinnable rendering.
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Text(v) => f.write_str(v),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

/// The label of one address space's row in a per-space report: a
/// user space by its ASID, the kernel (`None`) by name.
pub(crate) fn space_label(asid: Option<impl fmt::Display>) -> String {
    asid.map_or("kernel".into(), |a| format!("asid:{a}"))
}

/// What one finished sink found: an ordered list of named scalars,
/// plus child reports for per-space or per-row breakdowns. Field order
/// is insertion order and the rendering is deterministic, so a report
/// can be pinned byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkReport {
    /// The reporting sink's [`AnalysisSink::name`].
    pub sink: String,
    /// Named result scalars, in insertion order.
    pub fields: Vec<(String, Value)>,
    /// Nested breakdown rows (per address space, per curve).
    pub children: Vec<SinkReport>,
}

impl SinkReport {
    /// An empty report for `sink`.
    pub fn new(sink: impl Into<String>) -> SinkReport {
        SinkReport {
            sink: sink.into(),
            fields: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends one named scalar.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((key.into(), value.into()));
    }

    /// Looks a field up by name (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field's `U64` value, if present and of that kind.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Renders `sink <name>` then one `  key = value` line per field,
    /// then the children indented by two more spaces — deterministic,
    /// so golden tests pin it verbatim.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!("{pad}sink {}\n", self.sink));
        for (k, v) in &self.fields {
            out.push_str(&format!("{pad}  {k} = {v}\n"));
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A composable trace analysis: a [`TraceSink`] with a display name
/// and a final structured report.
///
/// The event and word hooks are [`TraceSink`]'s own, declared once in
/// `wrl-trace` and infallible: no hook can abort a pass. A sink that
/// needs *word positions* (duty cycles, offsets into the raw stream)
/// answers [`Wants::Words`](wrl_trace::Wants) from
/// [`TraceSink::wants`]; the driver then feeds the parser
/// word-at-a-time and calls [`TraceSink::word`] before each word, so
/// the events parsed from a word follow its hook. A sink that hits a
/// fault mid-pass latches it itself and returns it from
/// [`AnalysisSink::finish`].
pub trait AnalysisSink: TraceSink {
    /// A stable display name (`cache:65536:2`, `wset:4096`, ...).
    fn name(&self) -> String;

    /// Finalises the analysis: what it found, or the typed fault it
    /// latched mid-pass.
    fn finish(&mut self) -> Result<SinkReport, SinkError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_values_compare_by_bits_and_render_round_trip() {
        let a = Value::F64(0.1 + 0.2);
        let b = Value::F64(0.3);
        assert_ne!(a, b);
        assert_eq!(a.to_string().parse::<f64>().unwrap(), 0.1 + 0.2);
        let mut r = SinkReport::new("x");
        r.push("ratio", 0.25);
        r.push("n", 3u64);
        assert_eq!(r.render(), "sink x\n  ratio = 0.25\n  n = 3\n");
    }
}
