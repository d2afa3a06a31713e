//! Snapshot export: one [`ObsSnapshot`] value combining the metrics
//! registry and the flight recorder, a hand-rolled JSON rendering (the
//! workspace deliberately has no JSON dependency — the harness re-reads
//! dumps through `agenp_pdpd::json::parse`), and the pluggable
//! [`Exporter`] trait with JSON-lines and in-memory implementations.

use crate::metrics::{MetricSample, MetricValue};
use crate::span::{FieldValue, SpanRecord};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped into every dump; bump on breaking changes
/// (`docs/OBSERVABILITY.md` documents the layout).
pub const DUMP_SCHEMA: &str = "agenp-obs/dump/v1";

/// A point-in-time view of everything the observability layer knows:
/// every registered metric and the flight recorder's resident spans.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// What triggered the snapshot (`"on_demand"`, `"degraded"`, ...).
    pub trigger: String,
    /// Monotonic capture time (ns since process epoch).
    pub captured_ns: u64,
    /// Registered metrics, name-ordered.
    pub metrics: Vec<MetricSample>,
    /// Resident spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring before this snapshot.
    pub dropped_spans: u64,
}

impl ObsSnapshot {
    /// Renders the snapshot as one compact JSON document (a single line,
    /// suitable for JSON-lines streams).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 128);
        out.push_str("{\"schema\": \"");
        out.push_str(DUMP_SCHEMA);
        out.push_str("\", \"trigger\": ");
        push_json_str(&mut out, &self.trigger);
        out.push_str(&format!(", \"captured_ns\": {}", self.captured_ns));
        out.push_str(", \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_metric(&mut out, m);
        }
        out.push_str("], \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_span(&mut out, s);
        }
        out.push_str(&format!("], \"dropped_spans\": {}}}", self.dropped_spans));
        out
    }

    /// The spans whose name starts with `prefix` (taxonomy queries:
    /// `snapshot.spans_with_prefix("asp.")`).
    pub fn spans_with_prefix(&self, prefix: &str) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// The sample registered under `name`, if any.
    pub fn metric(&self, name: &str) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Convenience: the counter total registered under `name` (0 when
    /// absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metric(name).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }
}

fn push_metric(out: &mut String, m: &MetricSample) {
    out.push_str("{\"name\": ");
    push_json_str(out, &m.name);
    match &m.value {
        MetricValue::Counter(v) => {
            out.push_str(&format!(", \"kind\": \"counter\", \"value\": {v}}}"));
        }
        MetricValue::Gauge(v) => {
            out.push_str(&format!(", \"kind\": \"gauge\", \"value\": {v}}}"));
        }
        MetricValue::Histogram(h) => {
            out.push_str(&format!(
                ", \"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            ));
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match h.bounds.get(i) {
                    Some(b) => out.push_str(&format!("{{\"le\": {b}, \"count\": {c}}}")),
                    None => out.push_str(&format!("{{\"le\": null, \"count\": {c}}}")),
                }
            }
            out.push_str("]}");
        }
    }
}

fn push_span(out: &mut String, s: &SpanRecord) {
    out.push_str(&format!("{{\"id\": {}, \"parent\": ", s.id));
    match s.parent {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"name\": ");
    push_json_str(out, s.name);
    out.push_str(&format!(
        ", \"thread\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"fields\": {{",
        s.thread, s.start_ns, s.dur_ns
    ));
    for (i, (k, v)) in s.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, k);
        out.push_str(": ");
        push_field(out, v);
    }
    out.push_str("}}");
}

fn push_field(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

/// Appends `s` as an RFC 8259 string literal (escaping quotes,
/// backslashes, and control characters).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A pluggable snapshot sink. Exporters must tolerate being called from
/// any thread (degraded-mode transitions dump from whatever thread hit
/// the error).
pub trait Exporter: Send + Sync {
    /// Delivers one snapshot.
    ///
    /// # Errors
    ///
    /// I/O failures of the underlying sink.
    fn export(&self, snapshot: &ObsSnapshot) -> std::io::Result<()>;
}

/// Appends each snapshot as one JSON line to a file (created on first
/// export).
#[derive(Debug)]
pub struct JsonLinesExporter {
    path: PathBuf,
}

impl JsonLinesExporter {
    /// An exporter appending to `path`.
    pub fn new(path: impl AsRef<Path>) -> JsonLinesExporter {
        JsonLinesExporter {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The target path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Exporter for JsonLinesExporter {
    fn export(&self, snapshot: &ObsSnapshot) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(snapshot.to_json().as_bytes())?;
        f.write_all(b"\n")
    }
}

/// Collects exported snapshots in memory (tests and the bench harness).
/// Cheap to clone; clones share the buffer.
#[derive(Clone, Debug, Default)]
pub struct MemoryExporter {
    exports: Arc<Mutex<Vec<String>>>,
}

impl MemoryExporter {
    /// An empty exporter.
    pub fn new() -> MemoryExporter {
        MemoryExporter::default()
    }

    /// The JSON documents exported so far, oldest first.
    pub fn exports(&self) -> Vec<String> {
        self.exports
            .lock()
            .expect("memory exporter poisoned")
            .clone()
    }

    /// Number of exports delivered.
    pub fn len(&self) -> usize {
        self.exports.lock().expect("memory exporter poisoned").len()
    }

    /// True when nothing was exported yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Exporter for MemoryExporter {
    fn export(&self, snapshot: &ObsSnapshot) -> std::io::Result<()> {
        self.exports
            .lock()
            .expect("memory exporter poisoned")
            .push(snapshot.to_json());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample_snapshot() -> ObsSnapshot {
        ObsSnapshot {
            trigger: "test \"quoted\"".into(),
            captured_ns: 42,
            metrics: vec![
                MetricSample {
                    name: "a.count".into(),
                    value: MetricValue::Counter(7),
                },
                MetricSample {
                    name: "a.gauge".into(),
                    value: MetricValue::Gauge(-3),
                },
                MetricSample {
                    name: "a.lat_ns".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        bounds: vec![10, 100],
                        counts: vec![1, 2, 3],
                        count: 6,
                        sum: 1234,
                    }),
                },
            ],
            spans: vec![SpanRecord {
                id: 1,
                parent: None,
                name: "t.root",
                thread: 1,
                start_ns: 5,
                dur_ns: 9,
                fields: vec![
                    ("ok", FieldValue::Bool(true)),
                    ("mode", FieldValue::Str("semi\nnaive".into())),
                    ("ratio", FieldValue::F64(1.5)),
                ],
            }],
            dropped_spans: 2,
        }
    }

    #[test]
    fn json_dump_is_well_formed_and_escaped() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"schema\": \"agenp-obs/dump/v1\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("semi\\nnaive"));
        assert!(json.contains("\"le\": null"));
        assert!(json.contains("\"dropped_spans\": 2"));
        assert!(!json.contains('\n'), "dump must be one JSON line");
    }

    #[test]
    fn nonfinite_floats_render_null() {
        let mut s = String::new();
        push_field(&mut s, &FieldValue::F64(f64::NAN));
        assert_eq!(s, "null");
    }

    #[test]
    fn memory_exporter_accumulates() {
        let exp = MemoryExporter::new();
        let shared = exp.clone();
        exp.export(&sample_snapshot()).unwrap();
        assert_eq!(shared.len(), 1);
        assert!(shared.exports()[0].contains("a.count"));
    }

    #[test]
    fn snapshot_queries() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter_value("a.count"), 7);
        assert_eq!(snap.counter_value("a.gauge"), 0, "gauge is not a counter");
        assert_eq!(snap.spans_with_prefix("t.").len(), 1);
        assert_eq!(snap.spans_with_prefix("x.").len(), 0);
    }
}
