//! Snapshot export: one [`ObsSnapshot`] value combining the metrics
//! registry and the flight recorder, its rendering as one [`Json`] value
//! (read back with [`crate::json::parse`]), and the pluggable
//! [`Exporter`] trait with JSON-lines and in-memory implementations.

use crate::json::Json;
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
    /// The snapshot as one JSON value (layout in `docs/OBSERVABILITY.md`).
    pub fn json(&self) -> Json {
        Json::obj([
            ("schema", DUMP_SCHEMA.into()),
            ("trigger", self.trigger.as_str().into()),
            ("captured_ns", self.captured_ns.into()),
            ("metrics", self.metrics.iter().map(metric_json).collect()),
            ("spans", self.spans.iter().map(span_json).collect()),
            ("dropped_spans", self.dropped_spans.into()),
        ])
    }

    /// Renders the snapshot as one compact JSON document (a single line,
    /// suitable for JSON-lines streams).
    pub fn to_json(&self) -> String {
        self.json().to_string()
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

fn metric_json(m: &MetricSample) -> Json {
    let name = ("name", m.name.as_str().into());
    match &m.value {
        MetricValue::Counter(v) => {
            Json::obj([name, ("kind", "counter".into()), ("value", (*v).into())])
        }
        MetricValue::Gauge(v) => {
            Json::obj([name, ("kind", "gauge".into()), ("value", (*v).into())])
        }
        MetricValue::Histogram(h) => {
            // One bucket per bound, then the overflow bucket (`le: null`).
            let buckets = h.counts.iter().enumerate().map(|(i, c)| {
                Json::obj([
                    ("le", h.bounds.get(i).copied().into()),
                    ("count", (*c).into()),
                ])
            });
            Json::obj([
                name,
                ("kind", "histogram".into()),
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("buckets", buckets.collect()),
            ])
        }
    }
}

fn span_json(s: &SpanRecord) -> Json {
    let fields = s.fields.iter().map(|(k, v)| (*k, field_json(v)));
    Json::obj([
        ("id", s.id.into()),
        ("parent", s.parent.into()),
        ("name", s.name.into()),
        ("thread", s.thread.into()),
        ("start_ns", s.start_ns.into()),
        ("dur_ns", s.dur_ns.into()),
        ("fields", Json::obj(fields)),
    ])
}

fn field_json(v: &FieldValue) -> Json {
    match v {
        FieldValue::U64(n) => (*n).into(),
        FieldValue::I64(n) => (*n).into(),
        FieldValue::F64(n) => (*n).into(),
        FieldValue::Bool(b) => (*b).into(),
        FieldValue::Str(s) => s.as_str().into(),
    }
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
        let text = sample_snapshot().to_json();
        assert!(!text.contains('\n'), "dump must be one JSON line");
        let dump = crate::json::parse(&text).expect("the dump parses");
        assert_eq!(dump.get("schema"), Some(&Json::from(DUMP_SCHEMA)));
        assert_eq!(dump.get("dropped_spans"), Some(&Json::Int(2)));
        assert_eq!(dump.get("trigger"), Some(&Json::from("test \"quoted\"")));
        let span = &dump.get("spans").and_then(Json::as_arr).expect("spans")[0];
        let mode = span.get("fields").and_then(|fields| fields.get("mode"));
        assert_eq!(mode, Some(&Json::from("semi\nnaive")));
        let histogram = &dump.get("metrics").and_then(Json::as_arr).expect("metrics")[2];
        let buckets = histogram
            .get("buckets")
            .and_then(Json::as_arr)
            .expect("buckets");
        assert_eq!(
            buckets[2].get("le"),
            Some(&Json::Null),
            "the overflow bucket"
        );
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(field_json(&FieldValue::F64(f64::NAN)).to_string(), "null");
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
