//! `agenp-obs` — the unified observability substrate for the AGENP
//! workspace: a lock-light [`MetricsRegistry`] (counters, gauges,
//! fixed-bucket histograms behind `Send + Sync` handles with sharded
//! atomics on hot paths), structured [`span!`] guards with parent/child
//! nesting and monotonic timing, a bounded ring-buffer [`FlightRecorder`]
//! that snapshots and dumps as JSON on demand or on degraded-mode
//! transitions, a per-thread [`Sampler`] that lets a hot path time about
//! one call in 64, a pluggable [`Exporter`] trait with JSON-lines and
//! in-memory implementations, and the workspace's one JSON parser and
//! encoder ([`json`]).
//!
//! # Global mode
//!
//! All instrumentation sites in the workspace go through one process-wide
//! handle gated by a single atomic flag:
//!
//! * [`ObsConfig::disabled()`] (the default) compiles the decide/solve
//!   hot paths down to one relaxed load and a branch per site — no
//!   clocks, no allocation, no atomic writes.
//! * [`ObsConfig::enabled()`] turns on metric publication, span
//!   recording, and latency histograms.
//!
//! ```
//! agenp_obs::install(agenp_obs::ObsConfig::enabled());
//! let decisions = agenp_obs::registry().counter("doc.decisions");
//! {
//!     let mut span = agenp_obs::span!("doc.request", shard = 3u64);
//!     decisions.incr();
//!     span.record("decision", "permit");
//! }
//! let snap = agenp_obs::snapshot("on_demand");
//! assert_eq!(snap.counter_value("doc.decisions"), 1);
//! assert!(!snap.spans_with_prefix("doc.").is_empty());
//! ```
//!
//! Naming scheme, span taxonomy, and the dump schema are documented in
//! `docs/OBSERVABILITY.md`.

mod export;
pub mod json;
mod metrics;
mod recorder;
mod sample;
mod span;

pub use export::{Exporter, JsonLinesExporter, MemoryExporter, ObsSnapshot, DUMP_SCHEMA};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, MetricsRegistry,
    DEFAULT_NS_BOUNDS,
};
pub use recorder::{FlightRecorder, DEFAULT_RECORDER_CAPACITY};
pub use sample::Sampler;
pub use span::{monotonic_ns, FieldValue, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{OnceLock, RwLock};

/// Global observability configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    enabled: bool,
    recorder_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::disabled()
    }
}

impl ObsConfig {
    /// Telemetry off: every instrumentation site reduces to a relaxed
    /// load and a branch. The default.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
        }
    }

    /// Telemetry on: metrics, spans, and latency histograms record.
    pub fn enabled() -> ObsConfig {
        ObsConfig {
            enabled: true,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
        }
    }

    /// Rebounds the flight recorder (minimum 1 span).
    pub fn with_recorder_capacity(mut self, capacity: usize) -> ObsConfig {
        self.recorder_capacity = capacity.max(1);
        self
    }

    /// True when this config turns telemetry on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The flight-recorder bound this config applies.
    pub fn recorder_capacity(&self) -> usize {
        self.recorder_capacity
    }
}

/// The process-wide observability state: one registry, one flight
/// recorder, one optional exporter.
#[derive(Default)]
pub struct Obs {
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    exporter: RwLock<Option<Box<dyn Exporter>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("registry", &self.registry)
            .field("recorder", &self.recorder)
            .finish_non_exhaustive()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The global observability handle (created lazily, lives forever).
/// Handles resolved from it may be cached in `static`s: the registry is
/// never replaced, only the enabled flag moves.
pub fn obs() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::default)
}

/// Applies `config` to the global handle: sets the enabled flag and
/// rebounds the flight recorder. Idempotent; callable any number of
/// times (benches toggle telemetry between phases).
pub fn install(config: ObsConfig) {
    obs().recorder.set_capacity(config.recorder_capacity);
    ENABLED.store(config.enabled, Ordering::Relaxed);
}

/// Is telemetry globally enabled? One relaxed load — this is the gate
/// every hot-path site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global metrics registry.
pub fn registry() -> &'static MetricsRegistry {
    &obs().registry
}

/// The global flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    &obs().recorder
}

/// Installs (or replaces) the global exporter. `None`-like removal:
/// [`clear_exporter`].
pub fn set_exporter(exporter: Box<dyn Exporter>) {
    *obs().exporter.write().expect("exporter slot poisoned") = Some(exporter);
}

/// Removes the global exporter.
pub fn clear_exporter() {
    *obs().exporter.write().expect("exporter slot poisoned") = None;
}

/// Captures a point-in-time snapshot of the registry and flight
/// recorder, labelled with `trigger`.
pub fn snapshot(trigger: &str) -> ObsSnapshot {
    ObsSnapshot {
        trigger: trigger.to_owned(),
        captured_ns: monotonic_ns(),
        metrics: registry().snapshot(),
        spans: recorder().snapshot(),
        dropped_spans: recorder().dropped(),
    }
}

/// Snapshots and delivers to the installed exporter. Returns `Ok(false)`
/// when no exporter is installed (the snapshot is discarded), `Ok(true)`
/// on delivery. Called on demand and by degraded-mode transitions
/// (`Ams::refresh_policies`).
///
/// # Errors
///
/// I/O failures of the exporter sink.
pub fn dump(trigger: &str) -> std::io::Result<bool> {
    dump_inner(trigger)
}

/// [`dump`], but only when telemetry is globally enabled; a disabled
/// process pays one relaxed load. This is the call fault boundaries use
/// (degraded-mode transitions, chaos-fabric fault events): unconditional
/// in the control flow, free when nobody is watching. Export errors are
/// swallowed — a failing telemetry sink must never take down the serving
/// path it is observing. Returns `true` only when a snapshot was
/// delivered.
pub fn dump_if_enabled(trigger: &str) -> bool {
    enabled() && dump_inner(trigger).unwrap_or(false)
}

fn dump_inner(trigger: &str) -> std::io::Result<bool> {
    // Capture before taking the exporter lock: snapshotting takes the
    // recorder lock and must not nest inside another obs lock.
    let snap = snapshot(trigger);
    match &*obs().exporter.read().expect("exporter slot poisoned") {
        Some(e) => e.export(&snap).map(|()| true),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enabled flag and exporter slot are process-global; tests that
    /// toggle them serialize here.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        install(ObsConfig::disabled());
        let before = recorder().recorded();
        {
            let mut s = span!("t.disabled", n = 1u64);
            assert!(!s.is_live());
            s.record("k", 2u64);
        }
        assert_eq!(recorder().recorded(), before);
        assert!(!enabled());
    }

    #[test]
    fn enabled_mode_records_spans_and_dumps() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        install(ObsConfig::enabled());
        let exporter = MemoryExporter::new();
        set_exporter(Box::new(exporter.clone()));
        {
            let _s = span!("t.enabled", phase = "unit");
        }
        assert!(dump("on_demand").unwrap());
        let docs = exporter.exports();
        assert_eq!(docs.len(), 1);
        assert!(docs[0].contains("\"t.enabled\""));
        assert!(docs[0].contains("\"trigger\": \"on_demand\""));
        clear_exporter();
        assert!(!dump("on_demand").unwrap(), "no exporter installed");
        install(ObsConfig::disabled());
    }

    #[test]
    fn config_accessors() {
        let c = ObsConfig::enabled().with_recorder_capacity(0);
        assert!(c.is_enabled());
        assert_eq!(c.recorder_capacity(), 1, "capacity clamps to 1");
        assert_eq!(ObsConfig::default(), ObsConfig::disabled());
    }
}
