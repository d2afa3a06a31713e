//! Typed view over the global `agenp-obs` registry for the serving tier
//! (`serve.*` metrics). Per-handle [`ServeStats`] atomics stay
//! authoritative for `PdpHandle::stats()`; when telemetry is enabled the
//! handle mirrors its traffic here so dumps see cross-handle totals and a
//! decide-latency histogram.

use crate::arch::serve::ServeStats;
use agenp_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Registry-backed totals for PDP serving (`serve.*`).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Decisions rendered (`serve.decisions`).
    pub decisions: Arc<Counter>,
    /// Snapshots published / epoch swaps (`serve.publishes`).
    pub publishes: Arc<Counter>,
    /// Degraded snapshots published (`serve.degraded_publishes`).
    pub degraded_publishes: Arc<Counter>,
    /// Wall-clock nanoseconds per decision (`serve.decide_latency_ns`).
    pub decide_latency_ns: Arc<Histogram>,
}

impl ServeMetrics {
    /// The process-wide view (handles resolve once and are cached).
    pub fn global() -> &'static ServeMetrics {
        static VIEW: OnceLock<ServeMetrics> = OnceLock::new();
        VIEW.get_or_init(|| {
            let r = agenp_obs::registry();
            ServeMetrics {
                decisions: r.counter("serve.decisions"),
                publishes: r.counter("serve.publishes"),
                degraded_publishes: r.counter("serve.degraded_publishes"),
                decide_latency_ns: r.histogram("serve.decide_latency_ns"),
            }
        })
    }

    /// Cumulative cross-handle totals as a [`ServeStats`] façade.
    pub fn read() -> ServeStats {
        let m = ServeMetrics::global();
        ServeStats {
            decisions: m.decisions.value(),
            cache_hits: 0,
            invalidations: 0,
            publishes: m.publishes.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{DecisionSnapshot, PdpHandle};
    use agenp_policy::{CombiningAlg, Request};

    #[test]
    fn handle_mirrors_into_registry_when_enabled() {
        agenp_obs::install(agenp_obs::ObsConfig::enabled());
        let before = ServeMetrics::read();
        let lat_before = ServeMetrics::global().decide_latency_ns.snapshot().count;
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            Vec::new(),
            CombiningAlg::DenyOverrides,
        ));
        let req = Request::new().subject("role", "dba");
        handle.decide(&req);
        handle.decide(&req);
        let after = ServeMetrics::read();
        assert!(after.decisions >= before.decisions + 2);
        assert!(after.publishes > before.publishes);
        let lat_after = ServeMetrics::global().decide_latency_ns.snapshot().count;
        assert!(lat_after >= lat_before + 2);
        agenp_obs::install(agenp_obs::ObsConfig::disabled());

        // Disabled: per-handle stats still move, the registry does not.
        let frozen = ServeMetrics::read();
        handle.decide(&req);
        assert_eq!(ServeMetrics::read().decisions, frozen.decisions);
        assert_eq!(handle.stats().decisions, 3);
    }
}
