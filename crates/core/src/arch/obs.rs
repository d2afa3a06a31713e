//! Typed view over the global `agenp-obs` registry for the serving tier
//! (`serve.*` metrics). Per-handle [`ServeStats`] atomics stay exact and
//! authoritative for `PdpHandle::stats()`; when telemetry is enabled every
//! serving thread samples its decide calls into this view, so dumps see
//! cross-handle totals and a decide-latency histogram without a clock
//! read per decision.

use crate::arch::serve::ServeStats;
use agenp_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Registry-backed totals for PDP serving (`serve.*`).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Decisions rendered (`serve.decisions`), a sampled tally: each
    /// serving thread adds its decisions at its sampled calls, so on each
    /// thread the counter lags the true count by fewer than
    /// [`Sampler::MAX_GAP`](agenp_obs::Sampler::MAX_GAP) calls.
    pub decisions: Arc<Counter>,
    /// Snapshots published / epoch swaps (`serve.publishes`).
    pub publishes: Arc<Counter>,
    /// Degraded snapshots published (`serve.degraded_publishes`).
    pub degraded_publishes: Arc<Counter>,
    /// Wall-clock nanoseconds per decision (`serve.decide_latency_ns`),
    /// recorded for about one decide call in 64 at random gaps. Its count
    /// is the number of sampled calls, not `decisions`; its mean and
    /// buckets estimate those of every decision.
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
    use agenp_obs::Sampler;
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
        // K more decisions on this thread, through a second handle (the
        // registry totals every handle). The thread's sampler adds its
        // tally at each sampled call, at most MAX_GAP calls apart.
        const K: u64 = 10_000;
        let other = PdpHandle::new();
        for _ in 0..K {
            other.decide(&req);
        }
        let after = ServeMetrics::read();
        assert!(after.decisions >= before.decisions + K - (Sampler::MAX_GAP - 1));
        assert!(after.publishes > before.publishes);
        let lat_after = ServeMetrics::global().decide_latency_ns.snapshot().count;
        assert!(lat_after >= lat_before + K / Sampler::MAX_GAP);
        agenp_obs::install(agenp_obs::ObsConfig::disabled());

        // Disabled: per-handle stats still move, the registry does not.
        let frozen = ServeMetrics::read();
        handle.decide(&req);
        assert_eq!(ServeMetrics::read().decisions, frozen.decisions);
        assert_eq!(handle.stats().decisions, 3);
    }
}
