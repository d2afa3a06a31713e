//! Typed view over the global `agenp-obs` registry for the learner
//! (`learn.*` metrics). Per-run [`LearnStats`] stay the call-site API;
//! finished runs are folded in here when telemetry is enabled.

use crate::learner::LearnStats;
use agenp_obs::Counter;
use std::sync::{Arc, OnceLock};

/// Registry-backed totals for hypothesis learning (`learn.*`).
#[derive(Clone, Debug)]
pub struct LearnMetrics {
    /// Completed learning runs (`learn.runs`).
    pub runs: Arc<Counter>,
    /// Runs answered by the monotone fast path (`learn.monotone_runs`).
    pub monotone_runs: Arc<Counter>,
    /// Candidate rules considered (`learn.candidates`).
    pub candidates: Arc<Counter>,
    /// Answer-set worlds enumerated (`learn.worlds`).
    pub worlds: Arc<Counter>,
    /// Search nodes explored (`learn.search_nodes`).
    pub search_nodes: Arc<Counter>,
    /// Stable-model solver invocations (`learn.solver_calls`).
    pub solver_calls: Arc<Counter>,
}

impl LearnMetrics {
    /// The process-wide view (handles resolve once and are cached).
    pub fn global() -> &'static LearnMetrics {
        static VIEW: OnceLock<LearnMetrics> = OnceLock::new();
        VIEW.get_or_init(|| {
            let r = agenp_obs::registry();
            LearnMetrics {
                runs: r.counter("learn.runs"),
                monotone_runs: r.counter("learn.monotone_runs"),
                candidates: r.counter("learn.candidates"),
                worlds: r.counter("learn.worlds"),
                search_nodes: r.counter("learn.search_nodes"),
                solver_calls: r.counter("learn.solver_calls"),
            }
        })
    }

    /// Folds one finished run into the registry (no-op when telemetry is
    /// disabled).
    pub fn publish(stats: &LearnStats) {
        if !agenp_obs::enabled() {
            return;
        }
        let m = LearnMetrics::global();
        m.runs.incr();
        if stats.used_monotone {
            m.monotone_runs.incr();
        }
        m.candidates.add(stats.candidates as u64);
        m.worlds.add(stats.worlds as u64);
        m.search_nodes.add(stats.search_nodes);
        m.solver_calls.add(stats.solver_calls);
    }

    /// Cumulative totals as a [`LearnStats`] façade (`used_monotone` is
    /// true when any run took the fast path; grounder counters are
    /// tracked under `asp.ground.*` rather than duplicated here).
    pub fn read() -> LearnStats {
        let m = LearnMetrics::global();
        LearnStats {
            candidates: m.candidates.value() as usize,
            worlds: m.worlds.value() as usize,
            search_nodes: m.search_nodes.value(),
            used_monotone: m.monotone_runs.value() > 0,
            solver_calls: m.solver_calls.value(),
            ..LearnStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_gated() {
        agenp_obs::install(agenp_obs::ObsConfig::disabled());
        let before = LearnMetrics::read();
        LearnMetrics::publish(&LearnStats {
            candidates: 4,
            solver_calls: 2,
            ..LearnStats::default()
        });
        let after = LearnMetrics::read();
        assert_eq!(after.candidates, before.candidates);
        assert_eq!(after.solver_calls, before.solver_calls);

        agenp_obs::install(agenp_obs::ObsConfig::enabled());
        LearnMetrics::publish(&LearnStats {
            candidates: 4,
            solver_calls: 2,
            ..LearnStats::default()
        });
        let bumped = LearnMetrics::read();
        assert!(bumped.candidates >= before.candidates + 4);
        assert!(bumped.solver_calls >= before.solver_calls + 2);
        agenp_obs::install(agenp_obs::ObsConfig::disabled());
    }
}
