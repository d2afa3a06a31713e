//! Typed views over the global `agenp-obs` metrics registry for the ASP
//! engine: the grounder and solver publish their per-run counters here
//! (when telemetry is enabled), and readers get cumulative
//! [`GroundStats`]/[`SolveStats`] totals back without knowing the metric
//! names. The per-run structs stay the call-site API; these views are
//! the shared vocabulary (`docs/OBSERVABILITY.md`).

use crate::ground::GroundStats;
use crate::solve::SolveStats;
use agenp_obs::Counter;
use std::sync::{Arc, OnceLock};

/// Registry-backed totals for the grounder (`asp.ground.*`).
#[derive(Clone, Debug)]
pub struct GroundMetrics {
    /// Completed grounding runs (`asp.ground.runs`).
    pub runs: Arc<Counter>,
    /// Runs aborted by an error or budget (`asp.ground.errors`).
    pub errors: Arc<Counter>,
    /// Saturation passes (`asp.ground.passes`).
    pub passes: Arc<Counter>,
    /// Ground-rule instantiations (`asp.ground.rules_instantiated`).
    pub rules_instantiated: Arc<Counter>,
    /// Join candidates scanned (`asp.ground.join_candidates`).
    pub join_candidates: Arc<Counter>,
}

impl GroundMetrics {
    /// The process-wide view (handles resolve once and are cached).
    pub fn global() -> &'static GroundMetrics {
        static VIEW: OnceLock<GroundMetrics> = OnceLock::new();
        VIEW.get_or_init(|| {
            let r = agenp_obs::registry();
            GroundMetrics {
                runs: r.counter("asp.ground.runs"),
                errors: r.counter("asp.ground.errors"),
                passes: r.counter("asp.ground.passes"),
                rules_instantiated: r.counter("asp.ground.rules_instantiated"),
                join_candidates: r.counter("asp.ground.join_candidates"),
            }
        })
    }

    /// Folds one finished run into the registry (no-op when telemetry is
    /// disabled).
    pub fn publish(stats: &GroundStats) {
        if !agenp_obs::enabled() {
            return;
        }
        let m = GroundMetrics::global();
        m.runs.incr();
        m.passes.add(stats.passes);
        m.rules_instantiated.add(stats.rules_instantiated);
        m.join_candidates.add(stats.join_candidates);
    }

    /// Cumulative totals as a [`GroundStats`] façade.
    pub fn read() -> GroundStats {
        let m = GroundMetrics::global();
        GroundStats {
            passes: m.passes.value(),
            rules_instantiated: m.rules_instantiated.value(),
            join_candidates: m.join_candidates.value(),
        }
    }
}

/// Registry-backed totals for the solver (`asp.solve.*`).
#[derive(Clone, Debug)]
pub struct SolveMetrics {
    /// Completed solve runs (`asp.solve.runs`).
    pub runs: Arc<Counter>,
    /// Runs answered by the stratified fast path
    /// (`asp.solve.stratified_runs`).
    pub stratified_runs: Arc<Counter>,
    /// DPLL decisions (`asp.solve.decisions`).
    pub decisions: Arc<Counter>,
    /// Unit propagations (`asp.solve.propagations`).
    pub propagations: Arc<Counter>,
    /// Conflicts/backtracks (`asp.solve.conflicts`).
    pub conflicts: Arc<Counter>,
    /// Stability verifications (`asp.solve.stability_checks`).
    pub stability_checks: Arc<Counter>,
}

impl SolveMetrics {
    /// The process-wide view.
    pub fn global() -> &'static SolveMetrics {
        static VIEW: OnceLock<SolveMetrics> = OnceLock::new();
        VIEW.get_or_init(|| {
            let r = agenp_obs::registry();
            SolveMetrics {
                runs: r.counter("asp.solve.runs"),
                stratified_runs: r.counter("asp.solve.stratified_runs"),
                decisions: r.counter("asp.solve.decisions"),
                propagations: r.counter("asp.solve.propagations"),
                conflicts: r.counter("asp.solve.conflicts"),
                stability_checks: r.counter("asp.solve.stability_checks"),
            }
        })
    }

    /// Folds one finished run into the registry (no-op when telemetry is
    /// disabled).
    pub fn publish(stats: &SolveStats) {
        if !agenp_obs::enabled() {
            return;
        }
        let m = SolveMetrics::global();
        m.runs.incr();
        if stats.used_stratified {
            m.stratified_runs.incr();
        }
        m.decisions.add(stats.decisions);
        m.propagations.add(stats.propagations);
        m.conflicts.add(stats.conflicts);
        m.stability_checks.add(stats.stability_checks);
    }

    /// Cumulative totals as a [`SolveStats`] façade (`used_stratified` is
    /// true when any run took the fast path; `tight` is not aggregated).
    pub fn read() -> SolveStats {
        let m = SolveMetrics::global();
        SolveStats {
            decisions: m.decisions.value(),
            propagations: m.propagations.value(),
            conflicts: m.conflicts.value(),
            stability_checks: m.stability_checks.value(),
            used_stratified: m.stratified_runs.value() > 0,
            tight: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_gated_and_cumulative() {
        // Disabled: publishing must not move the registry.
        agenp_obs::install(agenp_obs::ObsConfig::disabled());
        let before = GroundMetrics::read();
        GroundMetrics::publish(&GroundStats {
            passes: 3,
            rules_instantiated: 5,
            join_candidates: 7,
        });
        assert_eq!(GroundMetrics::read(), before);

        // Enabled: totals accumulate.
        agenp_obs::install(agenp_obs::ObsConfig::enabled());
        GroundMetrics::publish(&GroundStats {
            passes: 3,
            rules_instantiated: 5,
            join_candidates: 7,
        });
        let after = GroundMetrics::read();
        assert!(after.passes >= before.passes + 3);
        assert!(after.rules_instantiated >= before.rules_instantiated + 5);
        SolveMetrics::publish(&SolveStats {
            decisions: 2,
            used_stratified: true,
            ..SolveStats::default()
        });
        assert!(SolveMetrics::read().used_stratified);
        agenp_obs::install(agenp_obs::ObsConfig::disabled());
    }
}
