//! Typed view over the global `agenp-obs` registry for the adaptation
//! plane (`adapt.*` counters). The handles resolve once; callers bump them
//! only when [`agenp_obs::enabled`], so a plane running with telemetry off
//! makes no counter traffic.

use agenp_obs::Counter;
use std::sync::{Arc, OnceLock};

/// Registry-backed totals for the adaptation plane (`adapt.*`).
#[derive(Clone, Debug)]
pub(crate) struct AdaptMetrics {
    /// Records accepted by decision logs (`adapt.log.recorded`).
    pub(crate) log_recorded: Arc<Counter>,
    /// Records evicted from full decision logs (`adapt.log.dropped`).
    pub(crate) log_dropped: Arc<Counter>,
    /// Examples the miner emitted (`adapt.mine.emitted`).
    pub(crate) mine_emitted: Arc<Counter>,
    /// Rounds that published (`adapt.rounds.published`).
    pub(crate) rounds_published: Arc<Counter>,
    /// Rounds skipped for lack of evidence (`adapt.rounds.skipped`).
    pub(crate) rounds_skipped: Arc<Counter>,
    /// Rounds whose `Ams::adapt` failed (`adapt.rounds.failed`).
    pub(crate) rounds_failed: Arc<Counter>,
}

impl AdaptMetrics {
    /// The process-wide view (handles resolve once and are cached).
    pub(crate) fn global() -> &'static AdaptMetrics {
        static VIEW: OnceLock<AdaptMetrics> = OnceLock::new();
        VIEW.get_or_init(|| {
            let r = agenp_obs::registry();
            AdaptMetrics {
                log_recorded: r.counter("adapt.log.recorded"),
                log_dropped: r.counter("adapt.log.dropped"),
                mine_emitted: r.counter("adapt.mine.emitted"),
                rounds_published: r.counter("adapt.rounds.published"),
                rounds_skipped: r.counter("adapt.rounds.skipped"),
                rounds_failed: r.counter("adapt.rounds.failed"),
            }
        })
    }
}
