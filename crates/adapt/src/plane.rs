//! The adaptation plane proper: a thin front end of an
//! [`Ams`] that owns the decision log and the miner, and turns one
//! `run_round` call into drain → mine → [`Ams::observe`] per example →
//! [`Ams::adapt`] (learn → generate → PCP screen → publish).
//!
//! `run_round` is synchronous and deterministic — the background
//! [`Relearner`](crate::Relearner) is a thin worker thread around it, so
//! everything interesting is testable without threads.
//!
//! Failure semantics are serve-last-good: the plane pins its AMS to
//! [`DegradedMode::ServeLastGood`], and a failed `Ams::adapt` commits
//! neither a GPM nor a snapshot. A failed round (unsatisfiable feedback,
//! exhausted budget) leaves the serving tier exactly as it was —
//! relearning never interrupts serving.

use crate::log::DecisionLog;
use crate::miner::{MineStats, Miner};
use crate::obs::AdaptMetrics;
use agenp_core::arch::{Ams, AmsError, DegradedMode, PdpHandle};
use std::sync::Arc;

/// Records the decision log holds before it drops the oldest.
const LOG_CAPACITY: usize = 4096;

/// The outcome of one adaptation round.
#[derive(Debug)]
pub enum RoundOutcome {
    /// Not enough evidence to learn from; nothing changed.
    Skipped {
        /// Examples buffered so far (all rounds).
        buffered: usize,
        /// The configured threshold that was not met.
        needed: usize,
        /// This round's mining accounting.
        stats: MineStats,
    },
    /// A refined policy set was published.
    Published(RoundReport),
    /// Learning or regeneration failed; the serving snapshot was left
    /// untouched (serve-last-good).
    Failed(AmsError),
}

impl RoundOutcome {
    /// The published report, if this round published.
    pub fn published(&self) -> Option<&RoundReport> {
        match self {
            RoundOutcome::Published(r) => Some(r),
            _ => None,
        }
    }
}

/// What a successful round did.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// The epoch the refined snapshot was published at.
    pub epoch: u64,
    /// Examples the learner saw (accumulated across rounds).
    pub examples_used: usize,
    /// Constraints in the winning hypothesis.
    pub constraints_learned: usize,
    /// Enforceable rules in the regenerated policy.
    pub rules_generated: usize,
    /// This round's mining accounting.
    pub stats: MineStats,
}

/// The adaptation plane for one party.
///
/// Construct it around an [`Ams`] configured with everything a round
/// runs under — context, translator, PCP restrictions, run budget — and
/// feed the [`DecisionLog`] from the enforcement point.
#[derive(Debug)]
pub struct AdaptPlane {
    ams: Ams,
    miner: Miner,
    log: Arc<DecisionLog>,
    min_examples: usize,
    rounds: u64,
}

impl AdaptPlane {
    /// A plane relearning through `ams`, pinned to
    /// [`DegradedMode::ServeLastGood`]. Defaults: `min_examples` 1, a
    /// decision log of 4096 records, [`Miner::new`].
    pub fn new(mut ams: Ams) -> AdaptPlane {
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        AdaptPlane {
            ams,
            miner: Miner::new(),
            log: Arc::new(DecisionLog::new(LOG_CAPACITY)),
            min_examples: 1,
            rounds: 0,
        }
    }

    /// Requires at least `n` buffered examples before a round learns.
    pub fn with_min_examples(mut self, n: usize) -> AdaptPlane {
        self.min_examples = n.max(1);
        self
    }

    /// The decision log enforcement points should record into.
    pub fn log(&self) -> Arc<DecisionLog> {
        self.log.clone()
    }

    /// The AMS's serving handle, which refined snapshots publish
    /// through.
    pub fn handle(&self) -> PdpHandle {
        self.ams.serving_handle()
    }

    /// Examples accumulated so far.
    pub fn buffered_examples(&self) -> usize {
        self.ams.feedback_len()
    }

    /// Rounds run (skipped, failed, or published).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Generates, screens and publishes the initial policy set from the
    /// *unrefined* GPM ([`Ams::refresh_policies`]), so the handle serves
    /// live policies before any adaptation has happened. Returns the
    /// epoch of the snapshot now serving.
    ///
    /// # Errors
    ///
    /// [`AmsError::Generation`] on grounding/budget failures.
    pub fn publish_initial(&mut self) -> Result<u64, AmsError> {
        self.ams.refresh_policies()?;
        Ok(self.ams.current_snapshot().epoch())
    }

    /// One adaptation round: drain the log, mine it under the AMS's
    /// context, hand each example to [`Ams::observe`], and — once enough
    /// evidence has accumulated — run [`Ams::adapt`]. Never blocks or
    /// perturbs serving; see the module docs for the failure contract.
    pub fn run_round(&mut self) -> RoundOutcome {
        self.rounds += 1;
        let records = self.log.drain();
        let batch = self.miner.mine(&records, self.ams.context());
        let stats = batch.stats;
        for example in batch.feedback {
            self.ams.observe(example);
        }
        if self.ams.feedback_len() < self.min_examples {
            if agenp_obs::enabled() {
                AdaptMetrics::global().rounds_skipped.incr();
            }
            return RoundOutcome::Skipped {
                buffered: self.ams.feedback_len(),
                needed: self.min_examples,
                stats,
            };
        }
        match self.ams.adapt() {
            Ok(adaptation) => {
                if agenp_obs::enabled() {
                    AdaptMetrics::global().rounds_published.incr();
                }
                let snapshot = self.ams.current_snapshot();
                RoundOutcome::Published(RoundReport {
                    epoch: snapshot.epoch(),
                    examples_used: adaptation.examples_used,
                    constraints_learned: adaptation.hypothesis.rules.len(),
                    rules_generated: snapshot.policies().iter().map(|p| p.rules.len()).sum(),
                    stats,
                })
            }
            Err(e) => {
                if agenp_obs::enabled() {
                    AdaptMetrics::global().rounds_failed.incr();
                }
                RoundOutcome::Failed(e)
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use agenp_asp::Program;
    use agenp_core::arch::Feedback;
    use agenp_grammar::{Asg, ProdId};
    use agenp_learn::HypothesisSpace;
    use agenp_policy::{Decision, Effect, Request};

    /// The AMS test fixture's gate grammar: permit/deny on clearance,
    /// with hypothesis-space constraints keying on a `lockdown` context.
    pub(crate) fn gate(context: &str) -> Ams {
        let g: Asg = r#"
            policy -> effect "if" "subject" "clearance" "=" level
            effect -> "permit" { e(permit). }
            effect -> "deny"   { e(deny). }
            level -> "low"  { lvl(low). }
            level -> "high" { lvl(high). }
        "#
        .parse()
        .unwrap();
        let space = HypothesisSpace::from_texts(&[
            (ProdId::from_index(1), ":- lockdown."),
            (ProdId::from_index(2), ":- not lockdown."),
        ]);
        let mut ams = Ams::new("p", g, space);
        ams.set_context(context.parse().unwrap());
        ams
    }

    /// Records `decision` for a request of `clearance`, as an operator
    /// overriding whatever the plane served.
    pub(crate) fn record(plane: &AdaptPlane, clearance: &str, decision: Decision) {
        let req = Request::new().subject("clearance", clearance);
        let mut outcome = plane.handle().decide(&req);
        outcome.decision = decision;
        plane.log().record(&req, &outcome);
    }

    #[test]
    fn initial_publish_serves_the_unrefined_language() {
        let mut plane = AdaptPlane::new(gate(""));
        let epoch = plane.publish_initial().unwrap();
        let handle = plane.handle();
        let req = Request::new().subject("clearance", "high");
        let outcome = handle.decide(&req);
        assert_eq!(outcome.epoch, epoch);
        // permit + deny rules both generated → deny-overrides → Deny.
        assert_eq!(outcome.decision, Decision::Deny);
    }

    #[test]
    fn round_without_evidence_skips_and_serving_is_untouched() {
        let mut plane = AdaptPlane::new(gate("")).with_min_examples(2);
        let before = plane.publish_initial().unwrap();
        let outcome = plane.run_round();
        assert!(matches!(
            outcome,
            RoundOutcome::Skipped {
                buffered: 0,
                needed: 2,
                ..
            }
        ));
        assert_eq!(plane.handle().snapshot().epoch(), before);
    }

    #[test]
    fn mined_denials_relearn_the_gpm_and_republish() {
        let mut plane = AdaptPlane::new(gate("lockdown."));
        let first = plane.publish_initial().unwrap();
        let handle = plane.handle();

        // The enforcement point observed denials of both permitting
        // strings (an operator overrode them under lockdown).
        for clearance in ["high", "low"] {
            record(&plane, clearance, Decision::Deny);
        }
        let outcome = plane.run_round();
        let report = outcome.published().expect("round should publish");
        assert_eq!(report.epoch, first + 1, "publish bumps the epoch");
        assert_eq!(report.examples_used, 2);
        assert!(report.constraints_learned > 0);
        // Under lockdown the refined GPM generates only deny strings.
        let refined = handle.snapshot();
        assert_eq!(refined.epoch(), report.epoch);
        assert!(refined
            .policies()
            .iter()
            .flat_map(|p| p.rules.iter())
            .all(|r| r.effect == Effect::Deny));
        let req = Request::new().subject("clearance", "high");
        assert_eq!(handle.decide(&req).decision, Decision::Deny);
    }

    #[test]
    fn pcp_restrictions_screen_online_rounds() {
        let mut ams = gate("");
        // Never permit a high clearance, whatever the learner admits.
        ams.pcp_mut().add_restriction(
            ProdId::from_index(0),
            ":- e(permit)@1, lvl(high)@6.".parse().unwrap(),
        );
        let mut plane = AdaptPlane::new(ams);
        plane.publish_initial().unwrap();
        record(&plane, "low", Decision::Permit);
        let outcome = plane.run_round();
        let report = outcome.published().expect("round should publish");
        let snapshot = plane.handle().snapshot();
        let high = Request::new().subject("clearance", "high");
        let rules: Vec<_> = snapshot
            .policies()
            .iter()
            .flat_map(|p| p.rules.iter())
            .collect();
        assert_eq!(report.rules_generated, 3, "{rules:?}");
        assert!(
            rules
                .iter()
                .all(|r| r.effect != Effect::Permit || r.evaluate(&high) != Decision::Permit),
            "a screened-out policy was published: {rules:?}"
        );
    }

    #[test]
    fn failed_rounds_leave_the_snapshot_alone() {
        let lockdown: Program = "lockdown.".parse().unwrap();
        let mut plane = AdaptPlane::new(gate("lockdown."));
        let epoch = plane.publish_initial().unwrap();
        let handle = plane.handle();
        // Contradictory evidence: the same string both valid and invalid
        // in the same context — no hypothesis satisfies it. (Mining
        // dedups per-request, so inject straight into the AMS.)
        let req = Request::new().subject("clearance", "high");
        plane.ams.observe(Feedback::valid(
            "permit if subject clearance = low",
            lockdown.clone(),
        ));
        plane.ams.observe(Feedback::invalid(
            "permit if subject clearance = low",
            lockdown,
        ));
        let outcome = plane.run_round();
        assert!(matches!(
            outcome,
            RoundOutcome::Failed(AmsError::Learning(_))
        ));
        // Serving still answers from the last good snapshot.
        let served = handle.decide(&req);
        assert_eq!(served.epoch, epoch);
        assert!(served.error.is_none());
    }

    #[test]
    fn telemetry_off_leaves_every_adapt_counter_unchanged() {
        agenp_obs::install(agenp_obs::ObsConfig::disabled());
        let read = || {
            let m = AdaptMetrics::global();
            [
                &m.log_recorded,
                &m.log_dropped,
                &m.mine_emitted,
                &m.rounds_published,
                &m.rounds_skipped,
                &m.rounds_failed,
            ]
            .map(|c| c.value())
        };
        let before = read();

        // A full log records and evicts.
        let log = DecisionLog::new(1);
        for clearance in ["high", "low"] {
            let req = Request::new().subject("clearance", clearance);
            log.push(crate::DecisionRecord {
                request: req,
                decision: Decision::Deny,
                penalty: 0,
                epoch: 1,
                degraded: false,
            });
        }
        assert_eq!(log.dropped(), 1);

        // One round of each outcome: skipped, published (mining emits),
        // failed.
        let lockdown: Program = "lockdown.".parse().unwrap();
        let mut plane = AdaptPlane::new(gate("lockdown.")).with_min_examples(2);
        plane.publish_initial().unwrap();
        assert!(matches!(plane.run_round(), RoundOutcome::Skipped { .. }));
        for clearance in ["high", "low"] {
            record(&plane, clearance, Decision::Deny);
        }
        assert!(plane.run_round().published().is_some());
        plane.ams.observe(Feedback::valid(
            "permit if subject clearance = low",
            lockdown.clone(),
        ));
        plane.ams.observe(Feedback::invalid(
            "permit if subject clearance = low",
            lockdown,
        ));
        assert!(matches!(plane.run_round(), RoundOutcome::Failed(_)));

        assert_eq!(read(), before);
    }
}
