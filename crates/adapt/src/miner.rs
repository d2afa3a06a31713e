//! The decision-history miner: turns a drained slice of the decision log
//! into candidate learning examples ([`Feedback`]) for adaptation rounds.
//!
//! Mining is deliberately conservative and fully deterministic:
//!
//! - A **Permit** on a request is evidence that the permitting policy
//!   string for that request is *valid* in the current context (a
//!   positive example).
//! - A **Deny** is evidence that the same permitting string is *invalid*
//!   (a negative example). A deny carrying a penalty annotation becomes a
//!   *noisy* negative example violable at that penalty — a lightly
//!   sanctioned deny is weak evidence, and the noise-tolerant learner may
//!   pay to ignore it.
//! - Gaps (**NotApplicable** / **Indeterminate**) carry no label and are
//!   skipped (counted, so an operator sees coverage holes).
//! - Decisions served by a **degraded** snapshot are fail-safe denials,
//!   not policy evidence; skipped.
//!
//! Records are grouped by [`Request::canonical_key`]; each distinct
//! request yields at most one example (the highest-epoch record wins when
//! epochs disagree — later policy knowledge supersedes earlier), with a
//! support count gating emission. Requests that cannot be expressed in
//! the canonical `permit if …` textual form (multi-token values, say) are
//! skipped and counted.

use crate::log::DecisionRecord;
use crate::obs::AdaptMetrics;
use agenp_asp::Program;
use agenp_core::arch::Feedback;
use agenp_policy::{rule_from_text, AttrValue, Decision, Request};
use std::collections::BTreeMap;

/// What happened during one mining pass (all counts are records or
/// groups, as named).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MineStats {
    /// Records examined.
    pub drained: usize,
    /// Records skipped because the serving snapshot was degraded.
    pub degraded: usize,
    /// Records skipped as unlabeled gaps (NotApplicable/Indeterminate).
    pub gaps: usize,
    /// Records whose request does not fit the canonical textual policy
    /// form.
    pub unexpressible: usize,
    /// Distinct requests below the support threshold.
    pub below_support: usize,
    /// Examples emitted.
    pub emitted: usize,
}

/// One mining pass's output.
#[derive(Clone, Debug)]
pub struct MinedBatch {
    /// Candidate examples, in canonical-key order (deterministic).
    pub feedback: Vec<Feedback>,
    /// Pass accounting.
    pub stats: MineStats,
}

/// The decision-history miner.
#[derive(Clone, Copy, Debug)]
pub struct Miner {
    /// Minimum times a distinct request must have been decided before it
    /// yields an example (default 1).
    pub min_support: usize,
}

impl Default for Miner {
    fn default() -> Miner {
        Miner { min_support: 1 }
    }
}

struct Group {
    text: String,
    decision: Decision,
    penalty: u32,
    epoch: u64,
    support: usize,
}

impl Miner {
    /// A miner emitting every expressible labeled request at least once.
    pub fn new() -> Miner {
        Miner::default()
    }

    /// Requires `min_support` sightings per distinct request.
    pub fn with_min_support(mut self, min_support: usize) -> Miner {
        self.min_support = min_support.max(1);
        self
    }

    /// Mines `records` into candidate examples under `context` (the
    /// context the examples will be judged in — normally the PIP's
    /// current program).
    pub fn mine(&self, records: &[DecisionRecord], context: &Program) -> MinedBatch {
        let mut span = agenp_obs::span!("adapt.mine", records = records.len());
        let mut stats = MineStats {
            drained: records.len(),
            ..MineStats::default()
        };
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for r in records {
            if r.degraded {
                stats.degraded += 1;
                continue;
            }
            if matches!(
                r.decision,
                Decision::NotApplicable | Decision::Indeterminate
            ) {
                stats.gaps += 1;
                continue;
            }
            let key = r.request.canonical_key();
            if let Some(g) = groups.get_mut(&key) {
                g.support += 1;
                if r.epoch >= g.epoch {
                    g.decision = r.decision;
                    g.penalty = r.penalty;
                    g.epoch = r.epoch;
                }
                continue;
            }
            let Some(text) = permit_text(&r.request) else {
                stats.unexpressible += 1;
                continue;
            };
            groups.insert(
                key,
                Group {
                    text,
                    decision: r.decision,
                    penalty: r.penalty,
                    epoch: r.epoch,
                    support: 1,
                },
            );
        }
        let mut feedback = Vec::new();
        for g in groups.values() {
            if g.support < self.min_support {
                stats.below_support += 1;
                continue;
            }
            let f = match g.decision {
                Decision::Permit => Feedback::valid(&g.text, context.clone()),
                Decision::Deny => {
                    let f = Feedback::invalid(&g.text, context.clone());
                    if g.penalty > 0 {
                        f.with_penalty(g.penalty)
                    } else {
                        f
                    }
                }
                _ => unreachable!("gaps filtered above"),
            };
            feedback.push(f);
        }
        stats.emitted = feedback.len();
        span.record("emitted", stats.emitted);
        if agenp_obs::enabled() {
            AdaptMetrics::global()
                .mine_emitted
                .add(stats.emitted as u64);
        }
        MinedBatch { feedback, stats }
    }
}

/// The canonical permitting policy string for `request`, or `None` when
/// an attribute value does not survive the textual form's tokenizer
/// (verified by round-tripping through [`rule_from_text`]).
pub fn permit_text(request: &Request) -> Option<String> {
    let mut conds = Vec::new();
    for (category, name, value) in request.iter() {
        let token = match value {
            AttrValue::Str(s) => s.clone(),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Bool(b) => b.to_string(),
        };
        conds.push(format!("{} {} = {}", category.name(), name, token));
    }
    if conds.is_empty() {
        return None;
    }
    let text = format!("permit if {}", conds.join(" and "));
    // The textual form must round-trip: a value with embedded whitespace
    // (or a name colliding with a keyword) would re-parse differently.
    rule_from_text("mined", &text).ok()?;
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(request: Request, decision: Decision, penalty: u32, epoch: u64) -> DecisionRecord {
        DecisionRecord {
            request,
            decision,
            penalty,
            epoch,
            degraded: false,
        }
    }

    #[test]
    fn permits_and_denies_become_labeled_examples() {
        let ctx: Program = "lockdown.".parse().unwrap();
        let records = vec![
            rec(
                Request::new().subject("role", "dba"),
                Decision::Permit,
                0,
                1,
            ),
            rec(
                Request::new().subject("role", "guest"),
                Decision::Deny,
                0,
                1,
            ),
        ];
        let batch = Miner::new().mine(&records, &ctx);
        assert_eq!(batch.stats.emitted, 2);
        let pos = &batch.feedback[0];
        assert!(pos.valid);
        assert_eq!(pos.policy, "permit if subject role = dba");
        let neg = &batch.feedback[1];
        assert!(!neg.valid);
        assert_eq!(neg.policy, "permit if subject role = guest");
        assert_eq!(neg.penalty, None);
        assert_eq!(format!("{}", neg.context), format!("{ctx}"));
    }

    #[test]
    fn penalty_denies_become_noisy_negatives() {
        let ctx = Program::new();
        let records = vec![rec(
            Request::new().subject("role", "guest"),
            Decision::Deny,
            3,
            1,
        )];
        let batch = Miner::new().mine(&records, &ctx);
        assert_eq!(batch.feedback[0].penalty, Some(3));
    }

    #[test]
    fn gaps_and_degraded_records_are_skipped() {
        let ctx = Program::new();
        let req = Request::new().subject("role", "x");
        let mut degraded = rec(req.clone(), Decision::Deny, 0, 1);
        degraded.degraded = true;
        let records = vec![
            rec(req.clone(), Decision::NotApplicable, 0, 1),
            rec(req.clone(), Decision::Indeterminate, 0, 1),
            degraded,
        ];
        let batch = Miner::new().mine(&records, &ctx);
        assert_eq!(batch.stats.gaps, 2);
        assert_eq!(batch.stats.degraded, 1);
        assert!(batch.feedback.is_empty());
    }

    #[test]
    fn duplicate_requests_dedupe_and_latest_epoch_wins() {
        let ctx = Program::new();
        let req = Request::new().subject("role", "op");
        let records = vec![
            rec(req.clone(), Decision::Permit, 0, 1),
            rec(req.clone(), Decision::Permit, 0, 1),
            // A later epoch flipped the decision: the flip wins.
            rec(req.clone(), Decision::Deny, 0, 2),
        ];
        let batch = Miner::new().mine(&records, &ctx);
        assert_eq!(batch.stats.emitted, 1);
        assert!(!batch.feedback[0].valid);
    }

    #[test]
    fn support_threshold_gates_emission() {
        let ctx = Program::new();
        let seen_once = Request::new().subject("role", "a");
        let seen_twice = Request::new().subject("role", "b");
        let records = vec![
            rec(seen_once, Decision::Permit, 0, 1),
            rec(seen_twice.clone(), Decision::Permit, 0, 1),
            rec(seen_twice, Decision::Permit, 0, 1),
        ];
        let batch = Miner::new().with_min_support(2).mine(&records, &ctx);
        assert_eq!(batch.stats.emitted, 1);
        assert_eq!(batch.stats.below_support, 1);
        assert_eq!(batch.feedback[0].policy, "permit if subject role = b");
    }

    #[test]
    fn unexpressible_requests_are_counted_not_emitted() {
        let ctx = Program::new();
        let records = vec![
            // Empty request: no conditions to write.
            rec(Request::new(), Decision::Permit, 0, 1),
            // A value with embedded whitespace cannot re-tokenize.
            rec(
                Request::new().subject("role", "two words"),
                Decision::Permit,
                0,
                1,
            ),
        ];
        let batch = Miner::new().mine(&records, &ctx);
        assert_eq!(batch.stats.unexpressible, 2);
        assert!(batch.feedback.is_empty());
    }

    #[test]
    fn int_and_bool_attributes_textualize() {
        let req = Request::new()
            .subject("age", 30i64)
            .environment("emergency", true);
        let text = permit_text(&req).unwrap();
        assert!(text.contains("age = 30"), "{text}");
        assert!(text.contains("emergency = true"), "{text}");
    }
}
