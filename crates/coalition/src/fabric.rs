//! The coalition fabric's public face (paper §III-A-3 and §IV-A's
//! "collaborative policy management" direction): the configuration and
//! outcomes of the learning round
//! ([`sim::learning_round`](crate::sim::learning_round)), which runs
//! under a [`ChaosPlan`] on the deterministic simulation substrate, and
//! the CASWiki workflows built on it — newcomers warm-start from trusted
//! contributions through [`warm_start_comparison`].

use crate::caswiki::CasWiki;
use crate::sim::{self, ChaosPlan};
use crate::trust::TrustModel;
use agenp_core::scenarios::cav;
use agenp_learn::{Learner, LearningTask};
use std::fmt;

/// The report one coalition party produces after a local learning round.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Party name.
    pub name: String,
    /// Local training examples used.
    pub local_examples: usize,
    /// Learned hypothesis size (rules).
    pub learned_rules: usize,
    /// Accuracy on a common held-out test set.
    pub accuracy: f64,
}

/// How one party fared in a learning round, read from the repository's
/// side.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeOutcome {
    /// The report of its first attempt reached the wiki.
    Ok(NodeReport),
    /// The report of a later attempt reached the wiki; the count is the
    /// attempts before it.
    Retried(NodeReport, u32),
    /// Exhausted its attempts without its report reaching the wiki.
    Failed {
        /// Party name.
        name: String,
        /// The last failure reason observed.
        reason: String,
    },
}

impl NodeOutcome {
    /// The learning report, if the party eventually succeeded.
    pub fn report(&self) -> Option<&NodeReport> {
        match self {
            NodeOutcome::Ok(r) | NodeOutcome::Retried(r, _) => Some(r),
            NodeOutcome::Failed { .. } => None,
        }
    }

    /// The party name, regardless of outcome.
    pub fn name(&self) -> &str {
        match self {
            NodeOutcome::Ok(r) | NodeOutcome::Retried(r, _) => &r.name,
            NodeOutcome::Failed { name, .. } => name,
        }
    }

    /// Attempts made before the delivered one (0 for a failed party).
    pub fn retries(&self) -> u32 {
        match self {
            NodeOutcome::Retried(_, n) => *n,
            NodeOutcome::Ok(_) | NodeOutcome::Failed { .. } => 0,
        }
    }

    /// True if the party produced a report.
    pub fn is_ok(&self) -> bool {
        self.report().is_some()
    }
}

/// A learning round's aggregate result: one outcome per party (indexed
/// by party) plus the quorum that was required of them.
#[derive(Clone, Debug)]
pub struct CoalitionOutcome {
    /// Per-party outcomes, indexed by party.
    pub nodes: Vec<NodeOutcome>,
    /// Minimum number of successful parties that was required.
    pub quorum: usize,
    /// True if at least one party failed — the result is partial.
    pub degraded: bool,
    /// FNV-1a hash over the round's `(tick, event)` trace. Equal
    /// configurations replay to equal hashes.
    pub trace_hash: u64,
}

impl CoalitionOutcome {
    /// The reports of the parties that succeeded.
    pub fn reports(&self) -> Vec<&NodeReport> {
        self.nodes.iter().filter_map(NodeOutcome::report).collect()
    }

    /// Number of parties that produced a report.
    pub fn successes(&self) -> usize {
        self.nodes.iter().filter(|o| o.is_ok()).count()
    }

    /// Total retries consumed across all parties.
    pub fn total_retries(&self) -> u32 {
        self.nodes.iter().map(NodeOutcome::retries).sum()
    }
}

/// Why a learning round failed outright.
#[derive(Clone, Debug)]
pub enum CoalitionError {
    /// Fewer parties succeeded than the configured quorum requires. The
    /// per-node outcomes are preserved for diagnosis.
    QuorumNotMet {
        /// Parties that produced a report.
        successes: usize,
        /// Minimum successes required.
        quorum: usize,
        /// Per-party outcomes, indexed by party.
        nodes: Vec<NodeOutcome>,
    },
}

impl fmt::Display for CoalitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoalitionError::QuorumNotMet {
                successes, quorum, ..
            } => write!(
                f,
                "coalition quorum not met: {successes} of the required {quorum} parties succeeded"
            ),
        }
    }
}

impl std::error::Error for CoalitionError {}

/// Configuration for a coalition learning round.
#[derive(Clone, Debug)]
pub struct CoalitionConfig {
    /// Number of parties to run.
    pub n_nodes: usize,
    /// Local training samples per party.
    pub samples_per_node: usize,
    /// Base seed; party `i` samples with `seed + i * 101`, and the chaos
    /// layer rolls from it.
    pub seed: u64,
    /// Minimum successful parties for the run to count at all.
    pub quorum: usize,
    /// Attempts a party makes after its first before it gives up.
    pub max_retries: u32,
    /// The faults the round runs under.
    pub plan: ChaosPlan,
}

impl CoalitionConfig {
    /// A faultless round with two retries and a full quorum (every party
    /// must succeed for a non-degraded outcome; the quorum can be lowered
    /// with [`CoalitionConfig::quorum`]).
    pub fn new(n_nodes: usize, samples_per_node: usize, seed: u64) -> CoalitionConfig {
        CoalitionConfig {
            n_nodes,
            samples_per_node,
            seed,
            quorum: n_nodes,
            max_retries: 2,
            plan: ChaosPlan::none(),
        }
    }

    /// Sets the minimum number of successful parties.
    pub fn quorum(mut self, quorum: usize) -> CoalitionConfig {
        self.quorum = quorum;
        self
    }

    /// Sets the faults the round runs under.
    pub fn plan(mut self, plan: ChaosPlan) -> CoalitionConfig {
        self.plan = plan;
        self
    }
}

/// Runs a faultless CAV learning round over `n_nodes` parties and returns
/// one report per party, sorted by name. A convenience wrapper over
/// [`sim::learning_round`] with a quorum of zero: it never fails, and a
/// party whose learner errors on every attempt yields a zeroed report (no
/// learned rules, accuracy 0.0) instead of panicking the caller.
pub fn distributed_cav_learning(
    n_nodes: usize,
    samples_per_node: usize,
    seed: u64,
    wiki: &CasWiki,
) -> Vec<NodeReport> {
    let cfg = CoalitionConfig::new(n_nodes, samples_per_node, seed).quorum(0);
    let nodes = match sim::learning_round(&cfg, wiki) {
        Ok(outcome) => outcome.nodes,
        Err(CoalitionError::QuorumNotMet { nodes, .. }) => nodes,
    };
    let mut reports: Vec<NodeReport> = nodes
        .iter()
        .map(|o| match o.report() {
            Some(r) => r.clone(),
            None => NodeReport {
                name: o.name().to_owned(),
                local_examples: samples_per_node,
                learned_rules: 0,
                accuracy: 0.0,
            },
        })
        .collect();
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    reports
}

/// Outcome of the newcomer warm-start comparison.
#[derive(Clone, Copy, Debug)]
pub struct WarmStartOutcome {
    /// Accuracy learning from local data only.
    pub cold_accuracy: f64,
    /// Accuracy learning from local data plus trusted wiki contributions.
    pub warm_accuracy: f64,
    /// Wiki contributions used for the warm start.
    pub shared_used: usize,
}

/// A newcomer with only `local_n` local samples learns (a) cold — local data
/// only — and (b) warm — local data plus wiki contributions from partners
/// whose trust passes `min_trust`, taken as soft examples (penalty 2) to
/// guard against residual bad data.
pub fn warm_start_comparison(
    local_n: usize,
    wiki: &CasWiki,
    trust: &TrustModel,
    min_trust: f64,
    seed: u64,
) -> WarmStartOutcome {
    let local = cav::samples(local_n, seed);
    let test = cav::samples(200, seed.wrapping_add(31337));

    let cold_task = cav::learning_task(&local, None);
    let cold_accuracy = accuracy_of(&cold_task, &test);

    let shared = wiki.retrieve(|c| trust.trust(c) >= min_trust);
    let mut warm_task = cav::learning_task(&local, None);
    for c in &shared {
        let e = c.example(Some(2));
        if c.valid {
            warm_task = warm_task.pos(e);
        } else {
            warm_task = warm_task.neg(e);
        }
    }
    let warm_accuracy = accuracy_of(&warm_task, &test);
    WarmStartOutcome {
        cold_accuracy,
        warm_accuracy,
        shared_used: shared.len(),
    }
}

fn accuracy_of(task: &LearningTask, test: &[cav::Sample]) -> f64 {
    match Learner::new().learn(task) {
        Ok(h) => cav::gpm_accuracy(&h.apply(&task.grammar), test),
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caswiki::Contribution;

    #[test]
    fn parties_learn_concurrently_and_contribute() {
        let wiki = CasWiki::new();
        let reports = distributed_cav_learning(3, 40, 5, &wiki);
        assert_eq!(reports.len(), 3);
        assert_eq!(wiki.len(), 3 * 40);
        for r in &reports {
            assert!(r.accuracy > 0.8, "{} accuracy {}", r.name, r.accuracy);
            assert!(r.learned_rules > 0);
        }
    }

    #[test]
    fn supervised_run_without_faults_is_clean() {
        let wiki = CasWiki::new();
        let cfg = CoalitionConfig::new(3, 30, 5);
        let outcome =
            sim::learning_round(&cfg, &wiki).expect("full quorum reachable without faults");
        assert!(!outcome.degraded);
        assert_eq!(outcome.successes(), 3);
        assert_eq!(outcome.total_retries(), 0);
        assert_eq!(outcome.reports().len(), 3);
        assert!(outcome.nodes.iter().all(NodeOutcome::is_ok));
    }

    #[test]
    fn warm_start_beats_cold_start_on_scarce_data() {
        let wiki = CasWiki::new();
        let _ = distributed_cav_learning(3, 60, 77, &wiki);
        let mut trust = TrustModel::new();
        for i in 0..3 {
            trust.set(&format!("party-{i}"), 0.9);
        }
        // A newcomer with very little local data.
        let outcome = warm_start_comparison(4, &wiki, &trust, 0.5, 4242);
        assert!(outcome.shared_used == 180);
        assert!(
            outcome.warm_accuracy >= outcome.cold_accuracy,
            "warm {} < cold {}",
            outcome.warm_accuracy,
            outcome.cold_accuracy
        );
        assert!(outcome.warm_accuracy > 0.9);
    }

    #[test]
    fn trust_filter_excludes_poisoned_contributions() {
        let wiki = CasWiki::new();
        let _ = distributed_cav_learning(2, 50, 11, &wiki);
        // A poisoner contributes inverted labels.
        let poisoned: Vec<Contribution> = cav::samples(50, 500)
            .iter()
            .map(|s| Contribution {
                contributor: "poisoner".into(),
                policy: cav::policy_text(s.task),
                context: s.context.to_program(),
                valid: !s.accept,
            })
            .collect();
        wiki.contribute_all(poisoned);
        let mut trust = TrustModel::new();
        trust.set("party-0", 0.9);
        trust.set("party-1", 0.9);
        trust.set("poisoner", 0.1);
        let filtered = warm_start_comparison(4, &wiki, &trust, 0.5, 321);
        assert_eq!(filtered.shared_used, 100);
        assert!(
            filtered.warm_accuracy > 0.85,
            "accuracy {}",
            filtered.warm_accuracy
        );
    }
}
