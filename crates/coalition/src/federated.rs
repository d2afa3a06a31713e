//! Federated-learning governance (paper §IV-E): when a coalition party
//! receives a model from a partially trusted partner, generative policies
//! decide whether to *adopt* it, *combine* it with the local model, or
//! *reject* it — based on the source's trust, the model's estimated
//! accuracy gain, and its staleness.

use agenp_asp::{CmpOp, Program, Term};
use agenp_grammar::{Asg, ProdId};
#[cfg(test)]
use agenp_learn::Learner;
use agenp_learn::{
    Example, HypothesisSpace, LearningTask, ModeArg, ModeAtom, ModeBias, ModeCmp, ModeLiteral,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A malformed governance query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GovernanceError {
    /// The queried action is not one of [`ACTIONS`].
    UnknownAction(String),
}

impl fmt::Display for GovernanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernanceError::UnknownAction(a) => write!(f, "unknown governance action {a:?}"),
        }
    }
}

impl std::error::Error for GovernanceError {}

/// A model offer from a partner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ModelOffer {
    /// Source trust level (0–3).
    pub src_trust: i64,
    /// Estimated accuracy of the offered model (0–100).
    pub remote_acc: i64,
    /// Local model accuracy (0–100).
    pub local_acc: i64,
    /// Rounds since the offered model was trained (0–5).
    pub staleness: i64,
}

impl ModelOffer {
    /// Samples a random offer.
    pub fn random(rng: &mut StdRng) -> ModelOffer {
        ModelOffer {
            src_trust: rng.gen_range(0..=3),
            remote_acc: rng.gen_range(40..=95),
            local_acc: rng.gen_range(40..=95),
            staleness: rng.gen_range(0..=5),
        }
    }

    /// The offer's context facts; the accuracy *gain* is a derived value
    /// computed here (a helper-microservice-style derivation).
    pub fn context(self) -> Program {
        format!(
            "src_trust({}). gain({}). staleness({}).",
            self.src_trust,
            self.remote_acc - self.local_acc,
            self.staleness
        )
        .parse()
        .expect("offer facts always parse")
    }
}

/// The governance actions, strongest first.
pub const ACTIONS: [&str; 3] = ["adopt", "combine", "reject"];

/// Ground truth: which actions are valid for an offer. `adopt` requires a
/// clear gain from a trusted, fresh source; `combine` tolerates anything
/// not clearly harmful from a minimally trusted source; `reject` is always
/// safe. Unknown actions are a caller error, reported as
/// [`GovernanceError::UnknownAction`].
pub fn try_valid(offer: ModelOffer, action: &str) -> Result<bool, GovernanceError> {
    let gain = offer.remote_acc - offer.local_acc;
    match action {
        "adopt" => Ok(gain >= 5 && offer.src_trust >= 2 && offer.staleness <= 2),
        "combine" => Ok(gain >= -10 && offer.src_trust >= 1),
        "reject" => Ok(true),
        other => Err(GovernanceError::UnknownAction(other.to_owned())),
    }
}

/// Infallible wrapper over [`try_valid`]: an unknown action is simply not
/// valid (deny by default) rather than a panic.
pub fn valid(offer: ModelOffer, action: &str) -> bool {
    try_valid(offer, action).unwrap_or(false)
}

/// The strongest ground-truth-valid action.
pub fn oracle_action(offer: ModelOffer) -> &'static str {
    ACTIONS
        .iter()
        .copied()
        .find(|a| valid(offer, a))
        .expect("reject is always valid")
}

/// The governance grammar: one production per action.
pub fn grammar() -> Asg {
    let mut src = String::new();
    for a in ACTIONS {
        src.push_str(&format!("policy -> \"{a}\" {{ act({a}). }}\n"));
    }
    src.parse().expect("governance grammar is well-formed")
}

/// Production ids of (adopt, combine).
pub fn productions() -> (ProdId, ProdId) {
    (ProdId::from_index(0), ProdId::from_index(1))
}

/// The hypothesis space: threshold constraints per action production.
pub fn hypothesis_space() -> HypothesisSpace {
    let (adopt, combine) = productions();
    let body = vec![
        ModeLiteral::positive(ModeAtom::local("src_trust", vec![ModeArg::Var])),
        ModeLiteral::positive(ModeAtom::local("gain", vec![ModeArg::Var])),
        ModeLiteral::positive(ModeAtom::local("staleness", vec![ModeArg::Var])),
    ];
    ModeBias::constraints(vec![adopt, combine], body)
        .max_body(1)
        .max_vars(1)
        .with_comparisons(vec![ModeCmp {
            ops: vec![CmpOp::Lt, CmpOp::Ge],
            constants: vec![
                Term::Int(-10),
                Term::Int(0),
                Term::Int(1),
                Term::Int(2),
                Term::Int(3),
                Term::Int(5),
            ],
        }])
        .generate()
}

/// Builds the learning task from labelled offers: each action string is a
/// positive or negative example per offer according to the validity oracle.
pub fn learning_task(offers: &[ModelOffer]) -> LearningTask {
    let mut task = LearningTask::new(grammar(), hypothesis_space());
    for &offer in offers {
        for action in ["adopt", "combine"] {
            let e = Example::in_context(action, offer.context());
            if valid(offer, action) {
                task = task.pos(e);
            } else {
                task = task.neg(e);
            }
        }
    }
    task
}

/// The governed action a GPM chooses for an offer: the strongest admitted
/// action.
pub fn governed_action(gpm: &Asg, offer: ModelOffer) -> &'static str {
    let g = gpm.with_context(&offer.context());
    for a in ACTIONS {
        if g.accepts(a).unwrap_or(false) {
            return a;
        }
    }
    "reject"
}

/// Fraction of offers where the governed action equals the oracle action.
pub fn governance_accuracy(gpm: &Asg, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let correct = (0..n)
        .filter(|_| {
            let offer = ModelOffer::random(&mut rng);
            governed_action(gpm, offer) == oracle_action(offer)
        })
        .count();
    correct as f64 / n.max(1) as f64
}

/// Outcome of a federated simulation round sequence.
#[derive(Clone, Copy, Debug)]
pub struct FederationOutcome {
    /// Final local accuracy with learned governance.
    pub governed_final_acc: f64,
    /// Final local accuracy adopting every offer.
    pub ungoverned_final_acc: f64,
    /// Offers adopted by the governed node.
    pub governed_adoptions: usize,
}

/// Simulates federated rounds: a node starts at 70% accuracy and receives
/// offers — some genuinely better, some stale or from untrusted sources
/// whose *reported* accuracy overstates reality. The governed node applies
/// the learned GPM; the ungoverned node adopts anything that reports an
/// improvement.
pub fn simulate_federation(gpm: &Asg, rounds: usize, seed: u64) -> FederationOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut governed = 70.0f64;
    let mut ungoverned = 70.0f64;
    let mut adoptions = 0;
    for _ in 0..rounds {
        let src_trust = rng.gen_range(0..=3);
        // Untrusted sources have worse models *and* overreport their
        // accuracy; stale models decay.
        let true_acc = if src_trust >= 2 {
            rng.gen_range(55..=95) as f64
        } else {
            rng.gen_range(30..=70) as f64
        };
        let staleness = rng.gen_range(0..=5);
        let reported = if src_trust <= 1 {
            true_acc + 25.0
        } else {
            true_acc
        };
        let effective = true_acc - 3.0 * staleness as f64;

        let offer_for = |local: f64| ModelOffer {
            src_trust,
            remote_acc: reported.round() as i64,
            local_acc: local.round() as i64,
            staleness,
        };
        // Governed node: adopt replaces the model; combine averages toward
        // the incoming model, never below a floor of the local model's
        // value (model averaging retains local knowledge).
        match governed_action(gpm, offer_for(governed)) {
            "adopt" => {
                governed = effective;
                adoptions += 1;
            }
            "combine" => governed = governed.max((governed + effective) / 2.0),
            _ => {}
        }
        // Ungoverned node adopts on any reported improvement and inherits
        // the model's *effective* accuracy.
        if reported > ungoverned {
            ungoverned = effective;
        }
        // Both nodes improve slowly through local training.
        governed = (governed + 0.2).min(97.0);
        ungoverned = (ungoverned + 0.2).min(97.0);
    }
    FederationOutcome {
        governed_final_acc: governed,
        ungoverned_final_acc: ungoverned,
        governed_adoptions: adoptions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_oracle_spec() {
        let good = ModelOffer {
            src_trust: 3,
            remote_acc: 90,
            local_acc: 70,
            staleness: 0,
        };
        assert!(valid(good, "adopt"));
        assert_eq!(oracle_action(good), "adopt");
        let stale = ModelOffer {
            staleness: 4,
            ..good
        };
        assert!(!valid(stale, "adopt"));
        assert_eq!(oracle_action(stale), "combine");
        let untrusted = ModelOffer {
            src_trust: 0,
            ..good
        };
        assert_eq!(oracle_action(untrusted), "reject");
        let worse = ModelOffer {
            remote_acc: 50,
            ..good
        };
        assert_eq!(oracle_action(worse), "reject");
    }

    #[test]
    fn learns_governance_policy() {
        let mut rng = StdRng::seed_from_u64(12);
        let offers: Vec<ModelOffer> = (0..60).map(|_| ModelOffer::random(&mut rng)).collect();
        let task = learning_task(&offers);
        let h = Learner::new()
            .learn(&task)
            .expect("governance is learnable");
        let gpm = h.apply(&task.grammar);
        let acc = governance_accuracy(&gpm, 300, 777);
        assert!(acc > 0.93, "governance accuracy {acc}; hypothesis:\n{h}");
    }

    #[test]
    fn governed_federation_beats_ungoverned() {
        let mut rng = StdRng::seed_from_u64(4);
        let offers: Vec<ModelOffer> = (0..80).map(|_| ModelOffer::random(&mut rng)).collect();
        let task = learning_task(&offers);
        let h = Learner::new().learn(&task).expect("learnable");
        let gpm = h.apply(&task.grammar);
        // Averaged over several seeds: governance must strictly help.
        let mut governed = 0.0;
        let mut ungoverned = 0.0;
        let mut adoptions = 0;
        for seed in 0..6 {
            let outcome = simulate_federation(&gpm, 50, 100 + seed);
            governed += outcome.governed_final_acc;
            ungoverned += outcome.ungoverned_final_acc;
            adoptions += outcome.governed_adoptions;
        }
        assert!(
            governed > ungoverned + 1.0,
            "governed {governed} vs ungoverned {ungoverned}"
        );
        assert!(adoptions > 0);
    }

    #[test]
    fn unknown_governance_action_is_an_error_not_a_panic() {
        let offer = ModelOffer {
            src_trust: 3,
            remote_acc: 90,
            local_acc: 70,
            staleness: 0,
        };
        assert_eq!(
            try_valid(offer, "teleport"),
            Err(GovernanceError::UnknownAction("teleport".to_owned()))
        );
        // The infallible wrapper denies by default.
        assert!(!valid(offer, "teleport"));
        assert!(valid(offer, "adopt"));
    }

    #[test]
    fn governed_action_defaults_to_reject() {
        let gpm = grammar(); // unconstrained: everything admitted
        let offer = ModelOffer {
            src_trust: 0,
            remote_acc: 10,
            local_acc: 90,
            staleness: 5,
        };
        // Unconstrained grammar admits adopt, so the strongest is chosen.
        assert_eq!(governed_action(&gpm, offer), "adopt");
    }
}
