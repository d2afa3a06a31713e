//! The decision kernel, the Policy Enforcement Point, and the policy
//! repository — the conventional-PBMS components of the AGENP architecture
//! (paper §III-A: "The PEP, PDP, and Policy Repository operate in a manner
//! similar to conventional PBMS"). The PDP itself is `agenp-core`'s
//! serving tier, which evaluates each request with the compiled form of
//! [`evaluate_policies`], [`CompiledPolicies`](crate::CompiledPolicies);
//! decision monitoring for the adaptation loop is `agenp-adapt`'s
//! `DecisionLog`.

use crate::attr::Request;
use crate::model::{CombiningAlg, Decision, Policy};
use std::fmt;

/// A versioned store of [`Policy`] objects.
#[derive(Clone, Debug, Default)]
pub struct PolicyRepository {
    policies: Vec<Policy>,
    version: u64,
}

impl PolicyRepository {
    /// An empty repository.
    pub fn new() -> PolicyRepository {
        PolicyRepository::default()
    }

    /// Replaces the entire policy set, bumping the version.
    pub fn replace_all(&mut self, policies: Vec<Policy>) {
        self.policies = policies;
        self.version += 1;
    }

    /// Adds one policy, bumping the version.
    pub fn add(&mut self, policy: Policy) {
        self.policies.push(policy);
        self.version += 1;
    }

    /// Removes the policy with the given id; true if something was removed.
    pub fn remove(&mut self, id: &str) -> bool {
        let before = self.policies.len();
        self.policies.retain(|p| p.id != id);
        let removed = self.policies.len() != before;
        if removed {
            self.version += 1;
        }
        removed
    }

    /// The stored policies.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Monotone version counter (bumped on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// Evaluates a request against a policy slice under a combining algorithm:
/// the tree walk of the pure decision kernel. The shared-snapshot serving
/// tier (`agenp-core`'s `DecisionSnapshot`) renders the same decisions from
/// a [`CompiledPolicies`](crate::CompiledPolicies) built once per snapshot.
/// Policies and rules after the combining algorithm's absorbing decision
/// are never evaluated.
pub fn evaluate_policies(
    policies: &[Policy],
    combining: CombiningAlg,
    request: &Request,
) -> Decision {
    combining.combine(policies.iter().map(|p| p.evaluate(request)))
}

/// The action the PEP performs after a decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enforcement {
    /// The request proceeds.
    Granted,
    /// The request is blocked.
    Blocked,
    /// The request is blocked and flagged for operator review (the paper's
    /// completeness concern: no policy covered the action).
    Escalated,
}

impl fmt::Display for Enforcement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Enforcement::Granted => "granted",
            Enforcement::Blocked => "blocked",
            Enforcement::Escalated => "escalated",
        })
    }
}

/// The Policy Enforcement Point: maps decisions to enforcement actions with
/// a configurable default for gaps.
#[derive(Clone, Copy, Debug)]
pub struct Pep {
    /// Whether `NotApplicable`/`Indeterminate` escalate (true) or block
    /// silently (false).
    pub escalate_gaps: bool,
}

impl Default for Pep {
    fn default() -> Pep {
        Pep {
            escalate_gaps: true,
        }
    }
}

impl Pep {
    /// Maps a decision to an enforcement action (deny-biased: anything other
    /// than an explicit Permit is not granted).
    pub fn enforce(&self, decision: Decision) -> Enforcement {
        match decision {
            Decision::Permit => Enforcement::Granted,
            Decision::Deny => Enforcement::Blocked,
            Decision::NotApplicable | Decision::Indeterminate => {
                if self.escalate_gaps {
                    Enforcement::Escalated
                } else {
                    Enforcement::Blocked
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;
    use crate::model::{Cond, Effect, PolicyRule};

    fn repo() -> PolicyRepository {
        let mut r = PolicyRepository::new();
        r.add(Policy::new(
            "p1",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )],
        ));
        r
    }

    #[test]
    fn repository_versions_mutations() {
        let mut r = repo();
        let v = r.version();
        r.add(Policy::new("p2", vec![]));
        assert_eq!(r.version(), v + 1);
        assert!(r.remove("p2"));
        assert!(!r.remove("p2"));
        assert_eq!(r.version(), v + 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn pep_enforcement_mapping() {
        let pep = Pep::default();
        assert_eq!(pep.enforce(Decision::Permit), Enforcement::Granted);
        assert_eq!(pep.enforce(Decision::Deny), Enforcement::Blocked);
        assert_eq!(pep.enforce(Decision::NotApplicable), Enforcement::Escalated);
        let silent = Pep {
            escalate_gaps: false,
        };
        assert_eq!(
            silent.enforce(Decision::Indeterminate),
            Enforcement::Blocked
        );
    }
}
