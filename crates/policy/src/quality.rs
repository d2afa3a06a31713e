//! Policy quality assessment — the Policy Checking Point's Quality Checker
//! and Violation Detector (paper §III-A-2 and §V-A).
//!
//! Implements the four quality requirements of Bertino et al. [14]:
//!
//! * **Consistency** — no two applicable rules render contradictory effects
//!   on the same request;
//! * **Relevance** — every rule applies to at least one request of interest;
//! * **Minimality** — no rule is redundant (removing it never changes a
//!   decision);
//! * **Completeness** — every request of interest receives an explicit
//!   decision.
//!
//! Conflicts are assessed both *statically* (syntactic overlap of conditions
//! — potential conflicts) and *contextually* against a concrete request
//! space, reflecting the paper's observation that "whether two policies
//! conflict may depend on the context" (the Crypto-project/postdoc example).

use crate::attr::Request;
use crate::model::{CombiningAlg, Cond, Decision, Effect, Policy, PolicyRule};
use crate::pdp::evaluate_policies;
use std::fmt;

/// A pair of rules that rendered contradictory effects on a witness request.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// Policy id and rule id of the permitting rule.
    pub permit_rule: (String, String),
    /// Policy id and rule id of the denying rule.
    pub deny_rule: (String, String),
    /// A request witnessing the conflict (absent for potential conflicts).
    pub witness: Option<Request>,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} (permit) vs {}/{} (deny)",
            self.permit_rule.0, self.permit_rule.1, self.deny_rule.0, self.deny_rule.1
        )?;
        if let Some(w) = &self.witness {
            write!(f, " on {w}")?;
        }
        Ok(())
    }
}

/// The quality report produced by [`QualityChecker::assess`].
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Confirmed conflicts on the request space.
    pub conflicts: Vec<Conflict>,
    /// Rules `(policy, rule)` that applied to no request in the space.
    pub irrelevant: Vec<(String, String)>,
    /// Rules `(policy, rule)` whose removal changes no decision (redundant).
    pub redundant: Vec<(String, String)>,
    /// Fraction of requests with an explicit Permit/Deny decision.
    pub completeness: f64,
    /// Requests that received no explicit decision.
    pub uncovered: Vec<Request>,
    /// Number of requests assessed.
    pub assessed: usize,
}

impl QualityReport {
    /// True if all four requirements hold on the assessed space.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
            && self.irrelevant.is_empty()
            && self.redundant.is_empty()
            && self.completeness >= 1.0
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "quality: {} conflicts, {} irrelevant, {} redundant, completeness {:.1}% over {} requests",
            self.conflicts.len(),
            self.irrelevant.len(),
            self.redundant.len(),
            self.completeness * 100.0,
            self.assessed
        )
    }
}

/// The PCP Quality Checker: assesses a policy set against a request space.
#[derive(Clone, Copy, Debug, Default)]
pub struct QualityChecker;

impl QualityChecker {
    /// A new checker.
    pub fn new() -> QualityChecker {
        QualityChecker
    }

    /// Assesses `policies` over the given request space (a finite sample of
    /// the requests of interest).
    pub fn assess(&self, policies: &[Policy], space: &[Request]) -> QualityReport {
        let mut conflicts = Vec::new();
        // Flat index over (policy, rule) pairs.
        let mut index: Vec<(usize, usize)> = Vec::new();
        for (pi, p) in policies.iter().enumerate() {
            for (ri, _) in p.rules.iter().enumerate() {
                index.push((pi, ri));
            }
        }
        let mut applied_flags = vec![false; index.len()];
        let mut covered = 0usize;
        let mut uncovered = Vec::new();
        for req in space {
            // Which rules fire, with which effects?
            let mut permits: Vec<(usize, usize)> = Vec::new();
            let mut denies: Vec<(usize, usize)> = Vec::new();
            for (flat, &(pi, ri)) in index.iter().enumerate() {
                let rule = &policies[pi].rules[ri];
                match rule.evaluate(req) {
                    Decision::Permit => {
                        applied_flags[flat] = true;
                        permits.push((pi, ri));
                    }
                    Decision::Deny => {
                        applied_flags[flat] = true;
                        denies.push((pi, ri));
                    }
                    _ => {}
                }
            }
            for &(ppi, pri) in &permits {
                for &(dpi, dri) in &denies {
                    let c = Conflict {
                        permit_rule: (
                            policies[ppi].id.clone(),
                            policies[ppi].rules[pri].id.clone(),
                        ),
                        deny_rule: (
                            policies[dpi].id.clone(),
                            policies[dpi].rules[dri].id.clone(),
                        ),
                        witness: Some(req.clone()),
                    };
                    // Record each conflicting pair once.
                    if !conflicts.iter().any(|x: &Conflict| {
                        x.permit_rule == c.permit_rule && x.deny_rule == c.deny_rule
                    }) {
                        conflicts.push(c);
                    }
                }
            }
            if permits.is_empty() && denies.is_empty() {
                uncovered.push(req.clone());
            } else {
                covered += 1;
            }
        }

        let irrelevant: Vec<(String, String)> = index
            .iter()
            .enumerate()
            .filter(|(flat, _)| !applied_flags[*flat])
            .map(|(_, &(pi, ri))| (policies[pi].id.clone(), policies[pi].rules[ri].id.clone()))
            .collect();

        // Minimality: a rule is redundant if removing it leaves every
        // decision on the space unchanged.
        let baseline: Vec<Decision> = space
            .iter()
            .map(|r| evaluate_policies(policies, CombiningAlg::DenyOverrides, r))
            .collect();
        let mut redundant = Vec::new();
        for &(pi, ri) in &index {
            let mut reduced: Vec<Policy> = policies.to_vec();
            reduced[pi].rules.remove(ri);
            let same = space.iter().zip(&baseline).all(|(req, base)| {
                evaluate_policies(&reduced, CombiningAlg::DenyOverrides, req) == *base
            });
            if same {
                redundant.push((policies[pi].id.clone(), policies[pi].rules[ri].id.clone()));
            }
        }

        let completeness = if space.is_empty() {
            1.0
        } else {
            covered as f64 / space.len() as f64
        };
        QualityReport {
            conflicts,
            irrelevant,
            redundant,
            completeness,
            uncovered,
            assessed: space.len(),
        }
    }

    /// Static (context-independent) potential-conflict detection: rule pairs
    /// with opposite effects whose equality conditions do not contradict
    /// syntactically. A potential conflict may or may not be realizable —
    /// confirm against a request space via [`QualityChecker::assess`].
    pub fn potential_conflicts(&self, policies: &[Policy]) -> Vec<Conflict> {
        let mut out = Vec::new();
        let all: Vec<(usize, usize)> = policies
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| (0..p.rules.len()).map(move |ri| (pi, ri)))
            .collect();
        for (i, &(ppi, pri)) in all.iter().enumerate() {
            for &(dpi, dri) in &all[i + 1..] {
                let a = &policies[ppi].rules[pri];
                let b = &policies[dpi].rules[dri];
                if a.effect == b.effect {
                    continue;
                }
                if !syntactically_disjoint(a, b) {
                    let (permit, deny) = if a.effect == Effect::Permit {
                        ((ppi, pri), (dpi, dri))
                    } else {
                        ((dpi, dri), (ppi, pri))
                    };
                    out.push(Conflict {
                        permit_rule: (
                            policies[permit.0].id.clone(),
                            policies[permit.0].rules[permit.1].id.clone(),
                        ),
                        deny_rule: (
                            policies[deny.0].id.clone(),
                            policies[deny.0].rules[deny.1].id.clone(),
                        ),
                        witness: None,
                    });
                }
            }
        }
        out
    }
}

/// Conservative syntactic disjointness: true only if the two rules contain
/// top-level equality conditions on the same attribute with different
/// constants (so no request can satisfy both).
fn syntactically_disjoint(a: &PolicyRule, b: &PolicyRule) -> bool {
    let eqs = |r: &PolicyRule| -> Vec<(crate::attr::Category, String, crate::attr::AttrValue)> {
        let mut out = Vec::new();
        if let Some(c) = &r.condition {
            collect_eqs(c, &mut out);
        }
        out
    };
    let ea = eqs(a);
    let eb = eqs(b);
    for (ca, na, va) in &ea {
        for (cb, nb, vb) in &eb {
            if ca == cb && na == nb && va != vb {
                return true;
            }
        }
    }
    false
}

fn collect_eqs(c: &Cond, out: &mut Vec<(crate::attr::Category, String, crate::attr::AttrValue)>) {
    match c {
        Cond::Cmp {
            category,
            attr,
            op: crate::model::CondOp::Eq,
            value,
        } => {
            out.push((*category, attr.clone(), value.clone()));
        }
        Cond::And(cs) => {
            for c in cs {
                collect_eqs(c, out);
            }
        }
        _ => {}
    }
}

/// A strategy for resolving confirmed conflicts at decision time (paper
/// §V-A: "one may need to decide which strategy to adopt depending on the
/// context").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolutionStrategy {
    /// Deny wins.
    DenyOverrides,
    /// Permit wins.
    PermitOverrides,
    /// The rule from the policy listed first wins.
    FirstPolicyWins,
}

impl ResolutionStrategy {
    /// Resolves a conflicting pair of effects.
    pub fn resolve(self, first_effect: Effect, second_effect: Effect) -> Effect {
        match self {
            ResolutionStrategy::DenyOverrides => {
                if first_effect == Effect::Deny || second_effect == Effect::Deny {
                    Effect::Deny
                } else {
                    Effect::Permit
                }
            }
            ResolutionStrategy::PermitOverrides => {
                if first_effect == Effect::Permit || second_effect == Effect::Permit {
                    Effect::Permit
                } else {
                    Effect::Deny
                }
            }
            ResolutionStrategy::FirstPolicyWins => first_effect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;

    fn crypto_policies() -> Vec<Policy> {
        // The paper's §V-A example: members of the Crypto project may modify
        // the crypto libraries; postdocs may not.
        vec![
            Policy::new(
                "proj",
                vec![PolicyRule::new(
                    "crypto-members",
                    Effect::Permit,
                    Cond::And(vec![
                        Cond::eq(Category::Subject, "project", "crypto"),
                        Cond::eq(Category::Action, "action-id", "modify"),
                        Cond::eq(Category::Resource, "lib", "crypto-libs"),
                    ]),
                )],
            ),
            Policy::new(
                "role",
                vec![PolicyRule::new(
                    "no-postdocs",
                    Effect::Deny,
                    Cond::And(vec![
                        Cond::eq(Category::Subject, "position", "postdoc"),
                        Cond::eq(Category::Action, "action-id", "modify"),
                        Cond::eq(Category::Resource, "lib", "crypto-libs"),
                    ]),
                )],
            ),
        ]
    }

    fn modify_request(project: &str, position: &str) -> Request {
        Request::new()
            .subject("project", project)
            .subject("position", position)
            .action("action-id", "modify")
            .resource("lib", "crypto-libs")
    }

    #[test]
    fn conflict_is_context_dependent() {
        let policies = crypto_policies();
        let checker = QualityChecker::new();
        // Potential conflict exists statically.
        assert_eq!(checker.potential_conflicts(&policies).len(), 1);
        // Context without postdoc crypto members: no confirmed conflict.
        let space_a = vec![
            modify_request("crypto", "faculty"),
            modify_request("ml", "postdoc"),
        ];
        let report_a = checker.assess(&policies, &space_a);
        assert!(report_a.conflicts.is_empty());
        // Context with a postdoc who is a crypto member: confirmed conflict.
        let space_b = vec![modify_request("crypto", "postdoc")];
        let report_b = checker.assess(&policies, &space_b);
        assert_eq!(report_b.conflicts.len(), 1);
        assert!(report_b.conflicts[0].witness.is_some());
    }

    #[test]
    fn irrelevant_rules_are_found() {
        let mut policies = crypto_policies();
        policies[0].rules.push(PolicyRule::new(
            "never-fires",
            Effect::Permit,
            Cond::eq(Category::Subject, "project", "nonexistent"),
        ));
        let space = vec![modify_request("crypto", "faculty")];
        let report = QualityChecker::new().assess(&policies, &space);
        assert!(report.irrelevant.iter().any(|(_, r)| r == "never-fires"));
    }

    #[test]
    fn redundant_rules_are_found() {
        let mut policies = crypto_policies();
        // Exact duplicate of the permit rule.
        let dup = policies[0].rules[0].clone();
        policies[0].rules.push(PolicyRule {
            id: "dup".into(),
            ..dup
        });
        let space = vec![
            modify_request("crypto", "faculty"),
            modify_request("ml", "faculty"),
        ];
        let report = QualityChecker::new().assess(&policies, &space);
        assert!(report.redundant.iter().any(|(_, r)| r == "dup"));
        // The deny rule is also redundant on this space (never fires), but
        // the *original* permit rule is redundant too since its duplicate
        // covers it. What matters: `dup` is flagged.
    }

    #[test]
    fn completeness_counts_uncovered() {
        let policies = crypto_policies();
        let space = vec![
            modify_request("crypto", "faculty"), // permit → covered
            Request::new()
                .subject("project", "ml")
                .action("action-id", "read"),
        ];
        let report = QualityChecker::new().assess(&policies, &space);
        assert!((report.completeness - 0.5).abs() < 1e-9);
        assert_eq!(report.uncovered.len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_report() {
        let policies = vec![Policy::new(
            "p",
            vec![
                PolicyRule::new(
                    "allow-read",
                    Effect::Permit,
                    Cond::eq(Category::Action, "action-id", "read"),
                ),
                PolicyRule::new(
                    "deny-write",
                    Effect::Deny,
                    Cond::eq(Category::Action, "action-id", "write"),
                ),
            ],
        )];
        let space = vec![
            Request::new().action("action-id", "read"),
            Request::new().action("action-id", "write"),
        ];
        let report = QualityChecker::new().assess(&policies, &space);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn resolution_strategies() {
        assert_eq!(
            ResolutionStrategy::DenyOverrides.resolve(Effect::Permit, Effect::Deny),
            Effect::Deny
        );
        assert_eq!(
            ResolutionStrategy::PermitOverrides.resolve(Effect::Deny, Effect::Permit),
            Effect::Permit
        );
        assert_eq!(
            ResolutionStrategy::FirstPolicyWins.resolve(Effect::Deny, Effect::Permit),
            Effect::Deny
        );
    }

    #[test]
    fn syntactic_disjointness_suppresses_impossible_conflicts() {
        let policies = vec![
            Policy::new(
                "a",
                vec![PolicyRule::new(
                    "p",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                )],
            ),
            Policy::new(
                "b",
                vec![PolicyRule::new(
                    "d",
                    Effect::Deny,
                    Cond::eq(Category::Subject, "role", "guest"),
                )],
            ),
        ];
        assert!(QualityChecker::new()
            .potential_conflicts(&policies)
            .is_empty());
    }
}
