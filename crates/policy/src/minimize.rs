//! Policy-set minimization — enforcing the §V-A *minimality* requirement
//! ("the policy set does not include redundant policies") rather than just
//! measuring it: greedily remove rules whose removal changes no decision on
//! the request space of interest.

use crate::attr::Request;
use crate::model::{CombiningAlg, Decision, Policy};
use crate::pdp::evaluate_policies;

/// Removes redundant rules from `policies` in place: a rule is redundant if
/// dropping it leaves every decision on `space` unchanged (under
/// deny-overrides combination across the set). Rules are considered in
/// reverse order so earlier (higher-priority) rules are preferred keepers.
/// Returns the removed `(policy_id, rule_id)` pairs.
pub fn minimize_policies(policies: &mut Vec<Policy>, space: &[Request]) -> Vec<(String, String)> {
    let baseline: Vec<Decision> = space
        .iter()
        .map(|r| evaluate_policies(policies, CombiningAlg::DenyOverrides, r))
        .collect();
    let mut removed = Vec::new();
    loop {
        let mut changed = false;
        // Candidate positions, last rule first.
        let positions: Vec<(usize, usize)> = policies
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| (0..p.rules.len()).map(move |ri| (pi, ri)))
            .rev()
            .collect();
        for (pi, ri) in positions {
            let rule = policies[pi].rules[ri].clone();
            policies[pi].rules.remove(ri);
            let same = space.iter().zip(&baseline).all(|(r, base)| {
                evaluate_policies(policies, CombiningAlg::DenyOverrides, r) == *base
            });
            if same {
                removed.push((policies[pi].id.clone(), rule.id));
                changed = true;
                break; // restart scanning: indices shifted
            }
            policies[pi].rules.insert(ri, rule);
        }
        if !changed {
            break;
        }
    }
    // Drop now-empty policies.
    policies.retain(|p| !p.rules.is_empty());
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;
    use crate::model::{Cond, Effect, PolicyRule};
    use crate::quality::QualityChecker;

    fn space() -> Vec<Request> {
        let mut out = Vec::new();
        for role in ["dba", "intern"] {
            for action in ["read", "write"] {
                out.push(
                    Request::new()
                        .subject("role", role)
                        .action("action-id", action),
                );
            }
        }
        out
    }

    #[test]
    fn duplicate_rules_are_removed() {
        let rule = PolicyRule::new(
            "allow-dba",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "dba"),
        );
        let dup = PolicyRule {
            id: "dup".into(),
            ..rule.clone()
        };
        let mut policies = vec![Policy::new("p", vec![rule, dup])];
        let removed = minimize_policies(&mut policies, &space());
        assert_eq!(removed.len(), 1);
        assert_eq!(policies[0].rules.len(), 1);
        // The earlier rule is the keeper.
        assert_eq!(policies[0].rules[0].id, "allow-dba");
    }

    #[test]
    fn subsumed_rules_are_removed() {
        // The specific rule is subsumed by the general one.
        let general = PolicyRule::new(
            "deny-writes",
            Effect::Deny,
            Cond::eq(Category::Action, "action-id", "write"),
        );
        let specific = PolicyRule::new(
            "deny-intern-writes",
            Effect::Deny,
            Cond::And(vec![
                Cond::eq(Category::Subject, "role", "intern"),
                Cond::eq(Category::Action, "action-id", "write"),
            ]),
        );
        let mut policies = vec![Policy::new("p", vec![general, specific])];
        let removed = minimize_policies(&mut policies, &space());
        assert_eq!(
            removed,
            vec![("p".to_string(), "deny-intern-writes".to_string())]
        );
    }

    #[test]
    fn necessary_rules_survive() {
        let mut policies = vec![Policy::new(
            "p",
            vec![
                PolicyRule::new(
                    "allow-dba",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                ),
                PolicyRule::new(
                    "deny-writes",
                    Effect::Deny,
                    Cond::eq(Category::Action, "action-id", "write"),
                ),
            ],
        )];
        let removed = minimize_policies(&mut policies, &space());
        assert!(removed.is_empty());
        assert_eq!(policies[0].rules.len(), 2);
    }

    #[test]
    fn minimized_sets_pass_the_quality_check() {
        let rule = PolicyRule::new(
            "allow-dba",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "dba"),
        );
        let dup = PolicyRule {
            id: "dup".into(),
            ..rule.clone()
        };
        let never = PolicyRule::new(
            "never",
            Effect::Deny,
            Cond::eq(Category::Subject, "role", "ghost"),
        );
        let mut policies = vec![Policy::new("p", vec![rule, dup, never])];
        minimize_policies(&mut policies, &space());
        let report = QualityChecker::new().assess(&policies, &space());
        assert!(report.redundant.is_empty(), "{report}");
        assert!(report.irrelevant.is_empty(), "{report}");
    }

    #[test]
    fn empty_policies_are_dropped() {
        let mut policies = vec![
            Policy::new(
                "only-dup",
                vec![PolicyRule::unconditional("a", Effect::Deny)],
            ),
            Policy::new("other", vec![PolicyRule::unconditional("b", Effect::Deny)]),
        ];
        let removed = minimize_policies(&mut policies, &space());
        assert_eq!(removed.len(), 1);
        assert_eq!(policies.len(), 1);
    }
}
