//! Metamorphic transformation oracles.
//!
//! Each transform here comes with a semantic guarantee the test suites hold
//! the fast engines to:
//!
//! * [`permute_rules`] / [`permute_policies`] / [`permute_policy_rules`] —
//!   reordering leaves answer sets (always) and decisions (under the
//!   order-insensitive combining algorithms) unchanged. `FirstApplicable`
//!   is order-*sensitive* by specification, so the policy-side permutations
//!   are only applied to sets built by
//!   [`crate::gen::order_insensitive_policy_set`].
//! * [`rename_predicates`] — a bijective renaming of predicate symbols maps
//!   answer sets through the same bijection and changes nothing else.
//! * [`insert_inert_rules`] / [`insert_inert_policy_rules`] — adding rules
//!   that can never fire (a body over a predicate with no derivation; a
//!   policy rule whose condition is the empty disjunction, which always
//!   evaluates definitely-false and therefore `NotApplicable` under every
//!   combining algorithm) leaves answer sets and decisions untouched.
//! * [`shuffle_requests`] — reordering a request stream permutes the
//!   decision vector by exactly the same permutation.
//! * [`facts_as_filters`] — giving every fact a body that always holds
//!   (`a :- 0 = 0.`) changes no answer set, and the grounder must ground
//!   the rewritten program exactly as it grounds the original: the same
//!   rules, atom ids, definite facts and work counters.

use crate::gen::{map_program_preds, program_preds};
use crate::reference::Model;
use agenp_asp::{Atom, CmpOp, Literal, Program, Rule, Term};
use agenp_policy::{Cond, Effect, Policy, PolicyRule, Request};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Reorders the rules of `program` uniformly at random. Stable-model
/// semantics is order-free, so answer sets must not change.
pub fn permute_rules(program: &Program, rng: &mut StdRng) -> Program {
    let mut rules: Vec<Rule> = program.rules().to_vec();
    rules.shuffle(rng);
    let mut out: Program = rules.into_iter().collect();
    for w in program.weak_constraints() {
        out.push_weak(w.clone());
    }
    out
}

/// Bijectively renames every predicate (`p` → `mm_p`) and returns the
/// mapping. Answer sets of the renamed program are the original answer
/// sets mapped through [`rename_model`].
pub fn rename_predicates(program: &Program) -> (Program, Vec<(String, String)>) {
    let mapping: Vec<(String, String)> = program_preds(program)
        .into_iter()
        .map(|s| {
            let name = s.name();
            let renamed = format!("mm_{name}");
            (name, renamed)
        })
        .collect();
    let renamed = map_program_preds(program, |name| {
        mapping
            .iter()
            .find(|(old, _)| old == name)
            .map(|(_, new)| new.clone())
            .unwrap_or_else(|| name.to_owned())
    });
    (renamed, mapping)
}

/// Maps a reference model through a predicate renaming. Works on rendered
/// atom text: the predicate is everything before the first `(` (or the
/// whole string for propositional atoms).
pub fn rename_model(model: &Model, mapping: &[(String, String)]) -> Model {
    model
        .iter()
        .map(|atom| {
            let (pred, rest) = match atom.find('(') {
                Some(i) => (&atom[..i], &atom[i..]),
                None => (atom.as_str(), ""),
            };
            match mapping.iter().find(|(old, _)| old == pred) {
                Some((_, new)) => format!("{new}{rest}"),
                None => atom.clone(),
            }
        })
        .collect::<BTreeSet<String>>()
}

/// Inserts one to three inert rules at random positions: each is
/// `mm_deadK(X) :- mm_neverK(X).` over fresh predicates with no facts and
/// no other rules, so nothing is ever derived and every answer set is
/// unchanged atom-for-atom.
pub fn insert_inert_rules(program: &Program, rng: &mut StdRng) -> Program {
    let mut rules: Vec<Rule> = program.rules().to_vec();
    for k in 0..rng.gen_range(1..=3) {
        let head = Atom::new(format!("mm_dead{k}").as_str(), vec![Term::var("X")]);
        let body = vec![Literal::Pos(Atom::new(
            format!("mm_never{k}").as_str(),
            vec![Term::var("X")],
        ))];
        let at = rng.gen_range(0..=rules.len());
        rules.insert(at, Rule::new(head, body));
    }
    let mut out: Program = rules.into_iter().collect();
    for w in program.weak_constraints() {
        out.push_weak(w.clone());
    }
    out
}

/// Rewrites every fact `a.` ([`Rule::is_fact`]) as `a :- 0 = 0.`, in
/// place. The body is a filter that always holds, so the rule means the
/// same, but the grounder walks it where it merges a fact directly: the
/// rewritten program must ground exactly as the original does.
pub fn facts_as_filters(program: &Program) -> Program {
    let always = Literal::Cmp(CmpOp::Eq, Term::Int(0), Term::Int(0));
    let mut out: Program = program
        .rules()
        .iter()
        .map(|rule| match &rule.head {
            Some(head) if rule.is_fact() => Rule::new(head.clone(), vec![always.clone()]),
            _ => rule.clone(),
        })
        .collect();
    for w in program.weak_constraints() {
        out.push_weak(w.clone());
    }
    out
}

/// Reorders the policy list. Sound only under order-insensitive top-level
/// combining (deny-/permit-overrides).
pub fn permute_policies(policies: &[Policy], rng: &mut StdRng) -> Vec<Policy> {
    let mut out = policies.to_vec();
    out.shuffle(rng);
    out
}

/// Reorders the rules inside each policy. Sound only when every policy
/// uses an order-insensitive combining algorithm.
pub fn permute_policy_rules(policies: &[Policy], rng: &mut StdRng) -> Vec<Policy> {
    policies
        .iter()
        .map(|p| {
            let mut rules = p.rules.clone();
            rules.shuffle(rng);
            Policy {
                id: p.id.clone(),
                rules,
                combining: p.combining,
                obligations: p.obligations.clone(),
            }
        })
        .collect()
}

/// Inserts an inert rule into each policy at a random position: its
/// condition is the empty disjunction `Or([])`, which evaluates
/// definitely-false on every request, so the rule renders `NotApplicable`
/// and is the combining identity under **all** algorithms (including
/// `FirstApplicable`, which skips `NotApplicable` rules).
pub fn insert_inert_policy_rules(policies: &[Policy], rng: &mut StdRng) -> Vec<Policy> {
    policies
        .iter()
        .map(|p| {
            let mut rules = p.rules.clone();
            let effect = if rng.gen_bool(0.5) {
                Effect::Permit
            } else {
                Effect::Deny
            };
            let inert = PolicyRule::new(&format!("{}_inert", p.id), effect, Cond::Or(Vec::new()));
            let at = rng.gen_range(0..=rules.len());
            rules.insert(at, inert);
            Policy {
                id: p.id.clone(),
                rules,
                combining: p.combining,
                obligations: p.obligations.clone(),
            }
        })
        .collect()
}

/// Shuffles a request stream, returning the permuted stream together with
/// the permutation (`out[i] == requests[perm[i]]`) so decision vectors can
/// be compared element-for-element.
pub fn shuffle_requests(requests: &[Request], rng: &mut StdRng) -> (Vec<Request>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..requests.len()).collect();
    perm.shuffle(rng);
    let out = perm.iter().map(|&i| requests[i].clone()).collect();
    (out, perm)
}
