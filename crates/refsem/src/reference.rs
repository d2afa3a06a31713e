//! The slow-but-obviously-correct reference evaluator.
//!
//! Everything in this module trades speed for reviewability: full-universe
//! naive grounding by cartesian enumeration, a stratum-by-stratum
//! perfect-model fixpoint, stable models by brute-force subset enumeration
//! against the Gelfond–Lifschitz reduct, and a straight-line reimplementation
//! of the XACML decision pipeline. None of it shares indices, caches, or
//! evaluation order with the fast engines it cross-examines — ground atoms
//! are compared by their rendered text, models are plain `BTreeSet<String>`s.
//!
//! Scope: the generated fragment of [`crate::gen`] and of the grounder's
//! property tests — no arithmetic assignments (`Z = X + 1` can mint values
//! outside the constant universe, which full-universe enumeration would
//! miss). Weak constraints are grounded ([`naive_ground_weak`]) but take no
//! part in the model computations.

use agenp_asp::{Atom, Bindings, Literal, Program, Symbol, Term};
use agenp_policy::{
    CombiningAlg, Cond, Decision, DecisionEffects, Obligation, Policy, PolicyRule, Request,
};
use std::collections::{BTreeSet, HashMap};

/// A reference answer set: the rendered text of every ground atom in it.
pub type Model = BTreeSet<String>;

/// A ground rule in reference form: rendered head (None for a constraint),
/// positive body atoms, negative body atoms. Comparison literals are
/// resolved away during grounding.
#[derive(Clone, Debug)]
pub struct GroundRuleRef {
    /// Rendered head atom; `None` marks an integrity constraint.
    pub head: Option<String>,
    /// Predicate of the head, for stratum lookup.
    pub head_pred: Option<Symbol>,
    /// Rendered positive body atoms.
    pub pos: Vec<String>,
    /// Rendered negative body atoms.
    pub neg: Vec<String>,
}

/// A ground weak constraint in reference form: rendered body atoms, the
/// weight its term evaluates to, and its level.
#[derive(Clone, Debug)]
pub struct GroundWeakRef {
    /// Rendered positive body atoms.
    pub pos: Vec<String>,
    /// Rendered negative body atoms.
    pub neg: Vec<String>,
    /// The ground weight.
    pub weight: i64,
    /// The priority level.
    pub level: i64,
}

/// Every ground constant term appearing anywhere in the program's rules —
/// the Herbrand universe of the arithmetic-free fragment.
pub fn universe(program: &Program) -> Vec<Term> {
    let mut out: Vec<Term> = Vec::new();
    let mut push = |t: &Term| {
        if t.is_ground() && !out.contains(t) {
            out.push(t.clone());
        }
    };
    let mut push_term = |t: &Term| match t {
        Term::Int(_) | Term::Sym(_) => push(t),
        _ => {}
    };
    for rule in program.rules() {
        for atom in rule
            .head
            .iter()
            .chain(rule.body.iter().filter_map(|l| l.atom()))
        {
            for arg in &atom.args {
                push_term(arg);
            }
        }
        for lit in &rule.body {
            if let Literal::Cmp(_, l, r) = lit {
                push_term(l);
                push_term(r);
            }
        }
    }
    out
}

/// Naive grounding: instantiate every rule with every assignment of its
/// variables to the Herbrand universe, keep an instantiation only when all
/// of its comparison literals hold, and drop the (now satisfied) comparison
/// literals from the output.
pub fn naive_ground(program: &Program) -> Vec<GroundRuleRef> {
    let universe = universe(program);
    let mut out = Vec::new();
    for rule in program.rules() {
        for_each_assignment(&rule.vars(), &universe, |bindings| {
            let Some((pos, neg)) = instantiate_body(&rule.body, bindings) else {
                return;
            };
            let head = match &rule.head {
                Some(h) => match h.substitute(bindings) {
                    Some(ground) => Some(render(&ground)),
                    None => return,
                },
                None => None,
            };
            out.push(GroundRuleRef {
                head,
                head_pred: rule.head.as_ref().map(|h| h.pred),
                pos,
                neg,
            });
        });
    }
    out
}

/// [`naive_ground`] for the weak constraints: every assignment of a weak
/// constraint's variables to the universe whose comparison literals hold
/// and whose weight evaluates to an integer.
pub fn naive_ground_weak(program: &Program) -> Vec<GroundWeakRef> {
    let universe = universe(program);
    let mut out = Vec::new();
    for weak in program.weak_constraints() {
        for_each_assignment(&weak.vars(), &universe, |bindings| {
            let Some((pos, neg)) = instantiate_body(&weak.body, bindings) else {
                return;
            };
            if let Some(Term::Int(weight)) = weak.weight.substitute(bindings) {
                out.push(GroundWeakRef {
                    pos,
                    neg,
                    weight,
                    level: weak.level,
                });
            }
        });
    }
    out
}

/// Calls `visit` with every assignment of `vars` to `universe` values, by
/// odometer over `universe^|vars|`: once with no bindings when `vars` is
/// empty, never when variables have nothing to bind them.
fn for_each_assignment(vars: &[Symbol], universe: &[Term], mut visit: impl FnMut(&Bindings)) {
    if vars.is_empty() {
        visit(&Bindings::new());
        return;
    }
    if universe.is_empty() {
        return;
    }
    let mut indices = vec![0usize; vars.len()];
    loop {
        let bindings: Bindings = vars
            .iter()
            .zip(&indices)
            .map(|(v, &i)| (*v, universe[i].clone()))
            .collect();
        visit(&bindings);
        let mut k = 0;
        loop {
            indices[k] += 1;
            if indices[k] < universe.len() {
                break;
            }
            indices[k] = 0;
            k += 1;
            if k == indices.len() {
                return;
            }
        }
    }
}

/// One body instantiated under `bindings` as rendered (positive, negative)
/// atoms: `None` when a comparison literal fails (the instantiation is
/// inconsistent, not an error).
fn instantiate_body(body: &[Literal], bindings: &Bindings) -> Option<(Vec<String>, Vec<String>)> {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in body {
        match lit {
            Literal::Pos(a) => pos.push(render(&a.substitute(bindings)?)),
            Literal::Neg(a) => neg.push(render(&a.substitute(bindings)?)),
            Literal::Cmp(op, l, r) => {
                let l = l.substitute(bindings)?;
                let r = r.substitute(bindings)?;
                if !op.eval(&l, &r) {
                    return None;
                }
            }
        }
    }
    Some((pos, neg))
}

/// The least model of the positive relaxation of `ground`: negative
/// literals are assumed to hold and constraints are ignored. These are the
/// atoms the fast grounder's over-approximation derives.
pub fn positive_least_model(ground: &[GroundRuleRef]) -> Model {
    let mut model = Model::new();
    loop {
        let mut changed = false;
        for rule in ground {
            let Some(head) = &rule.head else { continue };
            if !model.contains(head) && rule.pos.iter().all(|a| model.contains(a)) {
                model.insert(head.clone());
                changed = true;
            }
        }
        if !changed {
            return model;
        }
    }
}

/// The rendered text of a ground atom — the reference currency for model
/// membership and cross-engine comparison.
pub fn render(atom: &Atom) -> String {
    atom.to_string()
}

/// Assigns each predicate its stratum: positive dependencies stay level or
/// rise, negative dependencies strictly rise. Returns `None` when the
/// program recurses through negation (no stratification exists).
pub fn stratify(program: &Program) -> Option<HashMap<Symbol, usize>> {
    let mut strata: HashMap<Symbol, usize> = HashMap::new();
    let mut preds = 0usize;
    for rule in program.rules() {
        for atom in rule
            .head
            .iter()
            .chain(rule.body.iter().filter_map(|l| l.atom()))
        {
            if strata.insert(atom.pred, 0).is_none() {
                preds += 1;
            }
        }
    }
    // Longest-path fixpoint; a stratum exceeding the predicate count means
    // a cycle through negation.
    loop {
        let mut changed = false;
        for rule in program.rules() {
            let Some(head) = &rule.head else { continue };
            let mut need = strata[&head.pred];
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => need = need.max(strata[&a.pred]),
                    Literal::Neg(a) => need = need.max(strata[&a.pred] + 1),
                    Literal::Cmp(..) => {}
                }
            }
            if need > preds {
                return None;
            }
            if need > strata[&head.pred] {
                strata.insert(head.pred, need);
                changed = true;
            }
        }
        if !changed {
            return Some(strata);
        }
    }
}

/// The stable models of a stratified program: the perfect model computed
/// stratum by stratum, then filtered by the integrity constraints. Returns
/// `None` when the program is not stratified (caller should fall back to
/// [`stable_models_bruteforce`]); `Some(vec![])` when a constraint
/// eliminates the perfect model.
pub fn stable_models_stratified(program: &Program) -> Option<Vec<Model>> {
    let strata = stratify(program)?;
    let ground = naive_ground(program);
    let max_stratum = strata.values().copied().max().unwrap_or(0);
    let mut model: Model = BTreeSet::new();
    for s in 0..=max_stratum {
        loop {
            let mut changed = false;
            for rule in &ground {
                let (Some(head), Some(pred)) = (&rule.head, rule.head_pred) else {
                    continue;
                };
                if strata[&pred] != s || model.contains(head) {
                    continue;
                }
                // Negative literals reference strictly lower strata, which
                // are already complete — membership in `model` is final.
                if rule.pos.iter().all(|a| model.contains(a))
                    && rule.neg.iter().all(|a| !model.contains(a))
                {
                    model.insert(head.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    for rule in &ground {
        if rule.head.is_none()
            && rule.pos.iter().all(|a| model.contains(a))
            && rule.neg.iter().all(|a| !model.contains(a))
        {
            return Some(Vec::new());
        }
    }
    Some(vec![model])
}

/// Stable models by brute force: facts are fixed in, every subset of the
/// remaining candidate heads is tested against the Gelfond–Lifschitz
/// criterion (the candidate must equal the least model of its own reduct).
/// Returns `None` when more than `max_extra` candidate atoms would make
/// enumeration explode — the caller then relies on the stratified path.
pub fn stable_models_bruteforce(program: &Program, max_extra: usize) -> Option<Vec<Model>> {
    let ground = naive_ground(program);
    let mut facts: Model = BTreeSet::new();
    for rule in &ground {
        if let (Some(head), true, true) = (&rule.head, rule.pos.is_empty(), rule.neg.is_empty()) {
            facts.insert(head.clone());
        }
    }
    let mut candidates: Vec<String> = Vec::new();
    for rule in &ground {
        if let Some(head) = &rule.head {
            if !facts.contains(head) && !candidates.contains(head) {
                candidates.push(head.clone());
            }
        }
    }
    if candidates.len() > max_extra {
        return None;
    }
    let mut models: Vec<Model> = Vec::new();
    for mask in 0u64..(1u64 << candidates.len()) {
        let mut m = facts.clone();
        for (i, c) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                m.insert(c.clone());
            }
        }
        if is_stable(&ground, &m) {
            models.push(m);
        }
    }
    models.sort();
    models.dedup();
    Some(models)
}

/// The Gelfond–Lifschitz check: `m` is stable iff it equals the least model
/// of the reduct (rules whose negative body is disjoint from `m`, negatives
/// dropped) and violates no constraint.
fn is_stable(ground: &[GroundRuleRef], m: &Model) -> bool {
    let mut least: Model = BTreeSet::new();
    loop {
        let mut changed = false;
        for rule in ground {
            let Some(head) = &rule.head else { continue };
            if least.contains(head) {
                continue;
            }
            if rule.neg.iter().all(|a| !m.contains(a)) && rule.pos.iter().all(|a| least.contains(a))
            {
                least.insert(head.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if &least != m {
        return false;
    }
    for rule in ground {
        if rule.head.is_none()
            && rule.pos.iter().all(|a| m.contains(a))
            && rule.neg.iter().all(|a| !m.contains(a))
        {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Reference PDP
// ---------------------------------------------------------------------------

/// Three-valued condition evaluation, restated order-insensitively: a
/// conjunction is false if any conjunct is definitely false, unknown if any
/// is unknown, true otherwise; disjunction dually. `None` is unknown
/// (missing attribute or type-mismatched comparison).
pub fn eval_cond(cond: &Cond, request: &Request) -> Option<bool> {
    match cond {
        Cond::Cmp {
            category,
            attr,
            op,
            value,
        } => {
            use agenp_policy::{AttrValue, CondOp};
            let actual = request.get(*category, attr)?;
            let ord = match (actual, value) {
                (AttrValue::Int(a), AttrValue::Int(b)) => a.cmp(b),
                (AttrValue::Str(a), AttrValue::Str(b)) => a.cmp(b),
                (AttrValue::Bool(a), AttrValue::Bool(b)) => a.cmp(b),
                _ => return None,
            };
            Some(match op {
                CondOp::Eq => ord.is_eq(),
                CondOp::Ne => ord.is_ne(),
                CondOp::Lt => ord.is_lt(),
                CondOp::Le => ord.is_le(),
                CondOp::Gt => ord.is_gt(),
                CondOp::Ge => ord.is_ge(),
            })
        }
        Cond::In {
            category,
            attr,
            values,
        } => Some(values.contains(request.get(*category, attr)?)),
        Cond::And(cs) => {
            let parts: Vec<Option<bool>> = cs.iter().map(|c| eval_cond(c, request)).collect();
            if parts.contains(&Some(false)) {
                Some(false)
            } else if parts.iter().any(|p| p.is_none()) {
                None
            } else {
                Some(true)
            }
        }
        Cond::Or(cs) => {
            let parts: Vec<Option<bool>> = cs.iter().map(|c| eval_cond(c, request)).collect();
            if parts.contains(&Some(true)) {
                Some(true)
            } else if parts.iter().any(|p| p.is_none()) {
                None
            } else {
                Some(false)
            }
        }
        Cond::Not(c) => eval_cond(c, request).map(|b| !b),
    }
}

/// Reference rule evaluation: effect when the condition holds,
/// `NotApplicable` when it definitely does not, `Indeterminate` on unknown.
pub fn eval_rule(rule: &PolicyRule, request: &Request) -> Decision {
    match &rule.condition {
        None => rule.effect.into(),
        Some(c) => match eval_cond(c, request) {
            Some(true) => rule.effect.into(),
            Some(false) => Decision::NotApplicable,
            None => Decision::Indeterminate,
        },
    }
}

/// Reference combining, written over a materialized decision list.
/// `FirstApplicable` returns the earliest `Permit`/`Deny` even when an
/// `Indeterminate` precedes it — matching the XACML-style semantics of the
/// fast path.
pub fn combine(alg: CombiningAlg, decisions: &[Decision]) -> Decision {
    match alg {
        CombiningAlg::DenyOverrides => {
            if decisions.contains(&Decision::Deny) {
                Decision::Deny
            } else if decisions.contains(&Decision::Indeterminate) {
                Decision::Indeterminate
            } else if decisions.contains(&Decision::Permit) {
                Decision::Permit
            } else {
                Decision::NotApplicable
            }
        }
        CombiningAlg::PermitOverrides => {
            if decisions.contains(&Decision::Permit) {
                Decision::Permit
            } else if decisions.contains(&Decision::Indeterminate) {
                Decision::Indeterminate
            } else if decisions.contains(&Decision::Deny) {
                Decision::Deny
            } else {
                Decision::NotApplicable
            }
        }
        CombiningAlg::FirstApplicable => {
            for d in decisions {
                if matches!(d, Decision::Permit | Decision::Deny) {
                    return *d;
                }
            }
            if decisions.contains(&Decision::Indeterminate) {
                Decision::Indeterminate
            } else {
                Decision::NotApplicable
            }
        }
    }
}

/// The straight-line reference PDP: evaluate every rule of every policy,
/// combine per policy, combine across policies. No caches, no snapshots,
/// no early exits beyond what the combining semantics require.
pub fn decide_reference(
    policies: &[Policy],
    combining_alg: CombiningAlg,
    request: &Request,
) -> Decision {
    let per_policy: Vec<Decision> = policies
        .iter()
        .map(|p| {
            let rule_decisions: Vec<Decision> =
                p.rules.iter().map(|r| eval_rule(r, request)).collect();
            combine(p.combining, &rule_decisions)
        })
        .collect();
    combine(combining_alg, &per_policy)
}

/// The straight-line reference for obligation/penalty collection — the
/// semantics of `agenp_policy::evaluate_policies_effects` restated over
/// the reference primitives ([`eval_rule`], [`combine`]), sharing no code
/// with the fast path and taking none of its shortcuts (no
/// annotation-free fast-skip):
///
/// 1. The decision is exactly [`decide_reference`]; obligations never
///    change it. Indefinite decisions carry nothing.
/// 2. A policy contributes iff combining its materialized rule decisions
///    yields the final decision; within a contributing policy a rule
///    contributes iff its own reference evaluation equals the final
///    decision.
/// 3. Walk policies in order, policy-level specs before that policy's
///    contributing rules' specs (rule order), keeping specs whose `on`
///    effect matches the final effect, deduplicated by obligation id with
///    the first occurrence winning.
/// 4. The penalty is the maximum annotation over contributing `Deny`
///    rules; zero for any non-`Deny` decision.
pub fn effects_reference(
    policies: &[Policy],
    combining_alg: CombiningAlg,
    request: &Request,
) -> DecisionEffects {
    let decision = decide_reference(policies, combining_alg, request);
    let mut effects = DecisionEffects::bare(decision);
    let Some(final_effect) = decision.effect() else {
        return effects;
    };
    for policy in policies {
        let rule_decisions: Vec<Decision> =
            policy.rules.iter().map(|r| eval_rule(r, request)).collect();
        if combine(policy.combining, &rule_decisions) != decision {
            continue;
        }
        for spec in &policy.obligations {
            if spec.on == final_effect {
                push_unique(&mut effects.obligations, &spec.obligation);
            }
        }
        for (rule, rule_decision) in policy.rules.iter().zip(&rule_decisions) {
            if *rule_decision != decision {
                continue;
            }
            for spec in &rule.obligations {
                if spec.on == final_effect {
                    push_unique(&mut effects.obligations, &spec.obligation);
                }
            }
            if decision == Decision::Deny {
                if let Some(p) = rule.penalty {
                    effects.penalty = effects.penalty.max(p);
                }
            }
        }
    }
    effects
}

/// First-occurrence-wins id dedup for obligation collection.
fn push_unique(out: &mut Vec<Obligation>, ob: &Obligation) {
    if !out.iter().any(|o| o.id == ob.id) {
        out.push(ob.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Program {
        text.parse().expect("test program parses")
    }

    #[test]
    fn stratified_reference_computes_the_perfect_model() {
        let p = parse(
            "edge(a, b). edge(b, c).
             path(X, Y) :- edge(X, Y).
             path(X, Z) :- edge(X, Y), path(Y, Z).
             unreachable(X) :- edge(X, X), not path(a, X).",
        );
        let models = stable_models_stratified(&p).expect("stratified");
        assert_eq!(models.len(), 1);
        let m = &models[0];
        assert!(m.contains("path(a, c)"));
        assert!(!m.iter().any(|a| a.starts_with("unreachable")));
    }

    #[test]
    fn constraints_can_eliminate_the_perfect_model() {
        let p = parse("q(a). r(X) :- q(X). :- r(a).");
        assert_eq!(stable_models_stratified(&p), Some(vec![]));
    }

    #[test]
    fn bruteforce_handles_non_stratified_choice_programs() {
        // Even/odd choice: two stable models — beyond the stratified
        // evaluator (which must refuse), squarely in brute-force territory.
        let p = parse(
            "item(a).
             chosen(X) :- item(X), not other(X).
             other(X) :- item(X), not chosen(X).",
        );
        assert_eq!(stratify(&p), None);
        let models = stable_models_bruteforce(&p, 10).expect("small candidate set");
        assert_eq!(models.len(), 2);
        assert!(models.iter().any(|m| m.contains("chosen(a)")));
        assert!(models.iter().any(|m| m.contains("other(a)")));
    }

    #[test]
    fn bruteforce_declines_oversized_candidate_sets() {
        let p = parse(
            "n(a). n(b). n(c).
             q(X, Y) :- n(X), n(Y), not r(X, Y).
             r(X, Y) :- n(X), n(Y), not q(X, Y).",
        );
        assert_eq!(stable_models_bruteforce(&p, 4), None);
    }

    #[test]
    fn bruteforce_engages_on_generated_programs() {
        // The differential suite's second reference must not be dead code:
        // a healthy share of generated programs fit the candidate budget.
        let engaged = (0..64u64)
            .filter(|&seed| {
                let mut rng = crate::gen::rng_for(seed);
                let p = crate::gen::stratified_program(&mut rng);
                stable_models_bruteforce(&p, 10).is_some()
            })
            .count();
        assert!(
            engaged >= 16,
            "brute force engaged on only {engaged}/64 seeds"
        );
    }

    #[test]
    fn effects_reference_dedups_first_wins_and_takes_the_max_penalty() {
        use agenp_policy::{Category, Effect};
        let req = Request::new().subject("role", "dba");
        let deny = |id: &str, deadline: u64, penalty: u32| {
            PolicyRule::new(id, Effect::Deny, Cond::eq(Category::Subject, "role", "dba"))
                .with_obligation(
                    Effect::Deny,
                    Obligation::new("audit", "audit-log", deadline),
                )
                .with_penalty(penalty)
        };
        let p = Policy::new("p", vec![deny("r0", 5, 2), deny("r1", 9, 7)]);
        let fx = effects_reference(&[p], CombiningAlg::DenyOverrides, &req);
        assert_eq!(fx.decision, Decision::Deny);
        // Both rules contribute the same obligation id: the first wins,
        // so the deadline is r0's, while the penalty is the max of both.
        assert_eq!(
            fx.obligations,
            vec![Obligation::new("audit", "audit-log", 5)]
        );
        assert_eq!(fx.penalty, 7);
    }

    #[test]
    fn effects_reference_matches_the_fast_evaluator_on_generated_sets() {
        for seed in 0..96u64 {
            let mut rng = crate::gen::rng_for(seed);
            let (policies, combining) = crate::gen::policy_set(&mut rng);
            for request in crate::gen::request_stream(&mut rng, 6) {
                let reference = effects_reference(&policies, combining, &request);
                let fast = agenp_policy::evaluate_policies_effects(&policies, combining, &request);
                assert_eq!(
                    reference,
                    fast,
                    "seed={seed} key={}",
                    request.canonical_key()
                );
            }
        }
    }

    #[test]
    fn reference_pdp_matches_the_three_valued_corner_cases() {
        use agenp_policy::{Category, Effect};
        // Empty disjunction: definitely false, so NotApplicable.
        let rule = PolicyRule::new("r", Effect::Permit, Cond::Or(Vec::new()));
        assert_eq!(eval_rule(&rule, &Request::new()), Decision::NotApplicable);
        // Missing attribute: unknown, so Indeterminate.
        let rule = PolicyRule::new(
            "r",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "dba"),
        );
        assert_eq!(eval_rule(&rule, &Request::new()), Decision::Indeterminate);
        // FirstApplicable returns the first Permit/Deny even after an
        // Indeterminate.
        assert_eq!(
            combine(
                CombiningAlg::FirstApplicable,
                &[Decision::Indeterminate, Decision::Deny]
            ),
            Decision::Deny
        );
    }
}
