//! Seeded generators for programs, grammars, policies, and request streams.
//!
//! Everything here draws from the deterministic offline `rand` shim, so one
//! `u64` seed pins a whole case. The generators are deliberately *small and
//! safe by construction*:
//!
//! * ASP programs are **safe** (every variable is bound by a positive body
//!   atom) and **stratified** (no recursion through negation), with no
//!   arithmetic assignments — so the naive full-universe reference grounder
//!   in [`crate::reference`] is complete for them, and a stratified program
//!   has at most one answer set for the perfect-model fixpoint to find.
//! * Universes stay tiny (two or three constants, a handful of predicates of
//!   arity ≤ 2) so brute-force stable-model enumeration stays feasible.
//! * Policy conditions cover every [`Cond`] constructor, including the
//!   three-valued `Indeterminate` paths (missing attributes, type-mismatched
//!   comparisons), and request streams contain deliberate duplicates to
//!   exercise repeated requests through every path of the serving tier.

use agenp_asp::{Atom, CmpOp, Literal, Program, Rule, Symbol, Term};
use agenp_grammar::{nt, t, Asg, CfgBuilder};
use agenp_policy::{
    AttrValue, Category, CombiningAlg, Cond, CondOp, Effect, Obligation, Policy, PolicyRule,
    Request,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator RNG for `seed`. All case runners derive their randomness
/// from this single stream, so the seed alone reproduces a case.
pub fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Constant pool for generated programs.
const CONSTS: [&str; 3] = ["a", "b", "c"];
/// Variable pool for generated rules.
const VARS: [&str; 2] = ["X", "Y"];

/// A predicate in a generated program: name, arity, and the stratum the
/// generator assigned it (negation only ever points *down* strata).
#[derive(Clone, Debug)]
struct PredSpec {
    name: String,
    arity: usize,
    stratum: usize,
}

/// Generates a safe stratified ASP program: facts, (possibly recursive)
/// positive rules, stratified negation, comparison builtins, and an
/// occasional integrity constraint. Never generates arithmetic assignments,
/// so the program's Herbrand universe is exactly its constants.
pub fn stratified_program(rng: &mut StdRng) -> Program {
    let n_consts = rng.gen_range(2..=CONSTS.len());
    let consts = &CONSTS[..n_consts];
    let n_preds = rng.gen_range(3..=6);
    let mut preds: Vec<PredSpec> = (0..n_preds)
        .map(|i| PredSpec {
            name: format!("p{i}"),
            arity: rng.gen_range(0..=2),
            stratum: rng.gen_range(0..=2),
        })
        .collect();
    // Guarantee at least one arity-1 stratum-0 predicate so every rule can
    // find a positive binder for its variables.
    preds[0] = PredSpec {
        name: "p0".to_owned(),
        arity: 1,
        stratum: 0,
    };

    let mut program = Program::new();
    for _ in 0..rng.gen_range(1..=5) {
        let p = &preds[rng.gen_range(0..preds.len())];
        program.push(Rule::fact(ground_atom(rng, p, consts)));
    }
    let n_rules = rng.gen_range(1..=5);
    let mut made = 0;
    let mut attempts = 0;
    while made < n_rules && attempts < n_rules * 4 {
        attempts += 1;
        if let Some(rule) = gen_rule(rng, &preds, consts) {
            program.push(rule);
            made += 1;
        }
    }
    if rng.gen_bool(0.4) {
        if let Some(c) = gen_constraint(rng, &preds, consts) {
            program.push(c);
        }
    }
    debug_assert!(
        program.unsafe_rule().is_none(),
        "generator emitted an unsafe rule"
    );
    program
}

/// A random ground atom for `p` over `consts`.
fn ground_atom(rng: &mut StdRng, p: &PredSpec, consts: &[&str]) -> Atom {
    let args = (0..p.arity)
        .map(|_| Term::sym(consts[rng.gen_range(0..consts.len())]))
        .collect();
    Atom::new(p.name.as_str(), args)
}

/// A body-literal argument: an already-bound variable or a constant.
fn bound_arg(rng: &mut StdRng, bound: &[&'static str], consts: &[&str]) -> Term {
    if !bound.is_empty() && rng.gen_bool(0.5) {
        Term::var(bound[rng.gen_range(0..bound.len())])
    } else {
        Term::sym(consts[rng.gen_range(0..consts.len())])
    }
}

/// A positive atom that *binds* `var`: `var` sits in one argument slot, the
/// rest are filled from already-bound variables and constants.
fn binder_atom(
    rng: &mut StdRng,
    q: &PredSpec,
    var: &'static str,
    bound: &[&'static str],
    consts: &[&str],
) -> Atom {
    let slot = rng.gen_range(0..q.arity);
    let args = (0..q.arity)
        .map(|i| {
            if i == slot {
                Term::var(var)
            } else {
                bound_arg(rng, bound, consts)
            }
        })
        .collect();
    Atom::new(q.name.as_str(), args)
}

/// A random rule with head stratum ≥ positive body strata and head
/// stratum strictly above negative body strata. Returns `None` when no
/// eligible binder or negated predicate exists for the shape the dice
/// picked.
fn gen_rule(rng: &mut StdRng, preds: &[PredSpec], consts: &[&str]) -> Option<Rule> {
    let head_pred = &preds[rng.gen_range(0..preds.len())];
    let mut head_vars: Vec<&'static str> = Vec::new();
    let head_args: Vec<Term> = (0..head_pred.arity)
        .map(|_| {
            if rng.gen_bool(0.7) {
                let v = VARS[rng.gen_range(0..VARS.len())];
                if !head_vars.contains(&v) {
                    head_vars.push(v);
                }
                Term::var(v)
            } else {
                Term::sym(consts[rng.gen_range(0..consts.len())])
            }
        })
        .collect();
    let head = Atom::new(head_pred.name.as_str(), head_args);

    let mut body: Vec<Literal> = Vec::new();
    let mut bound: Vec<&'static str> = Vec::new();
    // One positive binder per head variable keeps the rule safe.
    for v in &head_vars {
        let q = pick_pred(rng, preds, |q| {
            q.arity >= 1 && q.stratum <= head_pred.stratum
        })?;
        body.push(Literal::Pos(binder_atom(rng, q, v, &bound, consts)));
        bound.push(v);
    }
    // Extra positive literals: same or lower stratum, only bound variables.
    for _ in 0..rng.gen_range(0..=2) {
        if let Some(q) = pick_pred(rng, preds, |q| q.stratum <= head_pred.stratum) {
            let args = (0..q.arity)
                .map(|_| bound_arg(rng, &bound, consts))
                .collect();
            body.push(Literal::Pos(Atom::new(q.name.as_str(), args)));
        }
    }
    // A comparison over bound terms (never an assignment: both sides are
    // ground after substitution).
    if !bound.is_empty() && rng.gen_bool(0.3) {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        body.push(Literal::Cmp(
            ops[rng.gen_range(0..ops.len())],
            Term::var(bound[rng.gen_range(0..bound.len())]),
            bound_arg(rng, &bound, consts),
        ));
    }
    // Stratified negation: the negated predicate lives strictly below.
    if head_pred.stratum >= 1 && rng.gen_bool(0.5) {
        if let Some(q) = pick_pred(rng, preds, |q| q.stratum < head_pred.stratum) {
            let args = (0..q.arity)
                .map(|_| bound_arg(rng, &bound, consts))
                .collect();
            body.push(Literal::Neg(Atom::new(q.name.as_str(), args)));
        }
    }
    Some(if body.is_empty() && head.is_ground() {
        Rule::fact(head)
    } else if body.is_empty() {
        return None; // an unbound non-ground head cannot happen, but be safe
    } else {
        Rule::new(head, body)
    })
}

/// A random integrity constraint. Negative literals are fine here: a
/// constraint derives nothing, so it cannot break stratification.
fn gen_constraint(rng: &mut StdRng, preds: &[PredSpec], consts: &[&str]) -> Option<Rule> {
    let mut body: Vec<Literal> = Vec::new();
    let mut bound: Vec<&'static str> = Vec::new();
    let q = pick_pred(rng, preds, |q| q.arity >= 1)?;
    let v = VARS[0];
    body.push(Literal::Pos(binder_atom(rng, q, v, &bound, consts)));
    bound.push(v);
    if rng.gen_bool(0.5) {
        let q = pick_pred(rng, preds, |_| true)?;
        let args = (0..q.arity)
            .map(|_| bound_arg(rng, &bound, consts))
            .collect();
        let atom = Atom::new(q.name.as_str(), args);
        body.push(if rng.gen_bool(0.5) {
            Literal::Pos(atom)
        } else {
            Literal::Neg(atom)
        });
    }
    Some(Rule::constraint(body))
}

/// A uniformly random predicate satisfying `ok`, or `None` if none does.
fn pick_pred<'a>(
    rng: &mut StdRng,
    preds: &'a [PredSpec],
    ok: impl Fn(&PredSpec) -> bool,
) -> Option<&'a PredSpec> {
    let eligible: Vec<&PredSpec> = preds.iter().filter(|p| ok(p)).collect();
    if eligible.is_empty() {
        None
    } else {
        Some(eligible[rng.gen_range(0..eligible.len())])
    }
}

/// Renames every predicate in `program` through `map` (predicate name →
/// new name), preserving structure. Names absent from the map pass through.
pub(crate) fn map_program_preds(program: &Program, map: impl Fn(&str) -> String) -> Program {
    let map_atom = |a: &Atom| -> Atom {
        Atom::new(map(&a.pred.name()).as_str(), a.args.clone()).with_trace(a.trace.clone())
    };
    let mut out = Program::new();
    for rule in program.rules() {
        let head = rule.head.as_ref().map(&map_atom);
        let body = rule
            .body
            .iter()
            .map(|l| match l {
                Literal::Pos(a) => Literal::Pos(map_atom(a)),
                Literal::Neg(a) => Literal::Neg(map_atom(a)),
                Literal::Cmp(op, l, r) => Literal::Cmp(*op, l.clone(), r.clone()),
            })
            .collect();
        out.push(Rule { head, body });
    }
    for w in program.weak_constraints() {
        out.push_weak(w.clone());
    }
    out
}

/// The set of predicate names appearing anywhere in `program`.
pub(crate) fn program_preds(program: &Program) -> Vec<Symbol> {
    let mut out: Vec<Symbol> = Vec::new();
    let mut push = |s: Symbol| {
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for rule in program.rules() {
        if let Some(h) = &rule.head {
            push(h.pred);
        }
        for l in &rule.body {
            if let Some(a) = l.atom() {
                push(a.pred);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Policies and requests
// ---------------------------------------------------------------------------

/// Attribute-name vocabulary for generated conditions and requests.
const ATTRS: [&str; 3] = ["role", "level", "zone"];
/// String-value vocabulary.
const STRS: [&str; 3] = ["alpha", "beta", "gamma"];

/// A random attribute value: a small string, a small integer, or a bool.
/// The pools deliberately overlap in spirit (`"3"` vs `3`) so type-mismatch
/// `Indeterminate` paths get exercised.
pub fn attr_value(rng: &mut StdRng) -> AttrValue {
    match rng.gen_range(0..3) {
        0 => AttrValue::Str(STRS[rng.gen_range(0..STRS.len())].to_owned()),
        1 => AttrValue::Int(rng.gen_range(0..4)),
        _ => AttrValue::Bool(rng.gen_bool(0.5)),
    }
}

/// A random request with one to four attributes.
pub fn request(rng: &mut StdRng) -> Request {
    let mut req = Request::new();
    for _ in 0..rng.gen_range(1..=4) {
        let cat = Category::ALL[rng.gen_range(0..Category::ALL.len())];
        let name = ATTRS[rng.gen_range(0..ATTRS.len())];
        let value = attr_value(rng);
        req.set(cat, name, value);
    }
    req
}

/// A request stream with deliberate duplicates: roughly a third of the
/// entries repeat an earlier request, inside one batch and across calls.
pub fn request_stream(rng: &mut StdRng, len: usize) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::with_capacity(len);
    for _ in 0..len {
        if !out.is_empty() && rng.gen_bool(0.35) {
            let i = rng.gen_range(0..out.len());
            out.push(out[i].clone());
        } else {
            out.push(request(rng));
        }
    }
    out
}

/// A random condition tree of bounded depth covering every constructor.
pub fn cond(rng: &mut StdRng, depth: usize) -> Cond {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        let cat = Category::ALL[rng.gen_range(0..Category::ALL.len())];
        let attr = ATTRS[rng.gen_range(0..ATTRS.len())];
        if rng.gen_bool(0.3) {
            let values = (0..rng.gen_range(1..=3)).map(|_| attr_value(rng)).collect();
            Cond::In {
                category: cat,
                attr: attr.to_owned(),
                values,
            }
        } else {
            let ops = [
                CondOp::Eq,
                CondOp::Ne,
                CondOp::Lt,
                CondOp::Le,
                CondOp::Gt,
                CondOp::Ge,
            ];
            Cond::cmp(cat, attr, ops[rng.gen_range(0..ops.len())], attr_value(rng))
        }
    } else {
        match rng.gen_range(0..3) {
            0 => Cond::And(
                (0..rng.gen_range(1..=3))
                    .map(|_| cond(rng, depth - 1))
                    .collect(),
            ),
            1 => Cond::Or(
                (0..rng.gen_range(1..=3))
                    .map(|_| cond(rng, depth - 1))
                    .collect(),
            ),
            _ => Cond::Not(Box::new(cond(rng, depth - 1))),
        }
    }
}

/// A random combining algorithm (all three).
pub fn combining(rng: &mut StdRng) -> CombiningAlg {
    match rng.gen_range(0..3) {
        0 => CombiningAlg::DenyOverrides,
        1 => CombiningAlg::PermitOverrides,
        _ => CombiningAlg::FirstApplicable,
    }
}

/// A random order-insensitive combining algorithm (excludes
/// `FirstApplicable`, whose result depends on rule order — the
/// rule-permutation metamorphic transform is only sound without it).
pub fn order_insensitive_combining(rng: &mut StdRng) -> CombiningAlg {
    if rng.gen_bool(0.5) {
        CombiningAlg::DenyOverrides
    } else {
        CombiningAlg::PermitOverrides
    }
}

/// Obligation-id pool — deliberately tiny so generated policy sets reuse
/// ids across rules and policies, exercising first-occurrence-wins
/// deduplication in the collection semantics.
const OBLIGATION_IDS: [&str; 3] = ["ob-audit", "ob-notify", "ob-log"];

/// A random effect.
pub fn effect(rng: &mut StdRng) -> Effect {
    if rng.gen_bool(0.5) {
        Effect::Permit
    } else {
        Effect::Deny
    }
}

/// A random obligation from the small id pool. Deadlines and penalty
/// payloads vary per draw, so when two specs share an id the dedup winner
/// is observable in the collected obligation's fields.
pub fn obligation(rng: &mut StdRng) -> Obligation {
    let id = OBLIGATION_IDS[rng.gen_range(0..OBLIGATION_IDS.len())];
    let ob = Obligation::new(id, &format!("{id}-act"), rng.gen_range(1..=16u64));
    if rng.gen_bool(0.5) {
        ob.with_penalty(rng.gen_range(1..=4u32))
    } else {
        ob
    }
}

/// A random policy with `alg` combining and one to three rules (one may be
/// unconditional). Roughly a third of rules carry obligation specs — whose
/// `on` effect may deliberately disagree with the rule's own effect, so the
/// fulfill-on filter is exercised — a quarter carry penalty annotations
/// (surfacing only on contributing `Deny` rules), and a fifth of policies
/// carry a policy-level obligation.
fn policy(rng: &mut StdRng, id: usize, alg: CombiningAlg) -> Policy {
    let rules = (0..rng.gen_range(1..=3))
        .map(|j| {
            let id = format!("r{id}_{j}");
            let effect = if rng.gen_bool(0.5) {
                Effect::Permit
            } else {
                Effect::Deny
            };
            let mut rule = if rng.gen_bool(0.15) {
                PolicyRule::unconditional(&id, effect)
            } else {
                PolicyRule::new(&id, effect, cond(rng, 2))
            };
            if rng.gen_bool(0.3) {
                rule = rule.with_obligation(self::effect(rng), obligation(rng));
                if rng.gen_bool(0.3) {
                    rule = rule.with_obligation(self::effect(rng), obligation(rng));
                }
            }
            if rng.gen_bool(0.25) {
                rule = rule.with_penalty(rng.gen_range(1..=9u32));
            }
            rule
        })
        .collect();
    let mut policy = Policy::new(&format!("pol{id}"), rules).with_combining(alg);
    if rng.gen_bool(0.2) {
        policy = policy.with_obligation(effect(rng), obligation(rng));
    }
    policy
}

/// A random policy set: one to three policies plus the top-level combining
/// algorithm, with all algorithms (including order-sensitive
/// `FirstApplicable`) in play.
pub fn policy_set(rng: &mut StdRng) -> (Vec<Policy>, CombiningAlg) {
    let top = combining(rng);
    let policies = (0..rng.gen_range(1..=3))
        .map(|i| {
            let alg = combining(rng);
            policy(rng, i, alg)
        })
        .collect();
    (policies, top)
}

/// A random policy set restricted to order-insensitive combining at every
/// level, for the rule/policy-permutation metamorphic oracles.
pub fn order_insensitive_policy_set(rng: &mut StdRng) -> (Vec<Policy>, CombiningAlg) {
    let top = order_insensitive_combining(rng);
    let policies = (0..rng.gen_range(1..=3))
        .map(|i| {
            let alg = order_insensitive_combining(rng);
            policy(rng, i, alg)
        })
        .collect();
    (policies, top)
}

// ---------------------------------------------------------------------------
// Answer set grammars
// ---------------------------------------------------------------------------

/// A random right-linear grammar over the tokens `a`/`b`, kept alongside a
/// transition-table view so membership can be decided by plain NFA
/// simulation — the reference against which the Earley-plus-ASP membership
/// pipeline ([`Asg::accepts`]) is differentially tested.
#[derive(Clone, Debug)]
pub struct LinearGrammar {
    /// Productions `(lhs, token, continuation)`: `A -> tok` when the
    /// continuation is `None`, `A -> tok B` when it is `Some(B)`.
    pub prods: Vec<(usize, &'static str, Option<usize>)>,
    /// Number of nonterminals (`0` is the start symbol).
    pub n_nts: usize,
}

/// Tokens for generated right-linear grammars.
const TOKENS: [&str; 2] = ["a", "b"];

/// Generates a random right-linear grammar with two or three nonterminals,
/// each carrying one to three productions.
pub fn linear_grammar(rng: &mut StdRng) -> LinearGrammar {
    let n_nts = rng.gen_range(2..=3);
    let mut prods = Vec::new();
    for lhs in 0..n_nts {
        for _ in 0..rng.gen_range(1..=3) {
            let tok = TOKENS[rng.gen_range(0..TOKENS.len())];
            let cont = if rng.gen_bool(0.6) {
                Some(rng.gen_range(0..n_nts))
            } else {
                None
            };
            prods.push((lhs, tok, cont));
        }
    }
    LinearGrammar { prods, n_nts }
}

impl LinearGrammar {
    /// Builds the equivalent [`Asg`] (with empty annotations) through the
    /// production CFG builder.
    pub fn to_asg(&self) -> Asg {
        let mut b = CfgBuilder::new();
        b.start("n0");
        for &(lhs, tok, cont) in &self.prods {
            let lhs = format!("n{lhs}");
            let rhs = match cont {
                Some(c) => vec![t(tok), nt(&format!("n{c}"))],
                None => vec![t(tok)],
            };
            b.production(&lhs, rhs);
        }
        Asg::from_cfg(b.build().expect("every generated nonterminal is defined"))
    }

    /// Reference membership by NFA simulation: states are nonterminals, a
    /// terminal-only production accepts on the final token. The empty string
    /// is never in the language (every production consumes a token).
    pub fn accepts_ref(&self, tokens: &[&str]) -> bool {
        if tokens.is_empty() {
            return false;
        }
        let mut states: Vec<bool> = vec![false; self.n_nts];
        states[0] = true;
        for (i, tok) in tokens.iter().enumerate() {
            let last = i + 1 == tokens.len();
            let mut next = vec![false; self.n_nts];
            for &(lhs, ptok, cont) in &self.prods {
                if !states[lhs] || ptok != *tok {
                    continue;
                }
                match cont {
                    None if last => return true,
                    Some(c) => next[c] = true,
                    None => {}
                }
            }
            states = next;
            if !states.iter().any(|&s| s) {
                return false;
            }
        }
        false
    }
}

/// All token strings over `a`/`b` of length `0..=max_len`, as
/// space-separated text ready for [`Asg::accepts`].
pub fn all_strings(max_len: usize) -> Vec<Vec<&'static str>> {
    let mut out: Vec<Vec<&'static str>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<&'static str>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for s in &frontier {
            for tok in TOKENS {
                let mut ext = s.clone();
                ext.push(tok);
                out.push(ext.clone());
                next.push(ext);
            }
        }
        frontier = next;
    }
    out
}
