//! Seeded differential case runners.
//!
//! Each `run_*_case(seed)` function regenerates its whole case from the
//! seed, runs the fast engine and the reference side by side, and returns
//! `Err` with a message that **leads with the seed** — the one-line repro
//! contract: paste the seed back into the same function to replay the
//! failure. The `tests/` suites and the `fuzz` bench binary both drive
//! these runners; nothing else needs to know how a case is built.

use crate::gen;
use crate::metamorphic;
use crate::reference::{self, Model};
use crate::shrink;
use agenp_asp::{Program, Rule, Solver};
use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_policy::{CombiningAlg, DecisionEffects, Policy, Request};
use std::collections::BTreeSet;

/// Brute-force budget: at most this many non-fact candidate atoms before
/// the subset enumeration (2^n Gelfond–Lifschitz checks) is skipped.
const BRUTE_FORCE_MAX_EXTRA: usize = 10;

/// The fast engine's answer sets in reference form: each model a sorted set
/// of rendered atoms, the list of models itself sorted.
pub fn fast_models(program: &Program) -> Result<Vec<Model>, String> {
    let result = Solver::new()
        .solve_program(program)
        .map_err(|e| format!("fast engine failed to ground: {e:?}"))?;
    if !result.complete() {
        return Err("fast engine did not complete enumeration".to_owned());
    }
    let mut models: Vec<Model> = result
        .models()
        .iter()
        .map(|m| {
            m.atoms()
                .iter()
                .map(reference::render)
                .collect::<BTreeSet<String>>()
        })
        .collect();
    models.sort();
    Ok(models)
}

/// Differential ASP case: generated stratified program, fast
/// grounder+solver vs the stratified perfect-model reference, and (when
/// the candidate space is small enough) vs brute-force stable-model
/// enumeration as a second, independent reference.
pub fn run_asp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| format!("seed={seed} kind=asp: {msg} (repro: run_asp_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let program = gen::stratified_program(&mut rng);
    let fast = fast_models(&program).map_err(&ctx)?;
    let reference = reference::stable_models_stratified(&program)
        .ok_or_else(|| ctx("generated program is not stratified".to_owned()))?;
    if fast != reference {
        return Err(ctx(format!(
            "fast {fast:?} != stratified reference {reference:?} for program:\n{program}\n{}",
            shrunk_asp_repro(&program)
        )));
    }
    if let Some(brute) = reference::stable_models_bruteforce(&program, BRUTE_FORCE_MAX_EXTRA) {
        if fast != brute {
            return Err(ctx(format!(
                "fast {fast:?} != brute-force reference {brute:?} for program:\n{program}\n{}",
                shrunk_asp_repro(&program)
            )));
        }
    }
    Ok(())
}

/// A program rebuilt from a rule subset (facts and rules only — the
/// generators emit no weak constraints).
fn program_from(rules: &[Rule]) -> Program {
    let mut p = Program::new();
    for r in rules {
        p.push(r.clone());
    }
    p
}

/// True if the fast engine still disagrees with either reference on this
/// program. Engine errors and non-stratified subsets are *not* failures —
/// the shrinker must preserve the original mismatch, not trade it for a
/// different breakage.
fn asp_mismatch(program: &Program) -> bool {
    let Ok(fast) = fast_models(program) else {
        return false;
    };
    let Some(reference) = reference::stable_models_stratified(program) else {
        return false;
    };
    if fast != reference {
        return true;
    }
    match reference::stable_models_bruteforce(program, BRUTE_FORCE_MAX_EXTRA) {
        Some(brute) => fast != brute,
        None => false,
    }
}

/// Binary-searches a mismatching program down to a minimal failing rule
/// subset and renders it for the repro message.
fn shrunk_asp_repro(program: &Program) -> String {
    let rules = program.rules().to_vec();
    let minimal = shrink::shrink_items(&rules, &mut |subset| asp_mismatch(&program_from(subset)));
    format!(
        "shrunk to {} of {} rule(s):\n{}",
        minimal.len(),
        rules.len(),
        program_from(&minimal)
    )
}

/// Renders a request stream's decisions through every serving path — handle
/// singles, handle batch, pin singles, pin batch — under one published
/// snapshot, checks the four paths agree on the **full**
/// [`DecisionEffects`] (decision, obligation vector, penalty — and that
/// every outcome carries the published epoch), and returns the agreed
/// effects vector.
pub fn decisions_via_all_paths(
    policies: &[Policy],
    combining: CombiningAlg,
    stream: &[Request],
) -> Result<Vec<DecisionEffects>, String> {
    let handle = PdpHandle::new();
    let epoch = handle.publish(DecisionSnapshot::new(policies.to_vec(), combining));
    let singles: Vec<DecisionEffects> = stream
        .iter()
        .map(|r| {
            let o = handle.decide(r);
            if o.epoch != epoch {
                return Err(format!("decide epoch {} != published {epoch}", o.epoch));
            }
            Ok(o.effects())
        })
        .collect::<Result<_, String>>()?;
    let batch = handle.decide_batch(stream);
    for (i, o) in batch.iter().enumerate() {
        if o.epoch != epoch {
            return Err(format!(
                "decide_batch[{i}] epoch {} != published {epoch}",
                o.epoch
            ));
        }
        if o.effects() != singles[i] {
            return Err(format!(
                "decide_batch[{i}] {:?} != decide {:?}",
                o.effects(),
                singles[i]
            ));
        }
    }
    let mut pin = handle.pin();
    for (i, r) in stream.iter().enumerate() {
        let o = pin.decide(r);
        if o.effects() != singles[i] {
            return Err(format!(
                "pin.decide[{i}] {:?} != decide {:?}",
                o.effects(),
                singles[i]
            ));
        }
    }
    let mut pin = handle.pin();
    let pin_batch = pin.decide_batch(stream);
    for (i, o) in pin_batch.iter().enumerate() {
        if o.effects() != singles[i] {
            return Err(format!(
                "pin.decide_batch[{i}] {:?} != decide {:?}",
                o.effects(),
                singles[i]
            ));
        }
    }
    Ok(singles)
}

/// Differential PDP case: generated policy set (obligation- and
/// penalty-bearing) and duplicate-bearing request stream; every serving
/// path (handle and pin, single and batch) must match the straight-line
/// reference [`reference::effects_reference`] on the full
/// decision-plus-obligations-plus-penalty effects. Any mismatch is shrunk
/// to a minimal failing case before the repro line prints.
pub fn run_pdp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| format!("seed={seed} kind=pdp: {msg} (repro: run_pdp_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let (policies, combining) = gen::policy_set(&mut rng);
    let stream = gen::request_stream(&mut rng, 12);
    let served = match decisions_via_all_paths(&policies, combining, &stream) {
        Ok(served) => served,
        Err(msg) => {
            return Err(ctx(format!(
                "{msg}\n{}",
                shrunk_pdp_repro(&policies, combining, &stream)
            )))
        }
    };
    for (i, (got, request)) in served.iter().zip(&stream).enumerate() {
        let want = reference::effects_reference(&policies, combining, request);
        if *got != want {
            return Err(ctx(format!(
                "request[{i}] served {got:?} != reference {want:?} (key {})\n{}",
                request.canonical_key(),
                shrunk_pdp_repro(&policies, combining, &stream)
            )));
        }
    }
    Ok(())
}

/// True if the serving paths still disagree among themselves or with the
/// reference effects evaluator on this (policy set, stream) pair.
fn pdp_mismatch(policies: &[Policy], combining: CombiningAlg, stream: &[Request]) -> bool {
    match decisions_via_all_paths(policies, combining, stream) {
        Err(_) => true,
        Ok(served) => served
            .iter()
            .zip(stream)
            .any(|(got, r)| *got != reference::effects_reference(policies, combining, r)),
    }
}

/// Binary-searches a mismatching PDP case down: the request stream first
/// (the cheapest axis — duplicates usually drop out),
/// then whole policies, then the rules inside each surviving policy, each
/// axis shrunk while the others are held fixed.
fn shrunk_pdp_repro(policies: &[Policy], combining: CombiningAlg, stream: &[Request]) -> String {
    let (n_policies, n_requests) = (policies.len(), stream.len());
    let stream = shrink::shrink_items(stream, &mut |s| pdp_mismatch(policies, combining, s));
    let mut policies = shrink::shrink_items(policies, &mut |p| pdp_mismatch(p, combining, &stream));
    for i in 0..policies.len() {
        let base = policies.clone();
        let rules = shrink::shrink_items(&policies[i].rules, &mut |rules| {
            let mut ps = base.clone();
            ps[i].rules = rules.to_vec();
            pdp_mismatch(&ps, combining, &stream)
        });
        policies[i].rules = rules;
    }
    let keys: Vec<String> = stream.iter().map(Request::canonical_key).collect();
    format!(
        "shrunk to {} of {n_policies} polic(ies), {} of {n_requests} request(s):\n  \
         policies: {policies:?}\n  requests: {keys:?}",
        policies.len(),
        keys.len()
    )
}

/// Differential ASG case: generated right-linear grammar; the
/// Earley-plus-ASP membership pipeline must agree with plain NFA
/// simulation on every string over the token alphabet up to length 4.
pub fn run_asg_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| format!("seed={seed} kind=asg: {msg} (repro: run_asg_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let grammar = gen::linear_grammar(&mut rng);
    let asg = grammar.to_asg();
    for tokens in gen::all_strings(4) {
        let text = tokens.join(" ");
        let fast = asg
            .accepts(&text)
            .map_err(|e| ctx(format!("accepts({text:?}) errored: {e:?}")))?;
        let reference = grammar.accepts_ref(&tokens);
        if fast != reference {
            return Err(ctx(format!(
                "accepts({text:?}) = {fast} but reference NFA says {reference} for {grammar:?}"
            )));
        }
    }
    Ok(())
}

/// Metamorphic ASP case: rule permutation and inert-rule insertion must
/// leave answer sets unchanged; bijective predicate renaming must map them
/// through exactly that bijection.
pub fn run_metamorphic_asp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| {
        format!("seed={seed} kind=mm-asp: {msg} (repro: run_metamorphic_asp_case({seed}))")
    };
    let mut rng = gen::rng_for(seed);
    let program = gen::stratified_program(&mut rng);
    let base = fast_models(&program).map_err(&ctx)?;

    let permuted = metamorphic::permute_rules(&program, &mut rng);
    let permuted_models = fast_models(&permuted).map_err(&ctx)?;
    if permuted_models != base {
        return Err(ctx(format!(
            "rule permutation changed answer sets: {base:?} -> {permuted_models:?}"
        )));
    }

    let padded = metamorphic::insert_inert_rules(&program, &mut rng);
    let padded_models = fast_models(&padded).map_err(&ctx)?;
    if padded_models != base {
        return Err(ctx(format!(
            "inert-rule insertion changed answer sets: {base:?} -> {padded_models:?}"
        )));
    }

    let (renamed, mapping) = metamorphic::rename_predicates(&program);
    let renamed_models = fast_models(&renamed).map_err(&ctx)?;
    let mut expected: Vec<Model> = base
        .iter()
        .map(|m| metamorphic::rename_model(m, &mapping))
        .collect();
    expected.sort();
    if renamed_models != expected {
        return Err(ctx(format!(
            "predicate renaming broke the model bijection: expected {expected:?}, got {renamed_models:?}"
        )));
    }
    Ok(())
}

/// Order-insensitive effects equivalence for the permutation oracles.
/// Obligation *order* and the first-wins dedup winner follow policy/rule
/// order by construction, so permuting policies or rules may legitimately
/// reorder the obligation vector and swap which same-id spec survives —
/// but the decision, the penalty (a max over contributors), and the
/// obligation id *set* must all be invariant.
fn effects_equiv_unordered(a: &DecisionEffects, b: &DecisionEffects) -> bool {
    fn ids(fx: &DecisionEffects) -> BTreeSet<&str> {
        fx.obligations.iter().map(|o| o.id.as_str()).collect()
    }
    a.decision == b.decision && a.penalty == b.penalty && ids(a) == ids(b)
}

/// Metamorphic PDP case, proven through **both** `decide` and
/// `decide_batch` (and the pin variants) via [`decisions_via_all_paths`]:
/// inert-rule insertion and request reordering preserve the full decision
/// effects under every combining algorithm; policy and rule permutation
/// preserve the decision, penalty, and obligation id set under the
/// order-insensitive algorithms (but not the obligation *vector*:
/// collection order and the dedup winner's payload follow policy/rule
/// order by specification, so only the id set is permutation-invariant).
pub fn run_metamorphic_pdp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| {
        format!("seed={seed} kind=mm-pdp: {msg} (repro: run_metamorphic_pdp_case({seed}))")
    };
    let mut rng = gen::rng_for(seed);

    // All combining algorithms: inert insertion and request reordering.
    let (policies, combining) = gen::policy_set(&mut rng);
    let stream = gen::request_stream(&mut rng, 10);
    let base = decisions_via_all_paths(&policies, combining, &stream).map_err(&ctx)?;

    let padded = metamorphic::insert_inert_policy_rules(&policies, &mut rng);
    let padded_decisions = decisions_via_all_paths(&padded, combining, &stream).map_err(&ctx)?;
    if padded_decisions != base {
        return Err(ctx(format!(
            "inert policy rule changed decisions: {base:?} -> {padded_decisions:?}"
        )));
    }

    let (shuffled, perm) = metamorphic::shuffle_requests(&stream, &mut rng);
    let shuffled_decisions =
        decisions_via_all_paths(&policies, combining, &shuffled).map_err(&ctx)?;
    for (i, &src) in perm.iter().enumerate() {
        if shuffled_decisions[i] != base[src] {
            return Err(ctx(format!(
                "request reordering changed a decision: position {i} (source {src}) \
                 {:?} != {:?}",
                shuffled_decisions[i], base[src]
            )));
        }
    }

    // Order-insensitive algorithms only: permutations.
    let (oi_policies, oi_combining) = gen::order_insensitive_policy_set(&mut rng);
    let oi_base = decisions_via_all_paths(&oi_policies, oi_combining, &stream).map_err(&ctx)?;
    let policy_perm = metamorphic::permute_policies(&oi_policies, &mut rng);
    let policy_perm_decisions =
        decisions_via_all_paths(&policy_perm, oi_combining, &stream).map_err(&ctx)?;
    if !policy_perm_decisions
        .iter()
        .zip(&oi_base)
        .all(|(a, b)| effects_equiv_unordered(a, b))
    {
        return Err(ctx(format!(
            "policy permutation changed decisions: {oi_base:?} -> {policy_perm_decisions:?}"
        )));
    }
    let rule_perm = metamorphic::permute_policy_rules(&oi_policies, &mut rng);
    let rule_perm_decisions =
        decisions_via_all_paths(&rule_perm, oi_combining, &stream).map_err(&ctx)?;
    if !rule_perm_decisions
        .iter()
        .zip(&oi_base)
        .all(|(a, b)| effects_equiv_unordered(a, b))
    {
        return Err(ctx(format!(
            "rule permutation changed decisions: {oi_base:?} -> {rule_perm_decisions:?}"
        )));
    }
    Ok(())
}
