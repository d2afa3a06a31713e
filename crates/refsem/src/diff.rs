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
use agenp_asp::{
    ground_with, ground_with_stats, Atom, AtomId, Deadline, GroundOptions, GroundProgram, Literal,
    Program, Rule, RunBudget, Solver, Term,
};
use agenp_core::arch::{
    DecisionSnapshot, Learned, Pcp, PdpHandle, Prep, RefreshPath, RefreshStats, Verdict,
};
use agenp_grammar::{
    Asg, AsgError, Cfg, EarleyParser, GenOptions, Generator, ParseOptions, ParseTree, ProdId,
};
use agenp_learn::{
    Candidate, CandidatePlan, CompileOptions, HypothesisSpace, LearnOptions, LearningSession,
    PlanTrie, World,
};
use agenp_policy::{CombiningAlg, DecisionEffects, Policy, Request};
use rand::Rng;
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

/// A ground rule or weak constraint in comparable form: rendered head,
/// sorted and deduplicated positive and negative body atoms, and the
/// weight and level of a weak constraint.
type Instance = (Option<String>, Vec<String>, Vec<String>, Option<(i64, i64)>);

fn instance(
    head: Option<String>,
    mut pos: Vec<String>,
    mut neg: Vec<String>,
    weak: Option<(i64, i64)>,
) -> Instance {
    pos.sort();
    pos.dedup();
    neg.sort();
    neg.dedup();
    (head, pos, neg, weak)
}

/// The fast grounder without simplification vs the naive reference
/// grounder: its ground rules and weak constraints must be exactly the
/// reference instances ([`reference::naive_ground`],
/// [`reference::naive_ground_weak`]) whose positive body atoms all lie in
/// the least model of the program's positive relaxation. Compared as sets.
pub fn check_ground_instances(program: &Program) -> Result<(), String> {
    let g = ground_with(program, GroundOptions::default().with_simplify(false))
        .map_err(|e| format!("fast engine failed to ground: {e:?}"))?;
    let names = |ids: &[AtomId]| -> Vec<String> {
        ids.iter()
            .map(|&id| reference::render(g.atoms().resolve(id)))
            .collect()
    };
    let mut fast: BTreeSet<Instance> = BTreeSet::new();
    for r in g.rules() {
        let head = r.head.map(|h| reference::render(g.atoms().resolve(h)));
        fast.insert(instance(head, names(&r.pos), names(&r.neg), None));
    }
    for w in g.weak_constraints() {
        let weak = Some((w.weight, w.level));
        fast.insert(instance(None, names(&w.pos), names(&w.neg), weak));
    }

    let rules = reference::naive_ground(program);
    let derivable = reference::positive_least_model(&rules);
    let within = |pos: &[String]| pos.iter().all(|a| derivable.contains(a));
    let mut want: BTreeSet<Instance> = BTreeSet::new();
    for r in rules.iter().filter(|r| within(&r.pos)) {
        want.insert(instance(r.head.clone(), r.pos.clone(), r.neg.clone(), None));
    }
    for w in reference::naive_ground_weak(program) {
        if within(&w.pos) {
            want.insert(instance(None, w.pos, w.neg, Some((w.weight, w.level))));
        }
    }
    if fast == want {
        return Ok(());
    }
    let extra: Vec<&Instance> = fast.difference(&want).collect();
    let missing: Vec<&Instance> = want.difference(&fast).collect();
    Err(format!(
        "ground instances differ from the naive reference: extra {extra:?}, missing {missing:?}"
    ))
}

/// Differential ASP case: generated stratified program, fast
/// grounder+solver vs the stratified perfect-model reference, and (when
/// the candidate space is small enough) vs brute-force stable-model
/// enumeration as a second, independent reference. The unsimplified
/// grounding must also pass [`check_ground_instances`].
pub fn run_asp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| format!("seed={seed} kind=asp: {msg} (repro: run_asp_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let program = gen::stratified_program(&mut rng);
    check_ground_instances(&program)
        .map_err(|msg| ctx(format!("{msg} for program:\n{program}")))?;
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
    let mut rng = gen::rng_for(seed);
    let (policies, combining) = gen::policy_set(&mut rng);
    let stream = gen::request_stream(&mut rng, 12);
    check_pdp_case(&policies, combining, &stream)
        .map_err(|msg| format!("seed={seed} kind=pdp: {msg} (repro: run_pdp_case({seed}))"))
}

/// Differential PDP case on a large set ([`gen::large_policy_set`]: 16-64
/// policies, most taking the set's algorithm, so the compiled plan spans
/// many policies' rules): the checks, shrinker and repro line of
/// [`run_pdp_case`].
pub fn run_large_pdp_case(seed: u64) -> Result<(), String> {
    let mut rng = gen::rng_for(seed);
    let (policies, combining) = gen::large_policy_set(&mut rng);
    let stream = gen::request_stream(&mut rng, 12);
    check_pdp_case(&policies, combining, &stream).map_err(|msg| {
        format!("seed={seed} kind=large-pdp: {msg} (repro: run_large_pdp_case({seed}))")
    })
}

/// Every serving path against [`reference::effects_reference`] on one
/// case; a mismatch is shrunk before it is reported.
fn check_pdp_case(
    policies: &[Policy],
    combining: CombiningAlg,
    stream: &[Request],
) -> Result<(), String> {
    let served = match decisions_via_all_paths(policies, combining, stream) {
        Ok(served) => served,
        Err(msg) => {
            return Err(format!(
                "{msg}\n{}",
                shrunk_pdp_repro(policies, combining, stream)
            ))
        }
    };
    for (i, (got, request)) in served.iter().zip(stream).enumerate() {
        let want = reference::effects_reference(policies, combining, request);
        if *got != want {
            return Err(format!(
                "request[{i}] served {got:?} != reference {want:?} (key {})\n{}",
                request.canonical_key(),
                shrunk_pdp_repro(policies, combining, stream)
            ));
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
/// through exactly that bijection; and the program, as generated and
/// permuted, must ground exactly as its facts-as-filters rewrite does
/// (`check_facts_walked`).
pub fn run_metamorphic_asp_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| {
        format!("seed={seed} kind=mm-asp: {msg} (repro: run_metamorphic_asp_case({seed}))")
    };
    let mut rng = gen::rng_for(seed);
    let program = gen::stratified_program(&mut rng);
    let base = fast_models(&program).map_err(&ctx)?;
    check_facts_walked(&program, &base).map_err(&ctx)?;

    let permuted = metamorphic::permute_rules(&program, &mut rng);
    let permuted_models = fast_models(&permuted).map_err(&ctx)?;
    if permuted_models != base {
        return Err(ctx(format!(
            "rule permutation changed answer sets: {base:?} -> {permuted_models:?}"
        )));
    }
    // Permuted, facts stand between the other rules.
    check_facts_walked(&permuted, &base).map_err(&ctx)?;

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

/// Everything a grounding shows: its rendering, its atoms in table order,
/// its definite facts and whether it is proven inconsistent.
fn grounding_of(g: &GroundProgram) -> (String, Vec<String>, Vec<AtomId>, bool) {
    let atoms = g.atoms().iter().map(|(_, a)| a.to_string()).collect();
    (
        g.to_string(),
        atoms,
        g.definite_facts().to_vec(),
        g.proven_inconsistent(),
    )
}

/// The grounder's direct path for facts against its join walk:
/// `program` and its [`metamorphic::facts_as_filters`] rewrite must ground
/// to the same rendering, atom table order, definite facts and
/// inconsistency with equal [`GroundStats`](agenp_asp::GroundStats), with
/// and without simplification, and the rewrite must have `models`, the
/// answer sets of `program`.
fn check_facts_walked(program: &Program, models: &[Model]) -> Result<(), String> {
    let walked = metamorphic::facts_as_filters(program);
    for opts in [
        GroundOptions::default(),
        GroundOptions::default().with_simplify(false),
    ] {
        let direct = ground_with_stats(program, opts);
        let walk = ground_with_stats(&walked, opts);
        let same = match (&direct, &walk) {
            (Ok((a, a_stats)), Ok((b, b_stats))) => {
                grounding_of(a) == grounding_of(b) && a_stats == b_stats
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            let show = |r: &Result<(GroundProgram, _), _>| match r {
                Ok((g, stats)) => format!("{:?} {stats:?}", grounding_of(g)),
                Err(e) => format!("{e:?}"),
            };
            return Err(format!(
                "facts ground differently on the walk (simplify {}): direct {}, walked {}\n\
                 program:\n{program}",
                opts.simplify,
                show(&direct),
                show(&walk)
            ));
        }
    }
    let walked_models = fast_models(&walked)?;
    if walked_models != models {
        return Err(format!(
            "facts as filters changed answer sets: {models:?} -> {walked_models:?}"
        ));
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

/// Differential world-coverage case: the learner's candidate plans against
/// brute-force stable models. For every parse tree of every string up to
/// length 3 (the trees an example of that string compiles) and every world
/// a [`LearningSession`] looks up for the tree under the context
/// ([`LearningSession::worlds_within`]: the worlds the monotone search's
/// and the meta encoding's kill sets are computed on, built from the
/// tree's and the context's parts where the session would), the world's
/// kill set over all the task's candidates, computed by the walk of their
/// one [`PlanTrie`] that the session's kill sets take
/// ([`TreeWorlds::kills`]), must hold exactly the candidates for which
/// "the world's atoms as facts, plus the candidate instantiated at each
/// node of its target production, have no answer set"
/// ([`reference::stable_models_bruteforce`]). The task's candidates share
/// step prefixes ([`gen::world_task`]), so this checks the trie's sharing
/// and its skipping of subtrees whose candidates are all violated.
///
/// [`TreeWorlds::kills`]: agenp_learn::TreeWorlds::kills
pub fn run_world_case(seed: u64) -> Result<(), String> {
    let ctx =
        |msg: String| format!("seed={seed} kind=world: {msg} (repro: run_world_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let task = gen::world_task(&mut rng);
    let plans = task
        .candidates
        .iter()
        .map(|(target, rule)| {
            CandidatePlan::new(*target, rule)
                .ok_or_else(|| ctx(format!("safe constraint {rule} has no plan")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let trie = PlanTrie::new(&plans);
    let mut session = LearningSession::new(
        task.grammar.clone(),
        HypothesisSpace::new(),
        LearnOptions::default(),
    );
    let parse = ParseOptions {
        max_trees: CompileOptions::default().max_trees,
    };
    for tokens in gen::all_strings(3) {
        let text = tokens.join(" ");
        let trees = EarleyParser::new(task.grammar.cfg()).parse_with(&Cfg::tokenize(&text), parse);
        for tree in &trees {
            let worlds = session
                .worlds_within(tree, &task.context, &RunBudget::default())
                .map_err(|e| ctx(format!("looking up the worlds of {text:?} failed: {e}")))?;
            if !worlds.complete() {
                return Err(ctx(format!("{text:?} has more worlds than the cap")));
            }
            for world in worlds.worlds() {
                let kills = worlds.kills(world, &trie);
                for (i, (target, rule)) in task.candidates.iter().enumerate() {
                    let fast = kills.contains(i);
                    let want = violated_reference(world.atoms(), tree, *target, rule);
                    if fast != want {
                        let atoms: Vec<String> =
                            world.atoms().iter().map(|a| a.to_string()).collect();
                        return Err(ctx(format!(
                            "{text:?}, world {{{}}}, candidate {rule} on production {}: \
                             in the kill set = {fast}, brute force = {want}\ngrammar:\n{}context: {}",
                            atoms.join(", "),
                            target.index(),
                            task.grammar,
                            task.context
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Do `world` as facts plus `rule` instantiated at every node of `tree`
/// expanding `target` have no answer set? The program pads the universe
/// with every integer a binder can reach (up to two `+ 1` steps above the
/// largest integer of the world and the rule), so full-universe grounding
/// misses no binding.
fn violated_reference(world: &[Atom], tree: &ParseTree, target: ProdId, rule: &Rule) -> bool {
    fn ints(t: &Term, out: &mut Vec<i64>) {
        match t {
            Term::Int(n) => out.push(*n),
            Term::Func(_, args) => args.iter().for_each(|a| ints(a, out)),
            Term::Arith(_, l, r) => {
                ints(l, out);
                ints(r, out);
            }
            Term::Sym(_) | Term::Var(_) => {}
        }
    }
    let mut seen = Vec::new();
    for atom in world
        .iter()
        .chain(rule.body.iter().filter_map(Literal::atom))
    {
        atom.args.iter().for_each(|t| ints(t, &mut seen));
    }
    for lit in &rule.body {
        if let Literal::Cmp(_, l, r) = lit {
            ints(l, &mut seen);
            ints(r, &mut seen);
        }
    }
    let mut program = Program::new();
    for atom in world {
        program.push(Rule::fact(atom.clone()));
    }
    let top = seen.into_iter().max().unwrap_or(0);
    for n in 0..=top + 2 {
        program.push(Rule::fact(Atom::new("pad", vec![Term::Int(n)])));
    }
    tree.visit_nodes(|node, trace| {
        if node.prod == target {
            program.push(rule.instantiate_at(trace));
        }
    });
    reference::stable_models_bruteforce(&program, 0)
        .expect("facts and constraints leave no atom to guess")
        .is_empty()
}

/// Strings with their verdicts, or the kind of error that stopped them.
type Screened = Result<Vec<(String, Verdict)>, String>;

/// An error's kind: the exhausted resource, or the error's variant.
fn error_kind(e: &AsgError) -> String {
    match e {
        AsgError::Exhausted(kind) => format!("exhausted {kind:?}"),
        AsgError::Ground(g) => match g.exhausted() {
            Some(kind) => format!("exhausted {kind:?}"),
            None => "ground".to_owned(),
        },
        AsgError::BadProduction(_) => "bad production".to_owned(),
    }
}

/// Each world's atoms, in order.
fn world_atoms(worlds: &[World]) -> Vec<Vec<Atom>> {
    worlds.iter().map(|w| w.atoms().to_vec()).collect()
}

/// What a session's lookup of `tree`'s worlds under `context` must return:
/// after the deadline check a lookup makes first, one `ground_with` and
/// one solve of `G(C)[PT]` under `budget`, enumerating at most
/// `max_worlds` answer sets; each world's atoms in order with
/// completeness, or the error's kind.
fn worlds_whole(
    grammar: &Asg,
    tree: &ParseTree,
    context: &Program,
    max_worlds: usize,
    budget: &RunBudget,
) -> Result<(Vec<Vec<Atom>>, bool), String> {
    let exhausted = |kind| error_kind(&AsgError::Exhausted(kind));
    if budget.deadline.expired() {
        return Err(exhausted(agenp_asp::Exhausted::Deadline));
    }
    let options = GroundOptions::default()
        .with_max_atoms(budget.max_atoms)
        .with_deadline(budget.deadline);
    let ground = ground_with(&grammar.tree_program_in(tree, context), options)
        .map_err(|e| error_kind(&AsgError::Ground(e)))?;
    let result = Solver::new()
        .max_models(max_worlds)
        .with_budget(budget)
        .solve(&ground);
    if let Some(kind) = result.exhausted() {
        return Err(exhausted(kind));
    }
    let complete = result.complete();
    let worlds: Vec<World> = result
        .into_models()
        .into_iter()
        .map(|m| World::from_atoms(m.into_atoms()))
        .collect();
    Ok((world_atoms(&worlds), complete))
}

/// Today's refresh: [`Prep::generate`] then [`Pcp::screen_within`], each
/// grounding and solving every tree and string.
pub fn screened_on_trees(prep: &Prep, pcp: &Pcp, gpm: &Asg, context: &Program) -> Screened {
    prep.generate(gpm, context)
        .and_then(|strings| pcp.screen_within(gpm, context, &strings, &prep.budget))
        .map_err(|e| error_kind(&e))
}

/// [`Prep::generate_screened`] for `session`'s grammar plus `hypothesis`
/// (which must be `gpm`), with the path it took.
pub fn screened_on_worlds(
    prep: &Prep,
    pcp: &Pcp,
    gpm: &Asg,
    context: &Program,
    session: &mut LearningSession,
    hypothesis: &[(ProdId, Rule)],
) -> (Screened, RefreshPath) {
    let trees = Generator::new(session.grammar().cfg()).trees(prep.gen_options);
    let learned = Learned {
        session,
        hypothesis,
        trees: &trees,
    };
    match prep.generate_screened(gpm, context, pcp, Some(learned)) {
        Ok((screened, RefreshStats { path, .. })) => (Ok(screened), path),
        Err(e) => (Err(error_kind(&e)), RefreshPath::Trees),
    }
}

/// Differential generation case: the worlds path of
/// [`Prep::generate_screened`] against today's [`Prep::generate`] plus
/// [`Pcp::screen_within`], which must return the same strings in the same
/// order, the same verdicts and the same error kinds.
///
/// A [`gen::world_task`] grammar (whose even loops give a tree several
/// worlds) gets a random constraint-only `H` drawn from its candidates
/// and a constraint on one side of the loops,
/// random PCP restrictions (now and then a normal rule or an unknown
/// production, which send screening to the trees path), a world cap that
/// some trees exceed, and four contexts: the task's twice and two
/// [`gen::generate_context`]s, which may share a predicate with the
/// annotations or have two worlds. After each refresh, every tree's
/// worlds are looked up again under the default budget, a tight atom cap,
/// a step cap and an expired deadline, and each lookup must return what
/// one ground and solve of `G(C)[PT]` returns under that budget: the same
/// worlds in the same order, the same completeness, the same error kind.
/// Except under the step cap, it must also fail or succeed as the
/// per-tree step of [`Asg::admitted_trees_within`] does: a deadline
/// check, then [`Asg::tree_admitted_within`].
pub fn run_generate_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| {
        format!("seed={seed} kind=generate: {msg} (repro: run_generate_case({seed}))")
    };
    let mut rng = gen::rng_for(seed);
    let task = gen::world_task(&mut rng);
    let productions = task.grammar.cfg().production_count();
    let mut candidates = task.candidates.clone();
    // A constraint on one side of the even loops, so a tree's admission
    // depends on which of its worlds the enumeration reached.
    candidates.push((
        ProdId::from_index(rng.gen_range(0..productions)),
        format!(":- e({}).", rng.gen_range(1..=2))
            .parse()
            .expect("rule parses"),
    ));
    let hypothesis: Vec<(ProdId, Rule)> = candidates
        .iter()
        .filter(|_| rng.gen_bool(0.4))
        .cloned()
        .collect();
    let mut pcp = Pcp::new();
    for (target, rule) in &candidates {
        if rng.gen_bool(0.25) {
            pcp.add_restriction(*target, rule.clone());
        }
    }
    match rng.gen_range(0..10) {
        0 => pcp.add_restriction(
            ProdId::from_index(rng.gen_range(0..productions)),
            "p(1) :- c(1).".parse().expect("rule parses"),
        ),
        1 => pcp.add_restriction(
            ProdId::from_index(productions),
            ":- c(1).".parse().expect("rule parses"),
        ),
        _ => {}
    }
    let max_worlds = if rng.gen_bool(0.3) {
        rng.gen_range(1..=3)
    } else {
        CompileOptions::default().max_worlds
    };
    let options =
        LearnOptions::default().with_compile(CompileOptions::default().with_max_worlds(max_worlds));
    let space = HypothesisSpace::from_candidates(
        candidates
            .iter()
            .map(|(target, rule)| Candidate::new(*target, rule.clone())),
    );
    let mut session = LearningSession::new(task.grammar.clone(), space, options);
    let gpm = task
        .grammar
        .with_added_rules(&hypothesis)
        .map_err(|e| ctx(format!("hypothesis does not apply: {e}")))?;
    let prep = Prep {
        gen_options: GenOptions {
            max_depth: 4,
            max_trees: 64,
        },
        budget: RunBudget::default(),
    };
    let trees = Generator::new(task.grammar.cfg()).trees(prep.gen_options);
    let contexts = [
        task.context.clone(),
        gen::generate_context(&mut rng),
        task.context.clone(),
        gen::generate_context(&mut rng),
    ];
    let tight = RunBudget::default().with_max_atoms(rng.gen_range(0..=8));
    let steps = RunBudget::default().with_max_steps(rng.gen_range(0..=6));
    let expired = RunBudget::default().with_deadline(Deadline::after(std::time::Duration::ZERO));
    for context in &contexts {
        let want = screened_on_trees(&prep, &pcp, &gpm, context);
        let (got, path) = screened_on_worlds(&prep, &pcp, &gpm, context, &mut session, &hypothesis);
        if got != want {
            return Err(ctx(format!(
                "context {{{context}}}: worlds path ({}) returned {got:?}, trees path {want:?}\n\
                 H: {hypothesis:?}\nrestrictions: {:?}\nworld cap: {max_worlds}\ngrammar:\n{}",
                path.name(),
                pcp.restrictions(),
                task.grammar
            )));
        }
        let plain = task.grammar.with_context(context);
        for tree in &trees {
            for budget in [&prep.budget, &tight, &steps, &expired] {
                let got = session.worlds_within(tree, context, budget);
                let whole = worlds_whole(&task.grammar, tree, context, max_worlds, budget);
                let looked_up = got
                    .as_ref()
                    .map(|w| (world_atoms(w.worlds()), w.complete()))
                    .map_err(error_kind);
                if looked_up != whole {
                    return Err(ctx(format!(
                        "tree {tree} in context {{{context}}} under {budget:?}: lookup \
                         returned {looked_up:?}, one solve of G(C)[PT] {whole:?}"
                    )));
                }
                if budget.max_steps != u64::MAX {
                    // Enumerating every world may run out of steps where
                    // finding one does not.
                    continue;
                }
                let want = if budget.deadline.expired() {
                    Err(AsgError::Exhausted(agenp_asp::Exhausted::Deadline))
                } else {
                    plain.tree_admitted_within(tree, budget)
                };
                let agrees = match (&want, &got) {
                    (Err(a), Err(b)) => error_kind(a) == error_kind(b),
                    (Ok(admitted), Ok(worlds)) if worlds.complete() => {
                        *admitted != worlds.worlds().is_empty()
                    }
                    (Ok(admitted), Ok(_)) => *admitted,
                    _ => false,
                };
                if !agrees {
                    return Err(ctx(format!(
                        "tree {tree} in context {{{context}}} under {budget:?}: lookup \
                         returned {:?}, tree_admitted_within {want:?}",
                        got.map(|w| w.worlds().len())
                    )));
                }
            }
        }
    }
    Ok(())
}
