//! The learning session against a fresh [`Learner::learn`] over the same
//! examples: round by round on CAV episodes, with repeated examples, and
//! the soundness of skipping the search.
//!
//! Optimized builds run the full-size suites
//! (`cargo test --release -p agenp-learn`); debug builds run a few
//! seconds' worth of the same checks.

use agenp_asp::{
    ground_with, Atom, Deadline, Exhausted, GroundOptions, Program, RunBudget, Solver,
};
use agenp_core::scenarios::cav;
use agenp_grammar::{Asg, AsgError, EarleyParser, GenOptions, ParseTree, ProdId};
use agenp_learn::{
    Branching, CompileOptions, Example, HypothesisSpace, LearnError, LearnOptions, Learner,
    LearningSession, LearningTask, TreeWorlds, World, WorldStats,
};
use std::collections::HashSet;
use std::time::Duration;

/// Full-size suites in optimized builds.
const FULL: bool = !cfg!(debug_assertions);

fn cav_session(options: LearnOptions) -> LearningSession {
    LearningSession::new(cav::grammar(), cav::hypothesis_space(), options)
}

/// Adds a task's examples to the session: positives, then negatives.
fn add(session: &mut LearningSession, task: LearningTask) {
    for e in task.positive {
        session.add_positive(e);
    }
    for e in task.negative {
        session.add_negative(e);
    }
}

#[test]
fn rounds_match_a_fresh_learn_on_cav_episodes() {
    let (seeds, rounds) = if FULL { (20, 40) } else { (2, 10) };
    for seed in 1..=seeds {
        for penalty in [None, Some(3)] {
            let mut samples = cav::samples(2 * rounds, seed);
            if penalty.is_some() {
                cav::inject_noise(&mut samples, 0.1, seed ^ 0x5eed);
            }
            let mut session = cav_session(LearnOptions::default());
            let mut searched = 0;
            for round in 0..rounds {
                let seen = 2 * round + 2;
                add(
                    &mut session,
                    cav::learning_task(&samples[seen - 2..seen], penalty),
                );
                let (h, stats) = session.solve().expect("learnable");
                let task = cav::learning_task(&samples[..seen], penalty);
                let cold = Learner::new().learn(&task).expect("learnable");
                let at = format!("seed {seed} penalty {penalty:?} round {round}");
                assert_eq!(h.cost, cold.cost, "{at}");
                if !stats.search_skipped {
                    searched += 1;
                    assert_eq!(h.rules, cold.rules, "{at}");
                    assert_eq!(h.sacrificed, cold.sacrificed, "{at}");
                }
                if penalty.is_none() {
                    assert_eq!(task.violations(&h).unwrap(), Vec::new(), "{at}");
                }
            }
            assert!(searched >= 1, "seed {seed}: the first round searches");
        }
    }
}

/// `samples` with every sample repeated, and the same examples made
/// distinct by an irrelevant context fact, so nothing is shared.
fn repeated_tasks(seed: u64, penalty: Option<u32>) -> (LearningTask, LearningTask) {
    let mut samples = cav::samples(10, seed);
    if penalty.is_some() {
        cav::inject_noise(&mut samples, 0.2, seed);
    }
    let repeated: Vec<cav::Sample> = samples
        .iter()
        .chain(&samples)
        .chain(&samples[..4])
        .cloned()
        .collect();
    let shared = cav::learning_task(&repeated, penalty);
    let mut distinct = LearningTask::new(cav::grammar(), cav::hypothesis_space());
    for (i, s) in repeated.iter().enumerate() {
        let mut context = s.context.to_program();
        context.push(format!("copy({i}).").parse().unwrap());
        let mut e = Example::in_context(cav::policy_text(s.task), context);
        e.penalty = penalty;
        distinct = if s.accept {
            distinct.pos(e)
        } else {
            distinct.neg(e)
        };
    }
    (shared, distinct)
}

#[test]
fn repeated_examples_share_coverage_without_changing_the_result() {
    let seeds = if FULL { 12 } else { 3 };
    for seed in 1..=seeds {
        for penalty in [None, Some(2)] {
            let (shared, distinct) = repeated_tasks(seed, penalty);
            let learner = Learner::new();
            let at = format!("seed {seed} penalty {penalty:?}");
            match (
                learner.learn_with_stats(&shared),
                learner.learn_with_stats(&distinct),
            ) {
                (Ok((a, sa)), Ok((b, sb))) => {
                    assert_eq!(a.cost, b.cost, "{at}");
                    assert_eq!(a.sacrificed, b.sacrificed, "{at}");
                    assert_eq!(a.rules, b.rules, "{at}");
                    assert_eq!(sa.search_nodes, sb.search_nodes, "{at}");
                    assert_eq!(sa.worlds, sb.worlds, "{at}");
                    // 24 observations of at most 10 distinct examples.
                    assert!(sa.examples_compiled <= 10, "{at}: {sa:?}");
                    assert_eq!(sb.examples_compiled, 24, "{at}");
                }
                (Err(LearnError::Unsatisfiable), Err(LearnError::Unsatisfiable)) => {
                    assert!(penalty.is_none(), "{at}: soft tasks are satisfiable");
                }
                (a, b) => panic!("{at}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn a_budget_truncated_search_never_enables_the_skip() {
    // 20 nodes cut the seed-1 search short of its optimum (cost 9).
    let options = LearnOptions::default().with_max_nodes(20);
    let samples = cav::samples(42, 1);
    let mut session = cav_session(options);
    add(&mut session, cav::learning_task(&samples[..40], None));
    let (first, stats) = session.solve().expect("a solution within the budget");
    assert!(!stats.search_skipped);
    assert!(stats.search_nodes >= 20, "{stats:?}");
    let optimum = Learner::new()
        .learn(&cav::learning_task(&samples[..40], None))
        .unwrap();
    assert!(first.cost > optimum.cost, "the cut search is not optimal");
    // Whatever arrives next, the unproven result is not reused.
    add(&mut session, cav::learning_task(&samples[40..], None));
    let (_, stats) = session.solve().expect("a solution within the budget");
    assert!(!stats.search_skipped);
    assert!(stats.search_nodes > 0);
}

fn weather_session(options: LearnOptions) -> LearningSession {
    let g: Asg = r#"
        policy -> "allow" { act(allow). }
        policy -> "deny"  { act(deny). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(0), ":- weather(rain)."),
        (ProdId::from_index(0), ":- weather(clear)."),
        (ProdId::from_index(1), ":- weather(rain)."),
    ]);
    LearningSession::new(g, space, options)
}

fn weather(text: &str, facts: &str) -> Example {
    Example::in_context(text, facts.parse().unwrap())
}

#[test]
fn the_skip_reuses_only_an_optimum_that_still_holds() {
    let mut session = weather_session(LearnOptions::default());
    session.add_negative(weather("allow", "weather(rain)."));
    let (h, stats) = session.solve().unwrap();
    assert!(!stats.search_skipped);
    assert_eq!(h.cost, 1);

    // Satisfied by the optimum (soft or hard): reused, nothing searched.
    session.add_positive(weather("allow", "weather(clear).").with_penalty(1));
    session.add_positive(weather("deny", "weather(rain)."));
    let (again, stats) = session.solve().unwrap();
    assert!(stats.search_skipped);
    assert_eq!(stats.search_nodes, 0);
    assert_eq!(stats.examples_compiled, 2);
    assert_eq!((again.rules, again.cost), (h.rules.clone(), h.cost));

    // Equal options keep the optimum; changed options force a search.
    session.set_options(LearnOptions::default());
    assert!(session.solve().unwrap().1.search_skipped);
    session.set_options(LearnOptions::default().with_branching(Branching::CostFirst));
    let (_, stats) = session.solve().unwrap();
    assert!(!stats.search_skipped);
    assert_eq!(stats.examples_compiled, 0);

    // A soft example the optimum violates forces a search too.
    session.add_positive(weather("allow", "weather(rain).").with_penalty(1));
    let (h, stats) = session.solve().unwrap();
    assert!(!stats.search_skipped);
    assert_eq!(h.cost, 2);
    assert_eq!(h.sacrificed, vec![(true, 2)]);
}

#[test]
fn unsatisfiable_persists() {
    let mut session = weather_session(LearnOptions::default());
    session.add_positive(weather("allow", "weather(rain)."));
    session.add_negative(weather("allow", "weather(rain)."));
    assert!(matches!(session.solve(), Err(LearnError::Unsatisfiable)));
    session.add_positive(weather("deny", "weather(clear)."));
    assert!(matches!(session.solve(), Err(LearnError::Unsatisfiable)));
    session.set_options(LearnOptions::default().with_max_cost(8));
    assert!(matches!(session.solve(), Err(LearnError::Unsatisfiable)));
}

#[test]
fn an_example_that_fails_to_compile_fails_every_solve() {
    let mut session = weather_session(LearnOptions::default());
    session.add_negative(weather("allow", "weather(rain)."));
    session.add_positive(weather("deny", "p(X) :- not q(X)."));
    for _ in 0..2 {
        assert!(matches!(session.solve(), Err(LearnError::Ground(_))));
    }
    assert_eq!(session.len(), 2);
}

#[test]
fn each_round_compiles_only_its_new_distinct_examples() {
    let rounds = if FULL { 400 } else { 60 };
    let samples = cav::samples(2 * rounds, 7);
    let mut session = cav_session(LearnOptions::default());
    let mut seen: HashSet<(String, String, bool)> = HashSet::new();
    let mut skipped = 0;
    for round in 0..rounds {
        let new = &samples[2 * round..2 * round + 2];
        let distinct_new = new
            .iter()
            .filter(|s| {
                seen.insert((
                    cav::policy_text(s.task),
                    s.context.to_program().to_string(),
                    s.accept,
                ))
            })
            .count();
        add(&mut session, cav::learning_task(new, None));
        let (_, stats) = session.solve().expect("learnable");
        assert_eq!(stats.examples_compiled, distinct_new, "round {round}");
        assert!(stats.used_monotone);
        skipped += usize::from(stats.search_skipped);
    }
    assert_eq!(session.len(), 2 * rounds);
    assert!(skipped > rounds / 2, "{skipped} of {rounds} rounds skipped");
}

/// The exhausted resource behind a failed evaluation.
fn exhausted<T: std::fmt::Debug>(result: Result<T, AsgError>) -> Exhausted {
    match result {
        Err(AsgError::Exhausted(kind)) => kind,
        other => panic!("expected an exhausted budget, got {other:?}"),
    }
}

/// A pair cached under the default budget is reused only under budgets at
/// least as large. Under a smaller atom cap or an expired deadline the
/// lookup computes again and fails as generation and membership checks do
/// under that budget.
#[test]
fn cached_worlds_are_reused_only_under_a_budget_as_large() {
    let g: Asg = r#"
        policy -> "allow" level { ok :- lvl(X)@2. }
        level -> "high" { lvl(high). }
    "#
    .parse()
    .unwrap();
    let context: Program = "storm.".parse().unwrap();
    let tree = EarleyParser::new(g.cfg())
        .parse_text("allow high")
        .remove(0);
    let mut session =
        LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
    let worlds = session
        .worlds_within(&tree, &context, &RunBudget::default())
        .unwrap();
    assert!(worlds.complete());
    assert_eq!(worlds.worlds().len(), 1);
    session
        .worlds_within(&tree, &context, &RunBudget::unlimited())
        .unwrap();
    assert_eq!(session.world_stats().computed, 1, "a larger budget reuses");
    // A step cap below the cached one computes again; the stratified
    // program needs no steps, so the pair then holds under that cap too.
    let capped = RunBudget::default().with_max_steps(10);
    session.worlds_within(&tree, &context, &capped).unwrap();
    session.worlds_within(&tree, &context, &capped).unwrap();
    session
        .worlds_within(&tree, &context, &RunBudget::default())
        .unwrap();
    assert_eq!(
        session.world_stats(),
        WorldStats {
            lookups: 5,
            computed: 2,
            whole: 1,
            tree_parts: 1,
            context_parts: 1,
        }
    );

    let plain = g.with_context(&context);
    let opts = GenOptions {
        max_depth: 3,
        max_trees: 8,
    };
    let atoms = RunBudget::default().with_max_atoms(1);
    assert_eq!(
        exhausted(plain.admitted_trees_within(opts, &atoms)),
        Exhausted::Atoms
    );
    assert_eq!(
        exhausted(plain.accepts_within("allow high", &atoms)),
        Exhausted::Atoms
    );
    assert_eq!(
        exhausted(session.worlds_within(&tree, &context, &atoms)),
        Exhausted::Atoms
    );
    let expired = RunBudget::default().with_deadline(Deadline::after(Duration::ZERO));
    assert_eq!(
        exhausted(plain.admitted_trees_within(opts, &expired)),
        Exhausted::Deadline
    );
    assert_eq!(
        exhausted(plain.accepts_within("allow high", &expired)),
        Exhausted::Deadline
    );
    assert_eq!(
        exhausted(session.worlds_within(&tree, &context, &expired)),
        Exhausted::Deadline
    );
    // The failures kept the cached pair.
    session
        .worlds_within(&tree, &context, &RunBudget::default())
        .unwrap();
    assert_eq!(session.world_stats().computed, 3);
}

/// A non-stratified annotation needs the solver's search, which a zero
/// step budget stops before its first decision, for the cached pair as
/// for today's membership check.
#[test]
fn a_zero_step_budget_exhausts_a_cached_non_stratified_tree() {
    let g: Asg = r#"
        policy -> "allow" { p :- not q. q :- not p. }
    "#
    .parse()
    .unwrap();
    let tree = EarleyParser::new(g.cfg()).parse_text("allow").remove(0);
    let context = Program::new();
    let mut session =
        LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
    let worlds = session
        .worlds_within(&tree, &context, &RunBudget::default())
        .unwrap();
    assert_eq!(worlds.worlds().len(), 2);
    let steps = RunBudget::default().with_max_steps(0);
    assert_eq!(
        exhausted(g.accepts_within("allow", &steps)),
        Exhausted::Steps
    );
    assert_eq!(
        exhausted(session.worlds_within(&tree, &context, &steps)),
        Exhausted::Steps
    );
}

/// Examples and lookups share pairs: an example's parse tree under its
/// context is compiled once, and a later lookup of that pair reuses it.
#[test]
fn examples_and_lookups_share_worlds() {
    let mut session = cav_session(LearnOptions::default());
    let sample = cav::samples(1, 3).remove(0);
    let context = sample.context.to_program();
    let text = cav::policy_text(sample.task);
    session.add_negative(Example::in_context(&text, context.clone()));
    session.solve().ok();
    assert_eq!(
        session.world_stats(),
        WorldStats {
            lookups: 1,
            computed: 1,
            whole: 0,
            tree_parts: 1,
            context_parts: 1,
        }
    );
    let tree = EarleyParser::new(cav::grammar().cfg())
        .parse_text(&text)
        .remove(0);
    session
        .worlds_within(&tree, &context, &RunBudget::default())
        .unwrap();
    assert_eq!(
        session.world_stats(),
        WorldStats {
            lookups: 2,
            computed: 1,
            whole: 0,
            tree_parts: 1,
            context_parts: 1,
        }
    );
}

/// A pair's worlds as one `ground_with` and one solve of `G(C)[PT]` under
/// `budget` give them: each world's atoms, in order, and completeness; or
/// the error.
type Whole = Result<(Vec<Vec<Atom>>, bool), String>;

fn solved_whole(
    g: &Asg,
    tree: &ParseTree,
    context: &Program,
    max_worlds: usize,
    budget: &RunBudget,
) -> Whole {
    let options = GroundOptions::default()
        .with_max_atoms(budget.max_atoms)
        .with_deadline(budget.deadline);
    let ground = ground_with(&g.tree_program_in(tree, context), options).map_err(|e| {
        format!(
            "{:?}",
            match e.exhausted() {
                Some(kind) => AsgError::Exhausted(kind),
                None => AsgError::Ground(e),
            }
        )
    })?;
    let result = Solver::new()
        .max_models(max_worlds)
        .with_budget(budget)
        .solve(&ground);
    if let Some(kind) = result.exhausted() {
        return Err(format!("{:?}", AsgError::Exhausted(kind)));
    }
    let complete = result.complete();
    let worlds = result
        .into_models()
        .into_iter()
        .map(|m| World::from_atoms(m.into_atoms()).atoms().to_vec())
        .collect();
    Ok((worlds, complete))
}

/// A lookup's answer in [`solved_whole`]'s terms.
fn looked_up(result: Result<&TreeWorlds, AsgError>) -> Whole {
    result
        .map(|w| {
            let worlds = w.worlds().iter().map(|w| w.atoms().to_vec()).collect();
            (worlds, w.complete())
        })
        .map_err(|e| format!("{e:?}"))
}

fn parse(g: &Asg, text: &str) -> ParseTree {
    EarleyParser::new(g.cfg()).parse_text(text).remove(0)
}

/// CAV's four trees under three contexts: each tree's own program is
/// solved once, each context once (the trees share their node traces),
/// and every pair's worlds are those of one solve of `G(C)[PT]`.
#[test]
fn cav_pairs_are_built_from_one_part_per_tree_and_per_context() {
    let g = cav::grammar();
    let mut session = cav_session(LearnOptions::default());
    let trees: Vec<ParseTree> = cav::TASKS
        .iter()
        .map(|(task, _)| parse(&g, &cav::policy_text(task)))
        .collect();
    let contexts: Vec<Program> = cav::samples(3, 11)
        .iter()
        .map(|s| s.context.to_program())
        .collect();
    let budget = RunBudget::default();
    let max_worlds = CompileOptions::default().max_worlds;
    for round in 0..2 {
        for context in &contexts {
            for tree in &trees {
                let want = solved_whole(&g, tree, context, max_worlds, &budget);
                assert!(matches!(&want, Ok((worlds, true)) if worlds.len() == 1));
                let got = looked_up(session.worlds_within(tree, context, &budget));
                assert_eq!(got, want, "round {round}, {tree} in {{{context}}}");
            }
        }
    }
    assert_eq!(
        session.world_stats(),
        WorldStats {
            lookups: 24,
            computed: 12,
            whole: 0,
            tree_parts: 4,
            context_parts: 3,
        }
    );
}

/// Non-stratified trees and contexts: the product keeps the order in
/// which one solve of the union enumerates its worlds.
#[test]
fn products_keep_the_joint_world_order() {
    let g: Asg = r#"
        policy -> "a" choice { p(1) :- not p(2). p(2) :- not p(1). }
        choice -> "x" { q(1) :- not q(2). q(2) :- not q(1). r :- q(2). }
        choice -> "y" { r. }
    "#
    .parse()
    .unwrap();
    let contexts: [Program; 3] = [
        "c(1). d :- c(1).".parse().unwrap(),
        "c(1) :- not c(2). c(2) :- not c(1). :- c(2)."
            .parse()
            .unwrap(),
        "z(3). c(X) :- z(X).".parse().unwrap(),
    ];
    let mut session =
        LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
    let budget = RunBudget::default();
    for context in &contexts {
        for text in ["a x", "a y"] {
            let tree = parse(&g, text);
            let want = solved_whole(&g, &tree, context, 64, &budget);
            let got = looked_up(session.worlds_within(&tree, context, &budget));
            assert_eq!(got, want, "{text} in {{{context}}}");
        }
    }
    let stats = session.world_stats();
    assert_eq!(
        (stats.whole, stats.tree_parts, stats.context_parts),
        (0, 2, 3)
    );
}

/// An annotation that reads a context atom: the parts share a signature,
/// so the pair is solved whole, and no part is computed for it.
#[test]
fn parts_that_share_a_signature_are_solved_whole() {
    let g: Asg = r#"policy -> "a" { :- alert. }"#.parse().unwrap();
    let tree = parse(&g, "a");
    let mut session =
        LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
    let budget = RunBudget::default();
    for (context, admitted) in [("alert.", false), ("calm.", true)] {
        let context: Program = context.parse().unwrap();
        let want = solved_whole(&g, &tree, &context, 64, &budget);
        assert_eq!(want.as_ref().map(|(w, _)| !w.is_empty()), Ok(admitted));
        let got = looked_up(session.worlds_within(&tree, &context, &budget));
        assert_eq!(got, want, "{{{context}}}");
    }
    assert_eq!(
        session.world_stats(),
        WorldStats {
            lookups: 2,
            computed: 2,
            whole: 1,
            tree_parts: 1,
            context_parts: 1,
        }
    );
}

/// A context of ground facts is its own one world at a tree's node traces:
/// duplicate facts, facts of one signature out of order, traced facts and
/// the empty context each look up as one ground and solve of `G(C)[PT]`
/// finds them (worlds, atom order, completeness; and under an expired
/// deadline, the error), and an example under one costs its tree part's
/// grounding and solve alone: `context_parts` counts the part, the
/// learner's grounding passes and solver calls do not. An arithmetic head
/// (`c(1+2).`) is no fact, so that context is ground and solved.
#[test]
fn fact_contexts_are_their_own_world() {
    let g: Asg = r#"
        policy -> "a" item { ok. }
        item -> "x" { val(1). }
        item -> "y" { p :- not q. q :- not p. }
    "#
    .parse()
    .unwrap();
    let trees = [parse(&g, "a x"), parse(&g, "a y")];
    let tree_part = |tree: &ParseTree| {
        let (_, stats) =
            agenp_asp::ground_with_stats(&g.tree_program(tree), GroundOptions::default()).unwrap();
        stats.passes
    };
    let budget = RunBudget::default();
    let expired = RunBudget::default().with_deadline(Deadline::after(Duration::ZERO));
    for (context, facts) in [
        ("c(1). c(1). d(2). d(2).", true),
        ("c(3). c(1). c(2). d(b). d(a).", true),
        ("c(1)@1. c(2)@2. c(1). c(1)@2.", true),
        ("", true),
        ("c(1+2). c(1).", false),
    ] {
        let context: Program = context.parse().unwrap();
        let mut session =
            LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
        for tree in &trees {
            let at = format!("{tree} in {{{context}}}");
            let want = solved_whole(&g, tree, &context, 64, &budget);
            assert!(matches!(&want, Ok((_, true))), "{at}");
            let got = looked_up(session.worlds_within(tree, &context, &budget));
            assert_eq!(got, want, "{at}");
            let want = solved_whole(&g, tree, &context, 64, &expired);
            let got = looked_up(session.worlds_within(tree, &context, &expired));
            assert_eq!(got, want, "{at}, expired deadline");
        }
        // The two trees share their node traces, and so one context part.
        let stats = session.world_stats();
        assert_eq!(
            (stats.whole, stats.tree_parts, stats.context_parts),
            (0, 2, 1),
            "{{{context}}}"
        );

        let mut session =
            LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
        session.add_positive(Example::in_context("a x", context.clone()));
        let (_, stats) = session.solve().unwrap();
        assert_eq!(session.world_stats().context_parts, 1, "{{{context}}}");
        let context_part = u64::from(!facts);
        assert_eq!(stats.solver_calls, 1 + context_part, "{{{context}}}");
        let passes = tree_part(&trees[0]);
        if facts {
            assert_eq!(stats.grounding_passes, passes, "{{{context}}}");
        } else {
            assert!(stats.grounding_passes > passes, "{{{context}}}");
        }
    }
}

/// The budgets and caps under which a product could differ from one solve
/// of the union: each pair is solved whole and answers as
/// [`Asg::tree_admitted_within`] does.
#[test]
fn caps_the_product_could_miss_solve_the_whole_program() {
    let g: Asg = r#"
        policy -> "fact" { ok. }
        policy -> "loop" { p :- not q. q :- not p. }
    "#
    .parse()
    .unwrap();
    let context: Program = "c(1). c(2).".parse().unwrap();
    let plain = g.with_context(&context);
    let (fact, choice) = (parse(&g, "fact"), parse(&g, "loop"));
    let solved_whole_once = |max_worlds: usize, tree: &ParseTree, budget: &RunBudget| {
        let options = LearnOptions::default()
            .with_compile(CompileOptions::default().with_max_worlds(max_worlds));
        let mut session = LearningSession::new(g.clone(), HypothesisSpace::new(), options);
        let want = solved_whole(&g, tree, &context, max_worlds, budget);
        let got = looked_up(session.worlds_within(tree, &context, budget));
        let at = format!("{tree} under {budget:?}, world cap {max_worlds}");
        assert_eq!(got, want, "{at}");
        assert_eq!(session.world_stats().whole, 1, "{at}");
        assert_eq!(session.world_stats().context_parts, 0, "{at}");
        let admitted = plain
            .tree_admitted_within(tree, budget)
            .map_err(|e| format!("{e:?}"));
        assert_eq!(got.map(|(worlds, _)| !worlds.is_empty()), admitted, "{at}");
    };
    // One world under a cap of one: the product reaches the cap.
    solved_whole_once(1, &fact, &RunBudget::default());
    // Two worlds under a cap of two: the tree part is incomplete.
    solved_whole_once(2, &choice, &RunBudget::default());
    for tree in [&fact, &choice] {
        for budget in [
            RunBudget::default().with_max_steps(0),
            RunBudget::default().with_max_steps(100),
            RunBudget::default().with_max_atoms(1),
            RunBudget::default().with_max_atoms(100),
        ] {
            solved_whole_once(64, tree, &budget);
        }
    }

    // Under the default budget the same pairs are built from parts, and
    // changed compile options clear them.
    let mut session =
        LearningSession::new(g.clone(), HypothesisSpace::new(), LearnOptions::default());
    let budget = RunBudget::default();
    for tree in [&fact, &choice] {
        let want = solved_whole(&g, tree, &context, 64, &budget);
        assert_eq!(
            looked_up(session.worlds_within(tree, &context, &budget)),
            want
        );
    }
    let stats = session.world_stats();
    assert_eq!(
        (stats.whole, stats.tree_parts, stats.context_parts),
        (0, 2, 1)
    );
    session.set_options(
        LearnOptions::default().with_compile(CompileOptions::default().with_max_worlds(2)),
    );
    let want = solved_whole(&g, &fact, &context, 2, &budget);
    assert_eq!(
        looked_up(session.worlds_within(&fact, &context, &budget)),
        want
    );
    let stats = session.world_stats();
    assert_eq!(
        (stats.whole, stats.tree_parts, stats.context_parts),
        (0, 3, 2)
    );
}

/// A session that moves between the monotone and the generic path, by its
/// options and then by an example whose tree has more worlds than the cap,
/// answers every round as a fresh learn with the same options does. Every
/// option set has the same world cap, so changing options changes only
/// the path and keeps every entry's coverage.
#[test]
fn a_session_that_changes_path_matches_a_fresh_learn() {
    let g: Asg = r#"
        policy -> "allow" { act(allow). }
        policy -> "deny"  { act(deny). }
        policy -> "toss"  { e(1) :- not e(2). e(2) :- not e(1). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(0), ":- weather(rain)."),
        (ProdId::from_index(0), ":- wind(high)."),
        (ProdId::from_index(0), ":- weather(rain), wind(high)."),
        (ProdId::from_index(1), ":- weather(clear)."),
        (ProdId::from_index(1), ":- weather(clear), wind(low)."),
        (ProdId::from_index(2), ":- e(1)."),
    ]);
    let monotone =
        LearnOptions::default().with_compile(CompileOptions::default().with_max_worlds(1));
    let generic = monotone.with_force_generic(true);
    let example = |text: &str, weather: &str, wind: &str| {
        Example::in_context(
            text,
            format!("weather({weather}). wind({wind}).")
                .parse()
                .unwrap(),
        )
    };
    // (options, positives, negatives) added before each solve.
    let rounds = [
        (
            monotone,
            vec![example("allow", "clear", "low")],
            vec![example("allow", "rain", "low")],
        ),
        (
            monotone,
            vec![example("deny", "rain", "low")],
            vec![example("deny", "clear", "low")],
        ),
        (monotone, vec![example("deny", "clear", "high")], vec![]),
        (generic, vec![], vec![]),
        (generic, vec![], vec![example("allow", "clear", "high")]),
        (
            generic,
            vec![
                example("allow", "snow", "low"),
                example("allow", "clear", "low"),
            ],
            vec![example("allow", "snow", "high")],
        ),
        (
            generic,
            vec![example("allow", "rain", "high").with_penalty(2)],
            vec![],
        ),
        (monotone, vec![], vec![]),
        (
            monotone,
            vec![example("deny", "snow", "high")],
            vec![example("deny", "snow", "low").with_penalty(1)],
        ),
        // The tree of `toss` has two worlds, past the cap of one.
        (monotone, vec![example("toss", "clear", "low")], vec![]),
        (
            monotone,
            vec![],
            vec![example("toss", "rain", "low").with_penalty(1)],
        ),
    ];
    let mut session = LearningSession::new(g.clone(), space.clone(), monotone);
    let mut task = LearningTask::new(g, space);
    let mut paths = Vec::new();
    for (round, (options, positives, negatives)) in rounds.into_iter().enumerate() {
        session.set_options(options);
        for e in positives {
            session.add_positive(e.clone());
            task = task.pos(e);
        }
        for e in negatives {
            session.add_negative(e.clone());
            task = task.neg(e);
        }
        let (h, stats) = session.solve().expect("learnable");
        let (cold, cold_stats) = Learner::with_options(options)
            .learn_with_stats(&task)
            .expect("learnable");
        let at = format!("round {round}");
        assert_eq!(h.cost, cold.cost, "{at}");
        assert_eq!(h.rules, cold.rules, "{at}");
        assert_eq!(h.sacrificed, cold.sacrificed, "{at}");
        assert_eq!(stats.used_monotone, cold_stats.used_monotone, "{at}");
        assert_eq!(stats.worlds, cold_stats.worlds, "{at}");
        paths.push(stats.used_monotone);
    }
    assert_eq!(
        paths,
        [true, true, true, false, false, false, false, true, true, false, false]
    );
}
