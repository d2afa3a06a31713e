//! End-to-end tests of the context-dependent ASG learner (Definition 3),
//! including monotone/generic path agreement, minimality and noise
//! handling.

use agenp_asp::Program;
use agenp_grammar::{Asg, ProdId};
use agenp_learn::{Example, HypothesisSpace, LearnError, LearnOptions, Learner, LearningTask};

fn pid(i: usize) -> ProdId {
    ProdId::from_index(i)
}

/// A two-policy language: `allow` / `deny`, with weather context facts.
fn weather_grammar() -> Asg {
    r#"
        policy -> "allow" { act(allow). }
        policy -> "deny"  { act(deny). }
    "#
    .parse()
    .unwrap()
}

fn ctx(facts: &str) -> Program {
    facts.parse().unwrap()
}

fn weather_space() -> HypothesisSpace {
    HypothesisSpace::from_texts(&[
        (pid(0), ":- weather(rain)."),
        (pid(0), ":- weather(clear)."),
        (pid(1), ":- weather(rain)."),
        (pid(1), ":- weather(clear)."),
    ])
}

#[test]
fn learns_context_dependent_constraint() {
    // allow is invalid in rain; deny is always fine.
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .pos(Example::in_context("deny", ctx("weather(rain).")))
        .pos(Example::in_context("deny", ctx("weather(clear).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.cost, 1);
    assert_eq!(h.rules.len(), 1);
    assert_eq!(h.rules[0].0, pid(0));
    assert_eq!(h.rules[0].1.to_string(), ":- weather(rain).");
    assert!(task.violations(&h).unwrap().is_empty());
}

#[test]
fn learned_grammar_generalizes_to_def3_semantics() {
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    let h = Learner::new().learn(&task).unwrap();
    let g = h.apply(&task.grammar);
    assert!(g
        .with_context(&ctx("weather(clear)."))
        .accepts("allow")
        .unwrap());
    assert!(!g
        .with_context(&ctx("weather(rain)."))
        .accepts("allow")
        .unwrap());
    // deny untouched
    assert!(g
        .with_context(&ctx("weather(rain)."))
        .accepts("deny")
        .unwrap());
}

#[test]
fn monotone_and_generic_paths_agree() {
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .pos(Example::in_context("deny", ctx("weather(rain).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")))
        .neg(Example::in_context("deny", ctx("weather(clear).")));
    let fast = Learner::new().learn(&task).unwrap();
    let slow = Learner::with_options(LearnOptions::default().with_force_generic(true))
        .learn(&task)
        .unwrap();
    assert_eq!(fast.cost, slow.cost);
    assert!(task.violations(&fast).unwrap().is_empty());
    assert!(task.violations(&slow).unwrap().is_empty());
}

#[test]
fn both_paths_bind_either_side_of_an_equality() {
    // `X + 1 = Y` binds `Y` as `Y = X + 1` does, the grounder's rule, so
    // the monotone path learns what the generic path learns.
    let g: Asg = r#"
        policy -> "a" { n(3). }
        policy -> "b" { n(1). }
    "#
    .parse()
    .unwrap();
    for rule in [":- n(X), X + 1 = Y, Y > 3.", ":- n(X), Y = X + 1, Y > 3."] {
        let task = LearningTask::new(g.clone(), HypothesisSpace::from_texts(&[(pid(0), rule)]))
            .neg(Example::new("a"))
            .pos(Example::new("b"));
        let fast = Learner::new().learn(&task).unwrap();
        let slow = Learner::with_options(LearnOptions::default().with_force_generic(true))
            .learn(&task)
            .unwrap();
        assert_eq!(fast.rules, slow.rules, "{rule}");
        assert_eq!(fast.rules.len(), 1, "{rule}");
        assert!(task.violations(&fast).unwrap().is_empty(), "{rule}");
    }
}

#[test]
fn unsatisfiable_tasks_are_reported() {
    // The same string in the same context both positive and negative.
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(rain).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    match Learner::new().learn(&task) {
        Err(LearnError::Unsatisfiable) => {}
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn noise_is_sacrificed_when_cheaper() {
    // One mislabelled example with a small penalty: the learner should pay
    // it instead of failing.
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(rain).")).with_penalty(2))
        .neg(Example::in_context("allow", ctx("weather(rain).")))
        .pos(Example::in_context("allow", ctx("weather(clear).")));
    let h = Learner::new().learn(&task).unwrap();
    // `:- weather(rain).` on allow (cost 1) + sacrificed positive (2) = 3.
    assert_eq!(h.cost, 3);
    assert_eq!(h.sacrificed, vec![(true, 0)]);
}

#[test]
fn hard_examples_beat_soft_conflicts() {
    // A soft negative conflicting with a hard positive: sacrifice the soft.
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(rain).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")).with_penalty(4));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.cost, 4);
    assert!(h.rules.is_empty());
    assert_eq!(h.sacrificed, vec![(false, 0)]);
}

#[test]
fn minimality_prefers_fewest_literals() {
    // Both a 1-literal and a 2-literal rule would work; the learner must
    // pick the shorter.
    let space = HypothesisSpace::from_texts(&[
        (pid(0), ":- weather(rain), act(allow)."),
        (pid(0), ":- weather(rain)."),
    ]);
    let task = LearningTask::new(weather_grammar(), space)
        .neg(Example::in_context("allow", ctx("weather(rain).")))
        .pos(Example::in_context("allow", ctx("weather(clear).")));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.cost, 1);
    assert_eq!(h.rules[0].1.to_string(), ":- weather(rain).");
}

#[test]
fn generic_path_learns_normal_rules() {
    // Space contains a normal rule that *enables* acceptance: the start
    // production requires `ok`, and the hypothesis must derive it.
    let g: Asg = r#"
        policy -> "allow" { :- not ok. }
        policy -> "deny"
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[(pid(0), "ok :- sunny."), (pid(0), "ok :- rainy.")]);
    let task = LearningTask::new(g, space)
        .pos(Example::in_context("allow", ctx("sunny.")))
        .neg(Example::in_context("allow", ctx("rainy.")));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.rules.len(), 1);
    assert_eq!(h.rules[0].1.to_string(), "ok :- sunny.");
    assert!(task.violations(&h).unwrap().is_empty());
}

#[test]
fn annotated_hypothesis_rules_reach_child_atoms() {
    // Grammar with structure: policy -> verb; constraints can inspect @1.
    let g: Asg = r#"
        policy -> verb
        verb -> "allow" { act(allow). }
        verb -> "deny"  { act(deny). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (pid(0), ":- act(allow)@1, risky."),
        (pid(0), ":- act(deny)@1, risky."),
    ]);
    let task = LearningTask::new(g, space)
        .neg(Example::in_context("allow", ctx("risky.")))
        .pos(Example::in_context("deny", ctx("risky.")))
        .pos(Example::in_context("allow", ctx("calm.")));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.rules[0].1.to_string(), ":- act(allow)@1, risky.");
    assert!(task.violations(&h).unwrap().is_empty());
}

#[test]
fn variables_in_candidates_generalize() {
    // Learn a single rule with a variable instead of two ground rules.
    let g: Asg = r#"
        policy -> "grant" { act(grant). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (pid(0), ":- level(V1), V1 < 3."),
        (pid(0), ":- level(1)."),
        (pid(0), ":- level(2)."),
    ]);
    let task = LearningTask::new(g, space)
        .neg(Example::in_context("grant", ctx("level(1).")))
        .neg(Example::in_context("grant", ctx("level(2).")))
        .pos(Example::in_context("grant", ctx("level(3).")));
    let h = Learner::new().learn(&task).unwrap();
    // The variable rule covers both negatives at cost 2, beating 1+1 ground
    // rules only on rule count; costs tie at 2 — either is acceptable, but
    // coverage must be exact.
    assert!(task.violations(&h).unwrap().is_empty());
    assert!(h.cost <= 2);
}

#[test]
fn empty_space_with_consistent_examples() {
    let task = LearningTask::new(weather_grammar(), HypothesisSpace::new())
        .pos(Example::in_context("allow", ctx("weather(clear).")));
    let h = Learner::new().learn(&task).unwrap();
    assert!(h.rules.is_empty());
    assert_eq!(h.cost, 0);
}

#[test]
fn unparseable_positive_is_unsatisfiable() {
    let task =
        LearningTask::new(weather_grammar(), weather_space()).pos(Example::new("no such policy"));
    match Learner::new().learn(&task) {
        Err(LearnError::Unsatisfiable) => {}
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn unsafe_candidate_is_rejected() {
    let space = HypothesisSpace::from_texts(&[(pid(0), ":- not weather(V1).")]);
    let task = LearningTask::new(weather_grammar(), space)
        .pos(Example::in_context("allow", ctx("weather(clear).")));
    match Learner::new().learn(&task) {
        Err(LearnError::UnsafeCandidate(_)) => {}
        other => panic!("expected UnsafeCandidate, got {other:?}"),
    }
}

#[test]
fn bad_target_is_rejected() {
    let space = HypothesisSpace::from_texts(&[(pid(7), ":- weather(rain).")]);
    let task = LearningTask::new(weather_grammar(), space)
        .pos(Example::in_context("allow", ctx("weather(clear).")));
    match Learner::new().learn(&task) {
        Err(LearnError::BadTarget(7)) => {}
        other => panic!("expected BadTarget, got {other:?}"),
    }
}

#[test]
fn stats_report_the_search_shape() {
    use agenp_learn::Branching;
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    let (h, stats) = Learner::new().learn_with_stats(&task).unwrap();
    assert!(stats.used_monotone);
    assert_eq!(stats.candidates, 4);
    assert_eq!(stats.worlds, 2);
    assert!(stats.search_nodes >= 1);
    assert_eq!(h.cost, 1);
    // Guided and cost-first branching agree on optimal cost.
    let cf = Learner::with_options(LearnOptions::default().with_branching(Branching::CostFirst))
        .learn(&task)
        .unwrap();
    assert_eq!(cf.cost, h.cost);
}

#[test]
fn expired_deadline_aborts_monotone_learning() {
    use agenp_asp::{Deadline, Exhausted};
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    let learner = Learner::with_options(
        LearnOptions::default().with_deadline(Deadline::after(std::time::Duration::ZERO)),
    );
    match learner.learn(&task) {
        Err(LearnError::Exhausted(Exhausted::Deadline)) => {}
        other => panic!("expected Exhausted(Deadline), got {other:?}"),
    }
}

#[test]
fn expired_deadline_aborts_generic_learning() {
    use agenp_asp::{Deadline, Exhausted};
    let task = LearningTask::new(weather_grammar(), weather_space())
        .pos(Example::in_context("allow", ctx("weather(clear).")))
        .neg(Example::in_context("allow", ctx("weather(rain).")));
    let learner = Learner::with_options(
        LearnOptions::default()
            .with_force_generic(true)
            .with_deadline(Deadline::after(std::time::Duration::ZERO)),
    );
    match learner.learn(&task) {
        Err(LearnError::Exhausted(Exhausted::Deadline)) => {}
        other => panic!("expected Exhausted(Deadline), got {other:?}"),
    }
}

#[test]
fn world_cap_falls_back_to_generic_path() {
    use agenp_learn::{CompileOptions, LearnOptions};
    // The base program for `allow` has 4 answer sets (two free choices);
    // with max_worlds = 2 the monotone path is unsound and must be skipped.
    let g: Asg = r#"
        policy -> "allow" {
            x1 :- not y1. y1 :- not x1.
            x2 :- not y2. y2 :- not x2.
            act(allow).
        }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[(pid(0), ":- storm.")]);
    let task = LearningTask::new(g, space)
        .pos(Example::in_context("allow", ctx("calm.")))
        .neg(Example::in_context("allow", ctx("storm.")));
    let opts = LearnOptions::default().with_compile(
        CompileOptions::default()
            .with_max_trees(4)
            .with_max_worlds(2),
    );
    let (h, stats) = Learner::with_options(opts).learn_with_stats(&task).unwrap();
    assert!(
        !stats.used_monotone,
        "capped worlds must disable the fast path"
    );
    assert_eq!(h.rules[0].1.to_string(), ":- storm.");
    assert!(task.violations(&h).unwrap().is_empty());
}

/// A generic-path task (normal rules in the space) for the evaluation-cache
/// and grounder ablation tests.
fn generic_task() -> LearningTask {
    let g: Asg = r#"
        policy -> "allow" { :- not ok. }
        policy -> "deny"
    "#
    .parse()
    .unwrap();
    // The last candidate targets the `deny` production, which no example
    // parses through, so it never changes whether an example is covered.
    let space = HypothesisSpace::from_texts(&[
        (pid(0), "ok :- sunny."),
        (pid(0), "ok :- rainy."),
        (pid(1), "aux :- ok."),
    ]);
    LearningTask::new(g, space)
        .pos(Example::in_context("allow", ctx("sunny.")))
        .neg(Example::in_context("allow", ctx("rainy.")))
}

#[test]
fn generic_search_finds_the_optimum() {
    let task = generic_task();
    let (h, stats) = Learner::with_options(LearnOptions::default().with_force_generic(true))
        .learn_with_stats(&task)
        .unwrap();
    assert!(!stats.used_monotone);
    let rules: Vec<(ProdId, String)> = h.rules.iter().map(|(p, r)| (*p, r.to_string())).collect();
    assert_eq!(rules, vec![(pid(0), "ok :- sunny.".to_string())]);
    assert_eq!(h.cost, 2);
    assert!(task.violations(&h).unwrap().is_empty());
}
