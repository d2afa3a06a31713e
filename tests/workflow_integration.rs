//! End-to-end integration of the Fig. 1 / Fig. 2 loops across all crates:
//! grammar → examples → learner → generation → PDP decisions → feedback →
//! adaptation.

use agenp_core::arch::{Ams, Feedback, Verdict};
use agenp_core::scenarios::cav;
use agenp_grammar::{Asg, GenOptions, ProdId};
use agenp_learn::{Example, HypothesisSpace, Learner, LearningTask};
use agenp_policy::{Decision, Request};

#[test]
fn fig1_workflow_learns_and_generates() {
    // Initial GPM + examples → learned GPM, then generation per context.
    let initial: Asg = r#"
        policy -> "grant" level { lv(L) :- l(L)@2. }
        level -> "basic"    { l(1). }
        level -> "elevated" { l(2). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(0), ":- lv(V1), clearance(V2), V2 < V1."),
        (ProdId::from_index(0), ":- lv(V1), V1 >= 2."),
    ]);
    let c1: agenp_asp::Program = "clearance(1).".parse().unwrap();
    let c2: agenp_asp::Program = "clearance(2).".parse().unwrap();
    let task = LearningTask::new(initial.clone(), space)
        .pos(Example::in_context("grant basic", c1.clone()))
        .neg(Example::in_context("grant elevated", c1.clone()))
        .pos(Example::in_context("grant elevated", c2.clone()));
    let h = Learner::new().learn(&task).unwrap();
    assert_eq!(h.rules.len(), 1);
    let learned = h.apply(&initial);
    let lang1 = learned
        .with_context(&c1)
        .language(GenOptions::default())
        .unwrap();
    assert_eq!(lang1, vec!["grant basic"]);
    let lang2 = learned
        .with_context(&c2)
        .language(GenOptions::default())
        .unwrap();
    assert_eq!(lang2.len(), 2);
}

#[test]
fn ams_loop_with_canonical_policies() {
    let g: Asg = r#"
        policy -> effect "if" "subject" "clearance" "=" level
        effect -> "permit" { e(permit). }
        effect -> "deny"   { e(deny). }
        level -> "low"  { lvl(low). }
        level -> "high" { lvl(high). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(1), ":- alert."),
        (ProdId::from_index(2), ":- not alert."),
    ]);
    let mut ams = Ams::new("gate", g, space);

    // Quiet context: feedback says permits are valid, denies are not.
    let quiet: agenp_asp::Program = agenp_asp::Program::new();
    let alert: agenp_asp::Program = "alert.".parse().unwrap();
    for lvl in ["low", "high"] {
        ams.observe(Feedback::valid(
            &format!("permit if subject clearance = {lvl}"),
            quiet.clone(),
        ));
        ams.observe(Feedback::invalid(
            &format!("deny if subject clearance = {lvl}"),
            quiet.clone(),
        ));
        ams.observe(Feedback::invalid(
            &format!("permit if subject clearance = {lvl}"),
            alert.clone(),
        ));
        ams.observe(Feedback::valid(
            &format!("deny if subject clearance = {lvl}"),
            alert.clone(),
        ));
    }
    ams.set_context(quiet);
    let adaptation = ams.adapt().unwrap();
    assert_eq!(adaptation.hypothesis.rules.len(), 2);

    // In the quiet context only permit policies are generated.
    let screened = ams.refresh_policies().unwrap();
    let accepted: Vec<&String> = screened
        .iter()
        .filter(|(_, v)| *v == Verdict::Accepted)
        .map(|(s, _)| s)
        .collect();
    assert_eq!(accepted.len(), 2);
    assert!(accepted.iter().all(|s| s.starts_with("permit")));
    let req = Request::new().subject("clearance", "high");
    assert_eq!(ams.decide(&req).decision(), Decision::Permit);

    // Alert context: regenerate → only denies.
    ams.set_context(alert);
    ams.refresh_policies().unwrap();
    assert_eq!(ams.decide(&req).decision(), Decision::Deny);

    // The representations repository recorded both versions.
    assert_eq!(ams.representations().len(), 2);
}

#[test]
fn cav_scenario_learned_gpm_matches_oracle_closely() {
    let train = cav::samples(64, 3);
    let test = cav::samples(256, 4);
    let task = cav::learning_task(&train, None);
    let h = Learner::new().learn(&task).unwrap();
    // Definition 3 holds on the training set (verified with full semantics).
    assert!(task.violations(&h).unwrap().is_empty());
    let acc = cav::gpm_accuracy(&h.apply(&task.grammar), &test);
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn ams_adaptation_loop_improves_with_observations() {
    // The PAdaP loop on the CAV scenario: feedback accumulates across
    // rounds and each adaptation re-learns a better GPM.
    let mut ams = Ams::new("cav", cav::grammar(), cav::hypothesis_space());
    let test = cav::samples(150, 9999);
    let mut last_acc = 0.0;
    let mut improved = false;
    for round in 0..3u64 {
        for s in cav::samples(16, 100 + round) {
            let fb = if s.accept {
                Feedback::valid(&cav::policy_text(s.task), s.context.to_program())
            } else {
                Feedback::invalid(&cav::policy_text(s.task), s.context.to_program())
            };
            ams.observe(fb);
        }
        ams.adapt().expect("adaptation succeeds");
        let acc = cav::gpm_accuracy(ams.gpm(), &test);
        if acc > last_acc {
            improved = true;
        }
        last_acc = acc;
    }
    assert!(improved, "accuracy never improved across adaptation rounds");
    assert!(last_acc > 0.9, "final accuracy {last_acc}");
    // One GPM version per adaptation plus the initial one.
    assert_eq!(ams.representations().len(), 4);
    assert_eq!(ams.feedback_len(), 48);
}

#[test]
fn explainability_composes_with_the_learned_ams() {
    use agenp_core::explain::{explain_policy, PolicyExplanation};
    let mut ams = Ams::new("cav", cav::grammar(), cav::hypothesis_space());
    for s in cav::samples(64, 7) {
        let fb = if s.accept {
            Feedback::valid(&cav::policy_text(s.task), s.context.to_program())
        } else {
            Feedback::invalid(&cav::policy_text(s.task), s.context.to_program())
        };
        ams.observe(fb);
    }
    ams.adapt().expect("adaptation succeeds");
    let low = cav::CavContext {
        loa: 1,
        limit: 5,
        rain: false,
        emergency: false,
    };
    let e = explain_policy(ams.gpm(), &low.to_program(), "accept park").unwrap();
    match e {
        PolicyExplanation::Rejected { trees } => {
            assert!(!trees.is_empty());
            assert!(trees.iter().any(|t| !t.decisive.is_empty()));
        }
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn goal_violations_trigger_adaptation() {
    use agenp_core::arch::GoalPolicy;
    // A gate whose initial GPM generates both permit and deny policies; the
    // PBMS goal demands that requests are not left uncovered and that the
    // system doesn't deny everything.
    let g: Asg = r#"
        policy -> effect "if" "subject" "clearance" "=" level
        effect -> "permit" { e(permit). }
        effect -> "deny"   { e(deny). }
        level -> "low"  { lvl(low). }
        level -> "high" { lvl(high). }
    "#
    .parse()
    .unwrap();
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(0), ":- e(permit)@1, lvl(low)@6."),
        (ProdId::from_index(0), ":- e(deny)@1, lvl(high)@6."),
    ]);
    let mut ams = Ams::new("goaled", g, space);
    ams.set_goals(
        vec![GoalPolicy::at_least("availability", "grant_rate", 0.4)],
        8,
    );
    ams.refresh_policies().unwrap();

    // With both permit and deny rules generated, deny-overrides denies
    // everything: the availability goal is missed.
    let req_high = Request::new().subject("clearance", "high");
    for _ in 0..8 {
        assert_eq!(ams.decide(&req_high).decision(), Decision::Deny);
    }
    assert!(!ams.goal_violations().is_empty());

    // Feedback says: permits valid for high clearance, denies valid only
    // for low clearance. Off-goal → adaptation fires.
    let quiet = agenp_asp::Program::new();
    ams.observe(Feedback::valid(
        "permit if subject clearance = high",
        quiet.clone(),
    ));
    ams.observe(Feedback::invalid(
        "deny if subject clearance = high",
        quiet.clone(),
    ));
    ams.observe(Feedback::valid(
        "deny if subject clearance = low",
        quiet.clone(),
    ));
    ams.observe(Feedback::invalid(
        "permit if subject clearance = low",
        quiet.clone(),
    ));
    let adapted = ams.adapt_if_off_goal().unwrap();
    assert!(adapted.is_some(), "off-goal system must adapt");

    // Decisions now permit high clearance; the goal recovers.
    for _ in 0..8 {
        assert_eq!(ams.decide(&req_high).decision(), Decision::Permit);
    }
    assert!(ams.goal_violations().is_empty());
    // On-goal: no further adaptation.
    assert!(ams.adapt_if_off_goal().unwrap().is_none());
}

#[test]
fn scenario_translator_populates_the_policy_repo() {
    use agenp_core::arch::FnTranslator;
    use agenp_policy::{Category, Cond, Effect, PolicyRule};
    let mut ams = Ams::new("cav", cav::grammar(), cav::hypothesis_space());
    ams.set_translator(Box::new(FnTranslator(|text, id| {
        let task = text.strip_prefix("accept ")?;
        Some(PolicyRule::new(
            id,
            Effect::Permit,
            Cond::eq(Category::Action, "task", task),
        ))
    })));
    for s in cav::samples(48, 7) {
        let fb = if s.accept {
            Feedback::valid(&cav::policy_text(s.task), s.context.to_program())
        } else {
            Feedback::invalid(&cav::policy_text(s.task), s.context.to_program())
        };
        ams.observe(fb);
    }
    let calm = cav::CavContext {
        loa: 5,
        limit: 5,
        rain: false,
        emergency: false,
    };
    ams.set_context(calm.to_program());
    ams.adapt().unwrap();
    // All four tasks are acceptable in the calm context → four permit rules.
    assert_eq!(ams.policies().policies()[0].rules.len(), 4);
    let d = ams.decide(&Request::new().action("task", "park"));
    assert_eq!(d.decision(), Decision::Permit);
    // A restrictive context regenerates a smaller repository.
    let stormy = cav::CavContext {
        loa: 5,
        limit: 5,
        rain: true,
        emergency: false,
    };
    ams.set_context(stormy.to_program());
    ams.refresh_policies().unwrap();
    // Rain suspends the high-autonomy tasks; with 48 samples the learned
    // rain threshold may be 2 or 3, so 1–2 permit rules remain.
    let remaining = ams.policies().policies()[0].rules.len();
    assert!((1..=2).contains(&remaining), "remaining rules: {remaining}");
    let d2 = ams.decide(&Request::new().action("task", "park"));
    assert_ne!(d2.decision(), Decision::Permit);
    let d3 = ams.decide(&Request::new().action("task", "lane_keep"));
    assert_eq!(d3.decision(), Decision::Permit);
}
