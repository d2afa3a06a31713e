//! Differential suite: generation and PCP screening on a learning
//! session's worlds return what grounding every tree and string returns,
//! on seeded annotated grammars and on the CAV and XACML GPMs with a
//! learned hypothesis under generated contexts.

use agenp_asp::{Program, RunBudget};
use agenp_core::arch::{Ams, Feedback, FnTranslator, Pcp, Prep, RefreshPath};
use agenp_core::scenarios::{cav, xacml};
use agenp_learn::{LearnOptions, Learner, LearningSession};
use agenp_policy::{Category, Cond, Effect, PolicyRule};
use agenp_refsem::diff::{screened_on_trees, screened_on_worlds};
use agenp_refsem::run_generate_case;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn worlds_path_matches_the_trees_path_on_generated_tasks() {
    for seed in 0..256u64 {
        if let Err(msg) = run_generate_case(seed) {
            panic!("{msg}");
        }
    }
}

fn accept(text: &str, id: &str) -> Option<PolicyRule> {
    let task = text.strip_prefix("accept ")?;
    Some(PolicyRule::new(
        id,
        Effect::Permit,
        Cond::eq(Category::Action, "task", task),
    ))
}

/// The CAV AMS relearns round by round with a PCP restriction in place;
/// each round's refresh takes the worlds path, and refreshing under more
/// contexts returns what today's generate plus screen returns.
#[test]
fn cav_refreshes_match_the_trees_path_under_generated_contexts() {
    let restriction = (cav::accept_production(), ":- task_req(X), X > 3.");
    let mut ams = Ams::new("cav", cav::grammar(), cav::hypothesis_space());
    ams.set_translator(Box::new(FnTranslator(accept)));
    ams.pcp_mut()
        .add_restriction(restriction.0, restriction.1.parse().unwrap());
    let mut pcp = Pcp::new();
    pcp.add_restriction(restriction.0, restriction.1.parse().unwrap());
    let prep = Prep::new();
    let samples = cav::samples(24, 11);
    let mut rng = StdRng::seed_from_u64(7);
    for (round, pair) in samples.chunks(2).enumerate() {
        for s in pair {
            let text = cav::policy_text(s.task);
            let ctx = s.context.to_program();
            ams.observe(if s.accept {
                Feedback::valid(&text, ctx)
            } else {
                Feedback::invalid(&text, ctx)
            });
        }
        ams.set_context(cav::CavContext::random(&mut rng).to_program());
        let adaptation = ams.adapt().unwrap();
        assert_eq!(
            adaptation.refresh.path,
            RefreshPath::Worlds,
            "round {round}"
        );
        for _ in 0..4 {
            let context = cav::CavContext::random(&mut rng).to_program();
            ams.set_context(context.clone());
            let got = ams.refresh_policies().map_err(|e| e.to_string());
            let want = screened_on_trees(&prep, &pcp, ams.gpm(), &context);
            assert_eq!(got.ok(), want.ok(), "round {round}, context {context}");
        }
    }
}

/// A hypothesis learned from an XACML log, screened against a restriction
/// drawn from the same space, under contexts of generated requests.
#[test]
fn xacml_generation_matches_the_trees_path_under_generated_contexts() {
    let config = xacml::SpaceConfig::default();
    let log = xacml::generate_log(60, 5, 0.0);
    let task = xacml::learning_task(&log, config, xacml::NoiseHandling::Filter);
    let hypothesis = Learner::new().learn(&task).unwrap().rules;
    assert!(!hypothesis.is_empty());
    let gpm = task.grammar.with_added_rules(&hypothesis).unwrap();
    let space = xacml::hypothesis_space(config);
    let mut pcp = Pcp::new();
    let c = &space.candidates()[3];
    pcp.add_restriction(c.target, c.rule.clone());
    let prep = Prep::new();
    let mut session = LearningSession::new(task.grammar.clone(), space, LearnOptions::default());
    let mut rng = StdRng::seed_from_u64(3);
    let mut contexts: Vec<Program> = (0..40)
        .map(|_| xacml::XacmlRequest::random(&mut rng).context())
        .collect();
    contexts.push(Program::new());
    for context in &contexts {
        let want = screened_on_trees(&prep, &pcp, &gpm, context);
        let (got, path) = screened_on_worlds(&prep, &pcp, &gpm, context, &mut session, &hypothesis);
        assert_eq!(path, RefreshPath::Worlds, "context {context}");
        assert_eq!(got, want, "context {context}");
    }
    // Under a tight atom cap both fall back to, and fail on, the trees path.
    let tight = Prep {
        budget: RunBudget::default().with_max_atoms(1),
        ..Prep::new()
    };
    let context = &contexts[0];
    let want = screened_on_trees(&tight, &pcp, &gpm, context);
    let (got, path) = screened_on_worlds(&tight, &pcp, &gpm, context, &mut session, &hypothesis);
    assert_eq!(path, RefreshPath::Trees);
    assert_eq!(got, want);
    assert!(want.is_err());
}
