//! Cross-crate property tests: the learner's output always satisfies
//! Definition 3 on its training set (verified with full ASG semantics), the
//! monotone, generic and meta-encoding learners agree, and scenario
//! encodings are mutually consistent.

use agenp_core::scenarios::{cav, resupply, xacml};
use agenp_learn::{LearnOptions, Learner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the sample, a successful learn satisfies Definition 3 on
    /// every training example (checked via full answer-set semantics).
    #[test]
    fn cav_learning_satisfies_def3(seed in 0u64..500, n in 4usize..40) {
        let train = cav::samples(n, seed);
        let task = cav::learning_task(&train, None);
        if let Ok(h) = Learner::new().learn(&task) {
            let violations = task.violations(&h).unwrap();
            prop_assert!(violations.is_empty(), "violations: {violations:?}");
        }
    }

    /// The monotone fast path and the generic subset search find hypotheses
    /// of the same optimal cost.
    #[test]
    fn learner_paths_agree_on_cost(seed in 0u64..200) {
        let train = cav::samples(5, seed);
        let task = cav::learning_task(&train, None);
        let fast = Learner::new().learn(&task);
        let slow = Learner::with_options(
            LearnOptions::default()
                .with_force_generic(true)
                .with_max_nodes(800_000),
        )
        .learn(&task);
        match (fast, slow) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.cost, b.cost),
            (Err(_), Err(_)) => {}
            // The generic subset search is exponential; running out of
            // budget on a task the fast path solves is legitimate.
            (Ok(_), Err(agenp_learn::LearnError::Budget)) => {}
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }

    /// XACML: `deny ∈ L(G(C))` after learning iff the translated policy
    /// denies — the two views of the learned model stay consistent.
    #[test]
    fn xacml_views_are_consistent(seed in 0u64..200) {
        let log = xacml::generate_log(60, seed, 0.0);
        let task = xacml::learning_task(
            &log,
            xacml::SpaceConfig::default(),
            xacml::NoiseHandling::Filter,
        );
        if let Ok(h) = Learner::new().learn(&task) {
            let gpm = h.apply(&task.grammar);
            let policy = xacml::learned_policy(&h.rules);
            for (req, _) in log.iter().take(20) {
                let in_lang = gpm.with_context(&req.context()).accepts("deny").unwrap();
                let denies =
                    policy.evaluate(&req.to_request()) == agenp_policy::Decision::Deny;
                prop_assert_eq!(in_lang, denies, "request {:?}", req);
            }
        }
    }

    /// Resupply plans: oracle validity always matches the *ground-truth*
    /// constraint set applied through the grammar machinery.
    #[test]
    fn resupply_oracle_matches_asg_encoding(
        t0 in 0i64..4, t1 in 0i64..4, t2 in 0i64..4,
        rain in any::<bool>(), appetite in 0i64..3,
    ) {
        use agenp_grammar::ProdId;
        let mission = resupply::Mission { threat: [t0, t1, t2], rain, appetite };
        // Hand-written ground-truth constraints on the plan production.
        let gt_rules: Vec<(ProdId, agenp_asp::Rule)> = [
            ":- my_threat(V1), appetite(V2), V2 < V1.",
            ":- weather(rain), my_route(east).",
            ":- my_slot(night), my_threat(V1), V1 >= 1.",
        ]
        .iter()
        .map(|s| (resupply::plan_production(), s.parse().unwrap()))
        .collect();
        let gt_gpm = resupply::grammar().with_added_rules(&gt_rules).unwrap();
        let g = gt_gpm.with_context(&mission.to_program());
        for plan in resupply::Plan::all() {
            let admitted = g.accepts(&plan.text()).unwrap();
            prop_assert_eq!(
                admitted,
                resupply::oracle(mission, plan),
                "mission {:?} plan {:?}", mission, plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All three learner backends (monotone branch-and-bound, generic
    /// subset search, ASP meta-encoding) agree on the optimal cost.
    #[test]
    fn three_learner_backends_agree(seed in 0u64..100) {
        let train = cav::samples(5, seed);
        let task = cav::learning_task(&train, None);
        let native = Learner::new().learn(&task);
        let meta = Learner::new().learn_meta(&task);
        let generic = Learner::with_options(
            LearnOptions::default()
                .with_force_generic(true)
                .with_max_nodes(2_000_000),
        )
        .learn(&task);
        match (native, meta, generic) {
            (Ok(a), Ok(b), Ok(c)) => {
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.cost, c.cost);
                prop_assert!(task.violations(&b).unwrap().is_empty());
            }
            (Err(_), Err(_), Err(_)) => {}
            // Budget exhaustion of the exponential backends is legitimate;
            // when two backends do produce optima they must agree.
            (Ok(a), Ok(b), Err(agenp_learn::LearnError::Budget)) => {
                prop_assert_eq!(a.cost, b.cost);
            }
            (Ok(a), Err(agenp_learn::LearnError::Budget), Ok(c)) => {
                prop_assert_eq!(a.cost, c.cost);
            }
            (Ok(_), Err(agenp_learn::LearnError::Budget), Err(agenp_learn::LearnError::Budget)) => {}
            other => prop_assert!(false, "backends disagree: {other:?}"),
        }
    }

    /// The meta encoding on soft, noisy examples, each observed twice:
    /// repeats share one session entry but stay separate examples. It finds
    /// the native learner's optimal cost, ignores `force_generic`, and its
    /// `sacrificed` lists exactly the examples full ASG semantics says its
    /// hypothesis violates.
    #[test]
    fn meta_learns_soft_and_repeated_examples(seed in 0u64..100) {
        let mut samples = cav::samples(5, seed);
        cav::inject_noise(&mut samples, 0.3, seed);
        let repeated: Vec<cav::Sample> = samples.iter().chain(&samples).cloned().collect();
        let task = cav::learning_task(&repeated, Some(1));
        let native = Learner::new().learn(&task).unwrap();
        let meta = Learner::new().learn_meta(&task).unwrap();
        let forced = Learner::with_options(LearnOptions::default().with_force_generic(true))
            .learn_meta(&task)
            .unwrap();
        prop_assert_eq!(meta.cost, native.cost);
        prop_assert_eq!(&meta.rules, &forced.rules);
        prop_assert_eq!(meta.cost, forced.cost);
        prop_assert_eq!(&meta.sacrificed, &forced.sacrificed);
        prop_assert_eq!(meta.sacrificed, task.violations(&meta).unwrap());
    }
}
