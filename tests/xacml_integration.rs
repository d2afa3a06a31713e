//! Cross-crate integration for the XACML case study: symbolic learning →
//! enforceable policies → PDP decisions → PCP quality assessment.

use agenp_core::scenarios::xacml::{self, NoiseHandling, SpaceConfig, XacmlRequest};
use agenp_learn::Learner;
use agenp_policy::{
    evaluate_policies, CombiningAlg, Decision, PolicyRepository, QualityChecker, Request,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn learned_policies_drive_a_pdp() {
    let log = xacml::generate_log(120, 7, 0.0);
    let task = xacml::learning_task(&log, SpaceConfig::default(), NoiseHandling::Filter);
    let h = Learner::new().learn(&task).unwrap();
    let policy = xacml::learned_policy(&h.rules);

    let mut repo = PolicyRepository::new();
    repo.add(policy);

    // The learned PDP agrees with the oracle on fresh requests.
    let mut rng = StdRng::seed_from_u64(404);
    let mut agree = 0;
    for _ in 0..200 {
        let r = XacmlRequest::random(&mut rng);
        let d = evaluate_policies(
            repo.policies(),
            CombiningAlg::DenyOverrides,
            &r.to_request(),
        );
        if d == xacml::oracle(&r) {
            agree += 1;
        }
    }
    assert!(agree >= 195, "agreement {agree}/200");
}

#[test]
fn learned_policy_set_quality_is_clean_on_covered_space() {
    let log = xacml::generate_log(150, 11, 0.0);
    let task = xacml::learning_task(&log, SpaceConfig::default(), NoiseHandling::Filter);
    let h = Learner::new().learn(&task).unwrap();
    let policy = xacml::learned_policy(&h.rules);

    let mut rng = StdRng::seed_from_u64(42);
    let space: Vec<Request> = (0..100)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let report = QualityChecker::new().assess(&[policy], &space);
    // Completeness: the default-deny covers everything.
    assert!((report.completeness - 1.0).abs() < 1e-9, "{report}");
    // Consistency: permit rules conflict with the default deny on permitted
    // requests — that's inherent to the permit-overrides encoding, so
    // conflicts are with the default rule only.
    for c in &report.conflicts {
        assert_eq!(c.deny_rule.1, "default-deny", "unexpected conflict {c}");
    }
}

#[test]
fn ground_truth_policy_quality_baseline() {
    let gt = xacml::ground_truth_policy();
    let mut rng = StdRng::seed_from_u64(1);
    let space: Vec<Request> = (0..150)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let report = QualityChecker::new().assess(&[gt], &space);
    assert!((report.completeness - 1.0).abs() < 1e-9);
    // Every ground-truth rule is relevant on a large enough space.
    assert!(
        report.irrelevant.is_empty(),
        "irrelevant: {:?}",
        report.irrelevant
    );
}

#[test]
fn decisions_translate_to_contexts_and_back() {
    // request → ASP context → GPM membership must match request → PDP.
    let log = xacml::generate_log(100, 23, 0.0);
    let task = xacml::learning_task(&log, SpaceConfig::default(), NoiseHandling::Filter);
    let h = Learner::new().learn(&task).unwrap();
    let gpm = h.apply(&task.grammar);
    let policy = xacml::learned_policy(&h.rules);

    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..60 {
        let r = XacmlRequest::random(&mut rng);
        let deny_in_language = gpm.with_context(&r.context()).accepts("deny").unwrap();
        let pdp_decision = policy.evaluate(&r.to_request());
        // `deny ∈ L(G(C))` ⟺ the PDP denies.
        assert_eq!(
            deny_in_language,
            pdp_decision == Decision::Deny,
            "mismatch on {r:?}"
        );
    }
}
