//! Which path a refresh takes, read from the `ams.refresh` span's `path`
//! field: the learned GPM reads the session's worlds, and a normal-rule
//! space, a non-constraint restriction, an adopted GPM, a tree over the
//! world cap and a step cap each take the trees path with the same
//! outcome as today's generate plus screen.
//!
//! Single-test file on purpose: the obs subsystem is a process-global
//! singleton, and this test reads the spans its own refreshes record.

use agenp_asp::{Program, RunBudget};
use agenp_core::arch::{Ams, Pcp, Prep, Verdict};
use agenp_grammar::{Asg, AsgError, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_obs::{FieldValue, ObsConfig};

fn gate() -> (Asg, HypothesisSpace) {
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
        (ProdId::from_index(1), ":- lockdown."),
        (ProdId::from_index(2), ":- not lockdown."),
    ]);
    (g, space)
}

/// The `path` of the newest `ams.refresh` span.
fn last_path() -> String {
    let spans = agenp_obs::recorder().snapshot();
    let refresh = spans
        .iter()
        .rev()
        .find(|s| s.name == "ams.refresh")
        .expect("a refresh was recorded");
    match refresh.fields.iter().find(|(k, _)| *k == "path") {
        Some((_, FieldValue::Str(path))) => path.clone(),
        other => panic!("ams.refresh has no path: {other:?}"),
    }
}

/// Refreshes `ams` and checks the outcome against today's generate plus
/// screen on its GPM, with `restrictions` in the PCP; returns the path.
fn refresh_matches_trees(ams: &mut Ams, restrictions: &Pcp) -> String {
    let got = ams.refresh_policies().map_err(|e| e.to_string());
    let prep = Prep {
        budget: *ams.run_budget(),
        ..Prep::new()
    };
    let want: Result<Vec<(String, Verdict)>, AsgError> = prep
        .generate(ams.gpm(), ams.context())
        .and_then(|s| restrictions.screen_within(ams.gpm(), ams.context(), &s, &prep.budget));
    assert_eq!(got.ok(), want.ok());
    last_path()
}

#[test]
fn refreshes_take_the_worlds_path_only_where_it_applies() {
    agenp_obs::install(ObsConfig::enabled());
    let lockdown: Program = "lockdown.".parse().unwrap();
    let none = Pcp::new();

    // The initial GPM is the session's grammar with an empty hypothesis.
    let (g, space) = gate();
    let mut ams = Ams::new("worlds", g.clone(), space.clone());
    ams.set_context(lockdown.clone());
    assert_eq!(refresh_matches_trees(&mut ams, &none), "worlds");

    // A GPM adopted from elsewhere is not the session's grammar plus H.
    ams.adopt_gpm(g.clone(), "shared");
    assert_eq!(refresh_matches_trees(&mut ams, &none), "trees");

    // A restriction that is not a constraint has no plan.
    let mut ams = Ams::new("rule", g.clone(), space.clone());
    let rule = (
        ProdId::from_index(1),
        "blocked :- lockdown.".parse().unwrap(),
    );
    ams.pcp_mut().add_restriction(rule.0, rule.1);
    let mut pcp = Pcp::new();
    pcp.add_restriction(
        ProdId::from_index(1),
        "blocked :- lockdown.".parse().unwrap(),
    );
    assert_eq!(refresh_matches_trees(&mut ams, &pcp), "trees");

    // A constraint restriction screens on the worlds.
    let mut ams = Ams::new("constraint", g.clone(), space.clone());
    ams.set_context(lockdown.clone());
    ams.pcp_mut()
        .add_restriction(ProdId::from_index(1), ":- lockdown.".parse().unwrap());
    let mut pcp = Pcp::new();
    pcp.add_restriction(ProdId::from_index(1), ":- lockdown.".parse().unwrap());
    assert_eq!(refresh_matches_trees(&mut ams, &pcp), "worlds");

    // A space with normal rules.
    let normal = HypothesisSpace::from_texts(&[(ProdId::from_index(1), "blocked :- lockdown.")]);
    let mut ams = Ams::new("normal", g.clone(), normal);
    assert_eq!(refresh_matches_trees(&mut ams, &none), "trees");

    // A solver step cap.
    let mut ams = Ams::new("steps", g, space);
    ams.set_run_budget(RunBudget::default().with_max_steps(1_000));
    assert_eq!(refresh_matches_trees(&mut ams, &none), "trees");

    // Six even loops give the tree 64 worlds, the default cap.
    let loops: String = (0..6)
        .map(|i| format!(" a{i} :- not b{i}. b{i} :- not a{i}."))
        .collect();
    let wide: Asg = format!("policy -> \"allow\" {{{loops} }}\npolicy -> \"deny\"")
        .parse()
        .unwrap();
    let mut ams = Ams::new("wide", wide, HypothesisSpace::new());
    assert_eq!(refresh_matches_trees(&mut ams, &none), "trees");
    agenp_obs::install(ObsConfig::disabled());
}
