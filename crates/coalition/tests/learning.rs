//! The coalition learning round under faults: parties learn on the
//! deterministic simulation substrate while a `ChaosPlan` crashes,
//! degrades, and drops their reports. Run directly with
//! `cargo test -p agenp-coalition --test learning`.

use agenp_coalition::sim::{learning_round, ChaosPlan, CrashWave, DegradedWave, RETRY_INTERVAL};
use agenp_coalition::{
    distributed_cav_learning, CasWiki, CoalitionConfig, CoalitionError, CoalitionOutcome,
    NodeOutcome,
};

const N_NODES: usize = 5;
const SAMPLES: usize = 40;

/// Party 1 sits out the whole round in a crash wave, a short degraded
/// wave fails party 2's first attempt, and light loss, duplication and
/// jitter hit the first exchange of reports and acknowledgements.
fn degraded_plan() -> ChaosPlan {
    ChaosPlan {
        loss: 0.1,
        duplicate: 0.1,
        base_delay: 1,
        jitter: 2,
        chaos_until: RETRY_INTERVAL,
        crash_waves: vec![CrashWave {
            at: 0,
            restart_after: 3 * RETRY_INTERVAL,
            modulo: 5,
            phase: 1,
        }],
        degraded_waves: vec![DegradedWave {
            from: 0,
            until: 1,
            modulo: 5,
            phase: 2,
        }],
        ..ChaosPlan::none()
    }
}

fn run(cfg: &CoalitionConfig) -> (Result<CoalitionOutcome, CoalitionError>, CasWiki) {
    let wiki = CasWiki::new();
    (learning_round(cfg, &wiki), wiki)
}

#[test]
fn faulty_coalition_degrades_gracefully_and_deterministically() {
    for seed in [7u64, 11, 13] {
        let cfg = CoalitionConfig::new(N_NODES, SAMPLES, seed)
            .quorum(4)
            .plan(degraded_plan());
        let (outcome, wiki) = run(&cfg);
        let outcome = outcome.expect("4 of 5 parties succeed, meeting the quorum");

        // Degraded but successful: the crashed party is reported, everyone
        // else delivered.
        assert!(outcome.degraded, "seed {seed}: one party is down");
        assert_eq!(outcome.successes(), 4, "seed {seed}");
        assert_eq!(outcome.reports().len(), 4, "seed {seed}");
        assert_eq!(outcome.quorum, 4);
        match &outcome.nodes[1] {
            NodeOutcome::Failed { name, reason } => {
                assert_eq!(name, "party-1");
                assert!(reason.contains("crash"), "seed {seed}: reason {reason:?}");
            }
            other => panic!("seed {seed}: party-1 should fail, got {other:?}"),
        }

        // The degraded wave cost party 2 exactly its first attempt.
        assert_eq!(outcome.nodes[2].retries(), 1, "seed {seed}");
        for r in outcome.reports() {
            assert!(r.learned_rules > 0, "seed {seed}: {}", r.name);
            assert!(r.accuracy > 0.8, "seed {seed}: {} {}", r.name, r.accuracy);
        }

        // Each successful party's batch reached the wiki exactly once, for
        // all the retries, duplicates and re-sent reports.
        assert_eq!(wiki.len(), 4 * SAMPLES, "seed {seed}");

        // A second run from the same seed replays the round exactly.
        let (again, wiki_again) = run(&cfg);
        let again = again.expect("the replay meets the quorum too");
        assert_eq!(outcome.trace_hash, again.trace_hash, "seed {seed}");
        // Accuracies are `correct / 150`, never NaN or -0.0, so equal
        // reports have bit-identical accuracies.
        assert_eq!(outcome.nodes, again.nodes, "seed {seed}");
        assert_eq!(wiki.len(), wiki_again.len(), "seed {seed}");
    }
}

#[test]
fn quorum_not_met_is_a_typed_error_with_diagnostics() {
    // Quorum of 5 cannot be met with party 1 down all round.
    let cfg = CoalitionConfig::new(N_NODES, SAMPLES, 7)
        .quorum(5)
        .plan(degraded_plan());
    let (result, _) = run(&cfg);
    let CoalitionError::QuorumNotMet {
        successes,
        quorum,
        nodes,
    } = result.expect_err("a party down all round cannot meet a full quorum");
    assert_eq!(successes, 4);
    assert_eq!(quorum, 5);
    assert_eq!(nodes.len(), 5);
    assert!(!nodes[1].is_ok());
}

#[test]
fn whole_round_degraded_wave_fails_every_party_without_panicking() {
    let plan = ChaosPlan {
        degraded_waves: vec![DegradedWave {
            from: 0,
            until: u64::MAX,
            modulo: 1,
            phase: 0,
        }],
        ..ChaosPlan::none()
    };

    // Quorum 0: the round "succeeds" with zero successes — fully degraded.
    let cfg = CoalitionConfig::new(3, 30, 5).quorum(0).plan(plan.clone());
    let (outcome, wiki) = run(&cfg);
    let outcome = outcome.expect("quorum 0 is always met");
    assert!(outcome.degraded);
    assert_eq!(outcome.successes(), 0);
    for node in &outcome.nodes {
        match node {
            NodeOutcome::Failed { reason, .. } => {
                assert!(reason.contains("degraded"), "reason {reason:?}");
            }
            other => panic!("expected a degraded-wave failure, got {other:?}"),
        }
    }
    assert!(wiki.is_empty(), "no party got far enough to contribute");

    // Any positive quorum turns it into a typed error.
    let (result, _) = run(&cfg.quorum(1));
    let CoalitionError::QuorumNotMet { successes, .. } =
        result.expect_err("nobody learns through a whole-round degraded wave");
    assert_eq!(successes, 0);
}

#[test]
fn faultless_round_matches_distributed_learning() {
    let (outcome, wiki) = run(&CoalitionConfig::new(3, SAMPLES, 5));
    let outcome = outcome.expect("a faultless round meets a full quorum");
    assert!(!outcome.degraded);
    assert_eq!(outcome.total_retries(), 0);

    let reference_wiki = CasWiki::new();
    let reference: Vec<_> = distributed_cav_learning(3, SAMPLES, 5, &reference_wiki)
        .into_iter()
        .map(NodeOutcome::Ok)
        .collect();
    assert_eq!(outcome.nodes, reference);
    assert_eq!(wiki.len(), 3 * SAMPLES);
    assert_eq!(reference_wiki.len(), 3 * SAMPLES);
}

/// Every report of the first exchange is lost, then a crash wipes what
/// party 0 learned. On its retry party 0 relearns while party 1 re-sends
/// what it holds, and both deliver exactly the reports a faultless round
/// produces.
#[test]
fn crash_wiped_party_relearns_the_same_report() {
    let plan = ChaosPlan {
        loss: 1.0,
        chaos_until: 1,
        crash_waves: vec![CrashWave {
            at: 1,
            restart_after: 4,
            modulo: 2,
            phase: 0,
        }],
        ..ChaosPlan::none()
    };
    let (outcome, wiki) = run(&CoalitionConfig::new(2, 30, 3).plan(plan));
    let outcome = outcome.expect("both parties deliver on their retry");
    let faultless: Vec<_> = distributed_cav_learning(2, 30, 3, &CasWiki::new())
        .into_iter()
        .map(|r| NodeOutcome::Retried(r, 1))
        .collect();
    assert_eq!(outcome.nodes, faultless);
    assert_eq!(wiki.len(), 2 * 30);
}
