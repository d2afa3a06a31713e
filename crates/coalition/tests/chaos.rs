//! Determinism and invariant regression tests for the chaos fabric.
//!
//! The fabric's headline contract is reproducibility: a run is a pure
//! function of `(seed, scenario)`. These tests pin that down at a fleet
//! size small enough for CI (the 1,000-party runs live in the
//! `coalition` bench bin's `--smoke` mode) and assert the continuously
//! checked invariants hold across the whole scenario suite.

use agenp_coalition::sim::{run_scenario, run_scenario_with, RunConfig, Scenario};

const SEED: u64 = 42;
const FLEET: usize = 96;

/// Identical `(seed, scenario)` runs must be byte-identical: same trace
/// hash, same recorded trace lines, same counters, same served corpus.
#[test]
fn identical_seed_and_scenario_reproduce_byte_identical_traces() {
    for scenario in Scenario::all(FLEET) {
        let record = RunConfig { record_trace: true };
        let a = run_scenario_with(SEED, &scenario, record, None);
        let b = run_scenario_with(SEED, &scenario, record, None);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "{}: trace hash diverged across identical runs",
            scenario.name
        );
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(
            ta.len(),
            tb.len(),
            "{}: trace length diverged",
            scenario.name
        );
        for (i, (la, lb)) in ta.iter().zip(tb).enumerate() {
            assert_eq!(la, lb, "{}: trace line {i} diverged", scenario.name);
        }
        assert_eq!(a.stats, b.stats, "{}: counters diverged", scenario.name);
        assert_eq!(a.head, b.head, "{}: final head diverged", scenario.name);
        assert_eq!(
            a.served, b.served,
            "{}: served corpus diverged",
            scenario.name
        );
    }
}

/// Replays stay byte-identical across versions of the code, not only
/// within one build: the seed-42 trace hash of every scenario is pinned.
/// A change to the fabric, the chaos layer or the trace format that moves
/// any of these breaks replay of recorded runs.
#[test]
fn seed_42_trace_hashes_are_pinned_across_versions() {
    let pinned = [
        ("data-sharing", 0xaa90_17d0_67e5_7a8b_u64),
        ("partition-storm", 0x7017_27a8_3a60_fa4b),
        ("mass-reground", 0x1d33_ee6f_fe8e_9de0),
        ("crash-restart", 0x7bf6_f748_5e80_6a95),
    ];
    let scenarios = Scenario::all(FLEET);
    assert_eq!(scenarios.len(), pinned.len());
    for (scenario, (name, hash)) in scenarios.iter().zip(pinned) {
        assert_eq!(scenario.name, name);
        let report = run_scenario(SEED, scenario);
        assert_eq!(
            report.trace_hash, hash,
            "{name}: trace hash {:#018x} moved from the pinned {hash:#018x}",
            report.trace_hash
        );
    }
}

/// A different seed must actually change the run — otherwise the hash
/// proves nothing.
#[test]
fn different_seeds_produce_different_traces() {
    let scenario = Scenario::partition_storm(FLEET);
    let a = run_scenario(SEED, &scenario);
    let b = run_scenario(SEED + 1, &scenario);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "seed is not reaching the fabric"
    );
    assert_ne!(a.stats, b.stats, "chaos counters insensitive to the seed");
}

/// Recording the trace must not perturb the run: hashing is always on,
/// and the hash with recording enabled equals the hash without.
#[test]
fn trace_recording_does_not_perturb_the_run() {
    let scenario = Scenario::data_sharing(FLEET);
    let bare = run_scenario(SEED, &scenario);
    let recorded = run_scenario_with(SEED, &scenario, RunConfig { record_trace: true }, None);
    assert_eq!(bare.trace_hash, recorded.trace_hash);
    assert_eq!(bare.stats, recorded.stats);
    assert!(bare.trace.is_none());
    assert!(
        recorded.trace.as_ref().map(Vec::len).unwrap_or(0) > 0,
        "recording requested but no lines captured"
    );
}

/// Every scenario in the suite must complete with zero invariant
/// violations: no stale-epoch serves, deny-by-default while degraded,
/// bounded reconvergence after heals, monotone version adoption.
#[test]
fn all_scenarios_hold_every_invariant() {
    for scenario in Scenario::all(FLEET) {
        let report = run_scenario(SEED, &scenario);
        assert_eq!(
            report.invariant_violations, 0,
            "{}: violations {:?}",
            scenario.name, report.violations
        );
        assert!(report.ticks > 0, "{}: run never advanced", scenario.name);
        assert!(
            report.stats.decisions > 0,
            "{}: no decision traffic flowed",
            scenario.name
        );
    }
}

/// Chaos runs must agree with a never-faulted reference run on every
/// healthily-served decision (decision parity): faults may delay or deny,
/// but they must never flip a healthy answer.
#[test]
fn chaos_decisions_match_the_never_faulted_reference() {
    for scenario in Scenario::all(FLEET) {
        let reference = run_scenario(SEED, &scenario.reference());
        assert_eq!(
            reference.invariant_violations, 0,
            "{}: reference run is supposed to be fault-free",
            scenario.name
        );
        let chaos = run_scenario_with(
            SEED,
            &scenario,
            RunConfig::default(),
            Some(&reference.served),
        );
        assert_eq!(
            chaos.reference_mismatches, 0,
            "{}: healthy decisions diverged from the reference corpus",
            scenario.name
        );
        assert_eq!(chaos.invariant_violations, 0, "{}", scenario.name);
    }
}

/// The sampled refsem differential spot-check really runs inside chaos
/// runs (it is not vacuously skipped) and never fires a `refsem-parity`
/// violation — and folding it in leaves the trace hash byte-identical,
/// so replayability survives the differential loop.
#[test]
fn refsem_spot_checks_run_and_agree_without_perturbing_replay() {
    for scenario in Scenario::all(FLEET) {
        let a = run_scenario(SEED, &scenario);
        assert!(
            a.stats.refsem_spot_checks > 0,
            "{}: refsem spot-check never engaged",
            scenario.name
        );
        assert!(
            !a.violations.iter().any(|v| v.kind == "refsem-parity"),
            "{}: refsem reference disagreed: {:?}",
            scenario.name,
            a.violations
        );
        let b = run_scenario(SEED, &scenario);
        assert_eq!(a.trace_hash, b.trace_hash, "{}", scenario.name);
        assert_eq!(
            a.stats.refsem_spot_checks, b.stats.refsem_spot_checks,
            "{}",
            scenario.name
        );
    }
}

/// The crash-restart scenario must actually exercise the crash path —
/// parties go down, come back with state loss, and re-adopt the head —
/// and the partition storm must heal every partition it opens.
#[test]
fn scenarios_exercise_their_advertised_faults() {
    let crash = run_scenario(SEED, &Scenario::crash_restart(FLEET));
    assert!(crash.stats.crashes > 0, "no crashes injected");
    assert_eq!(
        crash.stats.crashes, crash.stats.restarts,
        "every crashed party must restart"
    );
    assert!(
        crash.stats.dropped_down > 0,
        "crashed parties never dropped mail"
    );

    let storm = run_scenario(SEED, &Scenario::partition_storm(FLEET));
    assert!(storm.stats.partitions > 0, "no partitions opened");
    assert_eq!(
        storm.stats.partitions, storm.stats.heals,
        "every partition must heal"
    );
    assert!(
        storm.stats.dropped_partition > 0,
        "partitions never cut a message"
    );

    let reground = run_scenario(SEED, &Scenario::mass_reground(FLEET));
    assert!(reground.stats.mass_refreshes > 0, "no mass-refresh fired");
    assert!(
        reground.stats.refresh_failures > 0,
        "degraded wave never failed a refresh"
    );
    assert!(
        reground.stats.degraded_publishes > 0,
        "deny-by-default parties never published a degraded snapshot"
    );
}
