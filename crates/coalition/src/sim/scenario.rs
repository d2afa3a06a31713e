//! The chaos-fabric scenario suite: named, parameterized-by-party-count
//! configurations pairing a fabric protocol schedule (publishes, mass
//! refreshes, gossip/refresh cadence) with a [`ChaosPlan`].
//!
//! Every scenario ends with a *quiet tail*: probabilistic chaos stops at
//! `chaos_until` and the run continues long enough past the last
//! scheduled fault for every party to reconverge through its periodic
//! refresh, so the end-of-run convergence invariant is deterministic
//! rather than probabilistic.

use super::chaos::{ChaosPlan, CrashWave, DegradedWave, PartitionSpec};
use agenp_policy::{Category, CombiningAlg, Cond, Effect, Obligation, Policy, PolicyRule, Request};

/// Slack ticks added on top of the analytic reconvergence bound.
const BOUND_SLACK: u64 = 16;

/// The policy set of coalition policy version `version`. Pure: gossip
/// and refresh messages carry only the version number, and any party can
/// materialize the policies from it. The set is *version-observable* —
/// `operator` is permitted only on odd versions and `analyst` only on
/// versions not divisible by three — so a stale snapshot renders visibly
/// different decisions, which is what the stale-epoch and parity
/// invariants key on. Decisions are obligation-bearing: guest denials
/// carry a version-observable audit obligation and penalty annotation,
/// auditor permits carry an access-log obligation, so the parity checks
/// cover the full decision effects rather than bare permit/deny.
pub fn coalition_policies(version: u64) -> Vec<Policy> {
    let mut rules = vec![
        PolicyRule::new(
            "deny-guest",
            Effect::Deny,
            Cond::eq(Category::Subject, "role", "guest"),
        )
        .with_obligation(
            Effect::Deny,
            Obligation::new("audit-denial", "notify-security", 16 + version),
        )
        .with_penalty(1 + (version % 4) as u32),
        PolicyRule::new(
            "permit-auditor",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "auditor"),
        )
        .with_obligation(
            Effect::Permit,
            Obligation::new("log-access", "audit-log", 10),
        ),
    ];
    if version % 2 == 1 {
        rules.push(PolicyRule::new(
            "permit-operator",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "operator"),
        ));
    }
    if !version.is_multiple_of(3) {
        rules.push(PolicyRule::new(
            "permit-analyst",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "analyst"),
        ));
    }
    vec![Policy {
        id: format!("coalition-v{version}"),
        rules,
        combining: CombiningAlg::DenyOverrides,
        obligations: Vec::new(),
    }]
}

/// The fixed decision workload every party serves slices of: each role
/// crossed with two actions. Small enough to memoize expected decisions
/// per `(version, index)`, version-discriminating through
/// [`coalition_policies`].
pub fn decision_workload() -> Vec<Request> {
    ["guest", "auditor", "operator", "analyst"]
        .iter()
        .flat_map(|role| {
            ["read", "write"].iter().map(move |action| {
                Request::new()
                    .subject("role", *role)
                    .action("kind", *action)
            })
        })
        .collect()
}

/// One named chaos-fabric configuration. Construct via the scenario
/// functions ([`Scenario::data_sharing`] &c.) or [`Scenario::by_name`];
/// the same `(seed, scenario)` pair always replays the same run.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (stable; used by `--scenario` and in bench output).
    pub name: &'static str,
    /// Number of AMS parties.
    pub parties: usize,
    /// Logical ticks the run lasts (the final convergence sweep fires
    /// here).
    pub ticks: u64,
    /// Ticks between a party's periodic gossip rounds.
    pub gossip_interval: u64,
    /// Ticks between a party's periodic repository refreshes.
    pub refresh_interval: u64,
    /// Peers each gossip round advertises to.
    pub fanout: usize,
    /// Parties the repository pushes each new version to directly.
    pub push_fanout: usize,
    /// Ticks between decision waves.
    pub decide_every: u64,
    /// Parties sampled per decision wave.
    pub decide_parties: usize,
    /// Decisions each sampled party renders per wave.
    pub decide_batch: usize,
    /// Ticks at which the repository publishes the next version.
    pub publish_at: Vec<u64>,
    /// Ticks at which every party refreshes at once (context shift).
    pub mass_refresh_at: Vec<u64>,
    /// The chaos schedule.
    pub plan: ChaosPlan,
}

impl Scenario {
    fn base(
        name: &'static str,
        parties: usize,
        plan: ChaosPlan,
        publish_at: Vec<u64>,
        mass_refresh_at: Vec<u64>,
    ) -> Scenario {
        let parties = parties.max(2);
        let mut s = Scenario {
            name,
            parties,
            ticks: 0,
            gossip_interval: 10,
            refresh_interval: 40,
            fanout: 2,
            push_fanout: 8.min(parties),
            decide_every: 5,
            decide_parties: (parties / 16).max(1),
            decide_batch: 4,
            publish_at,
            mass_refresh_at,
            plan,
        };
        let busy = s
            .plan
            .last_fault_tick()
            .max(s.publish_at.iter().copied().max().unwrap_or(0))
            .max(s.mass_refresh_at.iter().copied().max().unwrap_or(0));
        // Quiet tail: the reconvergence bound plus two full refresh
        // periods, so even a party whose refresh fired just before the
        // last fault ended gets two clean round-trips before FinalCheck.
        s.ticks = busy + s.reconvergence_bound() + 2 * s.refresh_interval;
        s
    }

    /// How long after a heal (or the last fault) every eligible party
    /// must have reconverged: enough for several periodic refreshes or
    /// gossip rounds, plus the worst-case message delay, plus slack.
    pub fn reconvergence_bound(&self) -> u64 {
        (3 * self.refresh_interval).max(8 * self.gossip_interval)
            + self.plan.max_message_delay()
            + BOUND_SLACK
    }

    /// The never-faulted twin of this scenario: identical protocol
    /// schedule, empty chaos plan, same ticks. Chaos runs compare their
    /// served decisions against this run's.
    pub fn reference(&self) -> Scenario {
        let mut s = self.clone();
        s.plan = ChaosPlan::none();
        s
    }

    /// The paper's data-sharing coalition under light background chaos:
    /// three policy versions roll out over a mildly lossy, jittery
    /// fabric.
    pub fn data_sharing(parties: usize) -> Scenario {
        Scenario::base(
            "data-sharing",
            parties,
            ChaosPlan {
                loss: 0.01,
                duplicate: 0.01,
                reorder: 0.02,
                base_delay: 1,
                jitter: 2,
                chaos_until: 300,
                ..ChaosPlan::none()
            },
            vec![20, 120, 220],
            vec![],
        )
    }

    /// A partition storm: three successive partitions (two-way, then
    /// three-way, then two-way) with publishes landing while the fabric
    /// is split, under moderate loss. Each heal schedules a bounded
    /// reconvergence check.
    pub fn partition_storm(parties: usize) -> Scenario {
        Scenario::base(
            "partition-storm",
            parties,
            ChaosPlan {
                loss: 0.02,
                duplicate: 0.01,
                reorder: 0.02,
                base_delay: 1,
                jitter: 3,
                chaos_until: 460,
                partitions: vec![
                    PartitionSpec {
                        at: 40,
                        heal_at: 90,
                        groups: 2,
                    },
                    PartitionSpec {
                        at: 290,
                        heal_at: 340,
                        groups: 3,
                    },
                    PartitionSpec {
                        at: 540,
                        heal_at: 590,
                        groups: 2,
                    },
                ],
                crash_waves: vec![],
                degraded_waves: vec![],
            },
            vec![10, 60, 310, 560],
            vec![],
        )
    }

    /// A context shift forcing a mass re-ground: a new version publishes
    /// and every party refreshes at once, while a degraded wave has a
    /// quarter of the fleet failing refreshes.
    pub fn mass_reground(parties: usize) -> Scenario {
        Scenario::base(
            "mass-reground",
            parties,
            ChaosPlan {
                loss: 0.01,
                duplicate: 0.01,
                reorder: 0.01,
                base_delay: 1,
                jitter: 2,
                chaos_until: 200,
                partitions: vec![],
                crash_waves: vec![],
                degraded_waves: vec![DegradedWave {
                    from: 90,
                    until: 140,
                    modulo: 4,
                    phase: 1,
                }],
            },
            vec![30, 100],
            vec![102],
        )
    }

    /// Crash-restart under load: two crash waves take out overlapping
    /// slices of the fleet (full state loss) while versions keep
    /// publishing and decision traffic keeps flowing.
    pub fn crash_restart(parties: usize) -> Scenario {
        Scenario::base(
            "crash-restart",
            parties,
            ChaosPlan {
                loss: 0.01,
                duplicate: 0.01,
                reorder: 0.02,
                base_delay: 1,
                jitter: 2,
                chaos_until: 260,
                partitions: vec![],
                crash_waves: vec![
                    CrashWave {
                        at: 60,
                        restart_after: 25,
                        modulo: 5,
                        phase: 2,
                    },
                    CrashWave {
                        at: 170,
                        restart_after: 30,
                        modulo: 6,
                        phase: 3,
                    },
                ],
                degraded_waves: vec![],
            },
            vec![20, 80, 150, 220],
            vec![],
        )
    }

    /// The whole suite at `parties` parties.
    pub fn all(parties: usize) -> Vec<Scenario> {
        vec![
            Scenario::data_sharing(parties),
            Scenario::partition_storm(parties),
            Scenario::mass_reground(parties),
            Scenario::crash_restart(parties),
        ]
    }

    /// Looks a scenario up by its stable name.
    pub fn by_name(name: &str, parties: usize) -> Option<Scenario> {
        Scenario::all(parties).into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{evaluate_policies, Decision};

    #[test]
    fn policies_are_version_observable() {
        let operator = Request::new()
            .subject("role", "operator")
            .action("kind", "read");
        let analyst = Request::new()
            .subject("role", "analyst")
            .action("kind", "read");
        let guest = Request::new()
            .subject("role", "guest")
            .action("kind", "write");
        for v in 0..12u64 {
            let p = coalition_policies(v);
            assert_eq!(
                evaluate_policies(&p, CombiningAlg::DenyOverrides, &operator),
                if v % 2 == 1 {
                    Decision::Permit
                } else {
                    Decision::NotApplicable
                },
                "operator at v{v}"
            );
            assert_eq!(
                evaluate_policies(&p, CombiningAlg::DenyOverrides, &analyst),
                if v % 3 != 0 {
                    Decision::Permit
                } else {
                    Decision::NotApplicable
                },
                "analyst at v{v}"
            );
            assert_eq!(
                evaluate_policies(&p, CombiningAlg::DenyOverrides, &guest),
                Decision::Deny,
                "guest at v{v}"
            );
        }
    }

    #[test]
    fn policy_effects_are_version_observable() {
        use agenp_policy::evaluate_policies_effects;
        let guest = Request::new()
            .subject("role", "guest")
            .action("kind", "write");
        let auditor = Request::new()
            .subject("role", "auditor")
            .action("kind", "read");
        for v in 0..8u64 {
            let p = coalition_policies(v);
            let fx = evaluate_policies_effects(&p, CombiningAlg::DenyOverrides, &guest);
            assert_eq!(fx.decision, Decision::Deny, "guest at v{v}");
            assert_eq!(fx.penalty, 1 + (v % 4) as u32, "guest penalty at v{v}");
            assert_eq!(fx.obligations.len(), 1, "guest obligations at v{v}");
            assert_eq!(fx.obligations[0].id, "audit-denial");
            assert_eq!(
                fx.obligations[0].deadline,
                16 + v,
                "deadline tracks version"
            );
            let fx = evaluate_policies_effects(&p, CombiningAlg::DenyOverrides, &auditor);
            assert_eq!(fx.decision, Decision::Permit, "auditor at v{v}");
            assert_eq!(fx.obligations.len(), 1);
            assert_eq!(fx.obligations[0].id, "log-access");
            assert_eq!(fx.penalty, 0);
        }
    }

    #[test]
    fn suite_is_complete_and_quiet_tailed() {
        let suite = Scenario::all(100);
        assert_eq!(suite.len(), 4);
        for s in &suite {
            assert_eq!(Scenario::by_name(s.name, 100).as_ref(), Some(s));
            assert!(
                s.ticks >= s.plan.last_fault_tick() + s.reconvergence_bound(),
                "{}: no quiet tail",
                s.name
            );
            assert!(!s.publish_at.is_empty());
            let r = s.reference();
            assert_eq!(r.plan, ChaosPlan::none());
            assert_eq!(r.publish_at, s.publish_at);
        }
        assert!(Scenario::by_name("nope", 100).is_none());
    }

    #[test]
    fn partition_checks_land_in_gaps() {
        // Each ConvergenceCheck is scheduled at heal + bound; it must not
        // land inside the next partition window (checks inside an active
        // partition are skipped, which would leave heals unverified).
        let s = Scenario::partition_storm(100);
        let bound = s.reconvergence_bound();
        for w in s.plan.partitions.windows(2) {
            assert!(
                w[0].heal_at + bound < w[1].at,
                "check for partition healing at {} lands inside the next window",
                w[0].heal_at
            );
        }
    }
}
