//! The deterministic chaos fabric: a seeded discrete-event simulation of
//! a large coalition (1,000–10,000 AMS parties) exchanging policy gossip
//! and refresh messages through a shared repository while each party
//! serves decision traffic through its own `PdpHandle` — with the
//! [`ChaosInjector`] driving message loss/duplication/reordering, named
//! partitions, crash-restart waves, and degraded-mode waves from the same
//! seed.
//!
//! The same substrate — [`EventQueue`], [`ChaosInjector`] and the trace
//! hash — also runs the coalition's learning round ([`learning_round`]),
//! in which parties learn with the real learner and contribute their
//! experiences to the CASWiki under a [`ChaosPlan`].
//!
//! # Model
//!
//! Nodes `0..n` are parties; node `n` is the shared policy repository.
//! The repository holds the coalition's policy *head version* and bumps
//! it on scheduled `PublishVersion` events (a context shift), pushing the
//! new version to a few seed parties. Parties learn versions through two
//! channels: periodic anti-entropy refresh against the repository
//! (request/ack) and rumor gossip among peers. Messages carry only the
//! version number — the policy set is a pure function of the version
//! ([`coalition_policies`]) — so adopting a version means publishing its
//! policies as a fresh snapshot through the party's serving tier.
//!
//! Everything runs on a logical clock ([`EventQueue`]): no wall time, no
//! threads, no entropy outside `(seed, scenario)`. Two runs with the same
//! pair produce byte-identical event traces (see [`SimReport::trace_hash`])
//! and identical counters. Wall time is measured *around* the run purely
//! for throughput reporting; it never feeds back into the simulation.
//!
//! Invariants are asserted continuously during the run (see
//! [`InvariantChecker`]) and the flight recorder is dumped at fault boundaries
//! when observability is enabled. `docs/RESILIENCE.md` documents the
//! fault taxonomy and how to replay a failing seed.

pub mod rng;

mod chaos;
mod invariants;
mod learning;
mod party;
mod scenario;
mod scheduler;

pub use chaos::{ChaosInjector, ChaosPlan, CrashWave, DegradedWave, PartitionSpec};
pub use invariants::{InvariantChecker, Violation, MAX_RECORDED};
pub use learning::{learning_round, RETRY_INTERVAL};
pub use party::{Serving, SimParty};
pub use scenario::{coalition_policies, decision_workload, Scenario};
pub use scheduler::{Event, EventQueue, Message, NodeId, Payload};

use agenp_core::arch::{AmsError, DegradedMode};
use agenp_policy::{CombiningAlg, Decision, DecisionEffects, Request};
use rng::SimRng;
use scheduler::Trace;
use std::collections::HashMap;
use std::time::{Duration, Instant};

// Hash streams for the engine's own seeded draws (disjoint from the
// chaos layer's 0xA* streams).
const STREAM_PEERS: u64 = 0xB1;
const STREAM_PUSH: u64 = 0xB2;
const STREAM_WORKLOAD: u64 = 0xB3;

// Sampled spot-checking of served decisions against the independent
// `agenp_refsem` reference evaluator: every Nth healthy decision, up to a
// per-run budget. Both knobs are counter-driven — no RNG draws and no
// extra events — so folding the differential check into a run leaves the
// `(tick, event)` trace, and therefore `trace_hash`, byte-identical.
const REFSEM_SPOT_EVERY: u64 = 7;
const REFSEM_SPOT_BUDGET: u64 = 256;

/// Monotone counters for one simulation run. Two runs of the same
/// `(seed, scenario)` produce equal stats — the determinism regression
/// test asserts exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the fabric.
    pub messages_sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages lost to probabilistic chaos.
    pub dropped_loss: u64,
    /// Messages cut in flight by an active partition.
    pub dropped_partition: u64,
    /// Messages that arrived at a crashed party.
    pub dropped_down: u64,
    /// Messages duplicated by chaos (the copy is counted as sent too).
    pub duplicated: u64,
    /// Messages given a straggler delay spike (reordering).
    pub stragglers: u64,
    /// Repository head publishes (context shifts).
    pub publishes: u64,
    /// Coordinated mass-refresh events.
    pub mass_refreshes: u64,
    /// Version adoptions across all parties.
    pub adoptions: u64,
    /// Parties crashed by crash waves.
    pub crashes: u64,
    /// Parties restarted after a crash (with state loss).
    pub restarts: u64,
    /// Refresh attempts that failed under a degraded wave.
    pub refresh_failures: u64,
    /// Degraded (denying) snapshots published by deny-by-default parties.
    pub degraded_publishes: u64,
    /// Partitions started.
    pub partitions: u64,
    /// Partitions healed.
    pub heals: u64,
    /// Decisions rendered across all parties.
    pub decisions: u64,
    /// Permit decisions.
    pub permits: u64,
    /// Deny decisions.
    pub denies: u64,
    /// NotApplicable / Indeterminate decisions.
    pub gaps: u64,
    /// Decisions served healthily but behind the repository head
    /// (sanctioned staleness: lag or ServeLastGood riding out a wave).
    pub stale_serves: u64,
    /// Bounded-reconvergence checks run after heals.
    pub convergence_checks: u64,
    /// Reconvergence checks skipped because another partition was active.
    pub convergence_skipped: u64,
    /// Healthy decisions spot-checked against the `agenp_refsem`
    /// reference evaluator (sampled, budget-bounded).
    pub refsem_spot_checks: u64,
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// The run seed.
    pub seed: u64,
    /// Number of parties.
    pub parties: usize,
    /// Logical ticks the run lasted.
    pub ticks: u64,
    /// Final repository head version.
    pub head: u64,
    /// Run counters.
    pub stats: SimStats,
    /// Exact number of invariant violations detected.
    pub invariant_violations: u64,
    /// The first [`MAX_RECORDED`] violations, in detection order.
    pub violations: Vec<Violation>,
    /// FNV-1a hash over the full `(tick, event)` trace. Equal hashes for
    /// equal `(seed, scenario)` runs is the reproducibility contract.
    pub trace_hash: u64,
    /// The full trace lines, when recording was requested (tests and
    /// post-mortems; off by default — hashing is always on).
    pub trace: Option<Vec<String>>,
    /// Healthily-served decision effects (decision, obligations, penalty)
    /// keyed by `(version, workload index)` — the corpus a chaos run's
    /// decisions are compared against when this run is the never-faulted
    /// reference.
    pub served: HashMap<(u64, usize), DecisionEffects>,
    /// Decisions that disagreed with the supplied reference corpus.
    pub reference_mismatches: u64,
    /// Wall-clock time of the run (measured around the event loop; not
    /// part of the simulation).
    pub elapsed: Duration,
}

impl SimReport {
    /// Decisions per wall-clock second (0.0 for an instant run).
    pub fn decisions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.stats.decisions as f64 / secs
        } else {
            0.0
        }
    }
}

/// Optional run knobs for [`run_scenario_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunConfig {
    /// Record every trace line (not just the hash). Costs memory at
    /// scale; meant for small-n determinism tests and post-mortems.
    pub record_trace: bool,
}

/// Runs `scenario` from `seed` with default knobs and no reference
/// corpus.
pub fn run_scenario(seed: u64, scenario: &Scenario) -> SimReport {
    run_scenario_with(seed, scenario, RunConfig::default(), None)
}

/// Runs `scenario` from `seed`. When `reference` is supplied (the
/// `served` corpus of a [`Scenario::reference`] run), every healthy
/// decision is additionally checked against it.
pub fn run_scenario_with(
    seed: u64,
    scenario: &Scenario,
    config: RunConfig,
    reference: Option<&HashMap<(u64, usize), DecisionEffects>>,
) -> SimReport {
    let mut sim = Simulation::new(seed, scenario, config, reference);
    sim.schedule_initial();
    let start = Instant::now();
    while let Some((tick, event)) = sim.queue.pop() {
        sim.trace.record(tick, &event);
        sim.handle(tick, event);
    }
    let elapsed = start.elapsed();
    sim.into_report(elapsed)
}

struct Simulation<'a> {
    seed: u64,
    scenario: &'a Scenario,
    injector: ChaosInjector,
    queue: EventQueue,
    parties: Vec<SimParty>,
    head: u64,
    next_message_id: u64,
    stats: SimStats,
    checker: InvariantChecker,
    workload: Vec<Request>,
    trace: Trace,
    served: HashMap<(u64, usize), DecisionEffects>,
    reference: Option<&'a HashMap<(u64, usize), DecisionEffects>>,
    reference_mismatches: u64,
}

impl<'a> Simulation<'a> {
    fn new(
        seed: u64,
        scenario: &'a Scenario,
        config: RunConfig,
        reference: Option<&'a HashMap<(u64, usize), DecisionEffects>>,
    ) -> Simulation<'a> {
        let parties = (0..scenario.parties)
            .map(|i| {
                // A quarter of the fleet rides out faults on its last
                // good snapshot; the rest fails safe.
                let mode = if i % 4 == 3 {
                    DegradedMode::ServeLastGood
                } else {
                    DegradedMode::DenyByDefault
                };
                SimParty::new(i, mode)
            })
            .collect();
        Simulation {
            seed,
            scenario,
            injector: ChaosInjector::new(seed, scenario.plan.clone()),
            queue: EventQueue::new(),
            parties,
            head: 0,
            next_message_id: 0,
            stats: SimStats::default(),
            checker: InvariantChecker::new(),
            workload: decision_workload(),
            trace: Trace::new(config.record_trace),
            served: HashMap::new(),
            reference,
            reference_mismatches: 0,
        }
    }

    /// Node id of the shared policy repository.
    fn repo(&self) -> NodeId {
        self.parties.len()
    }

    fn schedule_initial(&mut self) {
        let s = self.scenario;
        for i in 0..s.parties {
            // Staggered phases so the fleet's periodic traffic spreads
            // across ticks instead of spiking.
            self.queue.push(
                1 + (i as u64 % s.gossip_interval),
                Event::Gossip {
                    party: i,
                    periodic: true,
                },
            );
            self.queue.push(
                2 + (i as u64 % s.refresh_interval),
                Event::RefreshTick { party: i },
            );
        }
        self.queue.push(1, Event::DecideWave);
        for &t in &s.publish_at {
            self.queue.push(t, Event::PublishVersion);
        }
        for &t in &s.mass_refresh_at {
            self.queue.push(t, Event::MassRefresh);
        }
        for (idx, p) in s.plan.partitions.iter().enumerate() {
            self.queue.push(p.at, Event::PartitionStart { idx });
            self.queue.push(p.heal_at, Event::PartitionHeal { idx });
        }
        for (idx, w) in s.plan.crash_waves.iter().enumerate() {
            self.queue.push(w.at, Event::CrashWaveStart { idx });
            self.queue
                .push(w.at + w.restart_after, Event::CrashWaveRestart { idx });
        }
        for (idx, w) in s.plan.degraded_waves.iter().enumerate() {
            self.queue.push(w.from, Event::DegradedWaveStart { idx });
            self.queue.push(w.until, Event::DegradedWaveEnd { idx });
        }
        self.queue.push(s.ticks, Event::FinalCheck);
    }

    fn handle(&mut self, tick: u64, event: Event) {
        match event {
            Event::PublishVersion => self.publish_version(tick),
            Event::MassRefresh => {
                self.stats.mass_refreshes += 1;
                for p in 0..self.parties.len() {
                    self.attempt_refresh(tick, p);
                }
            }
            Event::Gossip { party, periodic } => self.gossip(tick, party, periodic),
            Event::RefreshTick { party } => {
                let next = tick + self.scenario.refresh_interval;
                if next <= self.scenario.ticks {
                    self.queue.push(next, Event::RefreshTick { party });
                }
                self.attempt_refresh(tick, party);
            }
            Event::Deliver { message } => self.deliver(tick, message),
            Event::DecideWave => self.decide_wave(tick),
            Event::PartitionStart { .. } => {
                self.stats.partitions += 1;
                agenp_obs::dump_if_enabled("chaos.partition");
            }
            Event::PartitionHeal { .. } => {
                self.stats.heals += 1;
                self.queue.push(
                    tick + self.scenario.reconvergence_bound(),
                    Event::ConvergenceCheck {
                        floor: self.head,
                        heal_tick: tick,
                    },
                );
                agenp_obs::dump_if_enabled("chaos.heal");
            }
            Event::CrashWaveStart { idx } => {
                let wave = self.scenario.plan.crash_waves[idx];
                for p in 0..self.parties.len() {
                    if wave.hits(p) && self.parties[p].up {
                        self.parties[p].crash();
                        self.stats.crashes += 1;
                    }
                }
                agenp_obs::dump_if_enabled("chaos.crash");
            }
            Event::CrashWaveRestart { idx } => {
                let wave = self.scenario.plan.crash_waves[idx];
                let repo = self.repo();
                for p in 0..self.parties.len() {
                    if wave.hits(p) && !self.parties[p].up {
                        self.parties[p].restart();
                        self.stats.restarts += 1;
                        // A restarted party refreshes immediately rather
                        // than waiting out its periodic interval.
                        self.send(tick, p, repo, Payload::RefreshReq);
                    }
                }
                agenp_obs::dump_if_enabled("chaos.restart");
            }
            Event::DegradedWaveStart { .. } => {
                agenp_obs::dump_if_enabled("chaos.degraded-wave");
            }
            Event::DegradedWaveEnd { .. } => {
                agenp_obs::dump_if_enabled("chaos.degraded-wave-end");
            }
            Event::ConvergenceCheck { floor, heal_tick } => {
                self.convergence_check(tick, floor, heal_tick)
            }
            Event::FinalCheck => self.final_check(tick),
        }
    }

    fn publish_version(&mut self, tick: u64) {
        self.head += 1;
        self.stats.publishes += 1;
        let head = self.head;
        let repo = self.repo();
        let n = self.parties.len() as u64;
        let mut rng = SimRng::from_parts(&[self.seed, STREAM_PUSH, head]);
        for _ in 0..self.scenario.push_fanout {
            let to = rng.below(n) as usize;
            self.send(tick, repo, to, Payload::Advertise { version: head });
        }
    }

    fn gossip(&mut self, tick: u64, party: usize, periodic: bool) {
        if periodic {
            let next = tick + self.scenario.gossip_interval;
            if next <= self.scenario.ticks {
                self.queue.push(
                    next,
                    Event::Gossip {
                        party,
                        periodic: true,
                    },
                );
            }
        }
        let p = &self.parties[party];
        if !p.up || p.recovering() {
            return;
        }
        let version = p.version;
        let n = self.parties.len();
        let mut rng = SimRng::from_parts(&[self.seed, STREAM_PEERS, tick, party as u64]);
        for _ in 0..self.scenario.fanout {
            let mut peer = rng.below((n - 1) as u64) as usize;
            if peer >= party {
                peer += 1;
            }
            self.send(tick, party, peer, Payload::Advertise { version });
        }
    }

    /// One refresh attempt by `party`: under a degraded wave the attempt
    /// fails party-side (the party's lifecycle degrades per its mode);
    /// otherwise a request goes to the repository.
    fn attempt_refresh(&mut self, tick: u64, party: usize) {
        if !self.parties[party].up {
            return;
        }
        if self.injector.wave_failing(tick, party) {
            self.stats.refresh_failures += 1;
            let p = &mut self.parties[party];
            // A party already denying has nothing left to degrade.
            if p.serving() != Serving::Denying
                && p.refresh_failed(&AmsError::Unavailable(format!(
                    "refresh failed under degraded wave at tick {tick}"
                )))
            {
                self.stats.degraded_publishes += 1;
            }
            return;
        }
        let repo = self.repo();
        self.send(tick, party, repo, Payload::RefreshReq);
    }

    /// Hands a message to the fabric: the chaos layer may lose it,
    /// duplicate it, or delay it into reordering. Delivery is scheduled
    /// on the logical clock; partitions cut messages at delivery time
    /// (in-flight messages crossing a fresh partition boundary die).
    fn send(&mut self, tick: u64, from: NodeId, to: NodeId, payload: Payload) {
        let id = self.next_message_id;
        self.next_message_id += 1;
        self.stats.messages_sent += 1;
        let Some(transit) = self.injector.transit(tick, id) else {
            self.stats.dropped_loss += 1;
            return;
        };
        let message = Message {
            id,
            from,
            to,
            payload,
        };
        // The copy is pushed before the original: same-tick deliveries pop
        // in push order, and the pinned trace hashes depend on that order.
        self.stats.duplicated += u64::from(transit.copy.is_some());
        for (delay, straggler) in transit.copy.into_iter().chain([transit.delay]) {
            self.stats.stragglers += u64::from(straggler);
            self.queue.push(
                tick + delay,
                Event::Deliver {
                    message: message.clone(),
                },
            );
        }
    }

    fn deliver(&mut self, tick: u64, message: Message) {
        if self.injector.severed(tick, message.from, message.to) {
            self.stats.dropped_partition += 1;
            return;
        }
        self.stats.delivered += 1;
        if message.to == self.repo() {
            if message.payload == Payload::RefreshReq {
                let head = self.head;
                let repo = self.repo();
                self.send(
                    tick,
                    repo,
                    message.from,
                    Payload::RefreshAck { version: head },
                );
            }
            return;
        }
        if !self.parties[message.to].up {
            self.stats.dropped_down += 1;
            return;
        }
        match message.payload {
            Payload::Advertise { version } | Payload::RefreshAck { version } => {
                self.try_adopt(tick, message.to, version)
            }
            Payload::RefreshReq => {}
        }
    }

    /// Adoption rule: take any strictly newer version; a denying party
    /// (bootstrap, crash-restart, degraded) also re-adopts its own
    /// version to get back to healthy serving. Parties under a degraded
    /// wave have their policy intake down entirely.
    fn try_adopt(&mut self, tick: u64, party: usize, version: u64) {
        if version == 0 || self.injector.wave_failing(tick, party) {
            return;
        }
        let p = &mut self.parties[party];
        let adopt =
            version > p.version || (p.serving() == Serving::Denying && version >= p.version);
        if !adopt {
            return;
        }
        p.publish_healthy(version, coalition_policies(version));
        self.stats.adoptions += 1;
        // Rumor: a fresh adoption gossips once, off-cycle, spreading new
        // versions epidemically instead of waiting for the next period.
        self.queue.push(
            tick + 1,
            Event::Gossip {
                party,
                periodic: false,
            },
        );
    }

    fn decide_wave(&mut self, tick: u64) {
        let s = self.scenario;
        let next = tick + s.decide_every;
        if next <= s.ticks {
            self.queue.push(next, Event::DecideWave);
        }
        let n = self.parties.len();
        let wave = (tick / s.decide_every) as usize;
        let mut rng = SimRng::from_parts(&[self.seed, STREAM_WORKLOAD, tick]);
        for k in 0..s.decide_parties {
            let party = (wave.wrapping_mul(s.decide_parties) + k) % n;
            if !self.parties[party].up {
                continue;
            }
            // Serve the wave as one batch: the snapshot is pinned and
            // revalidated once, duplicates inside the wave are answered
            // once, and every outcome shares the wave's epoch.
            let idxs: Vec<usize> = (0..s.decide_batch)
                .map(|_| rng.below(self.workload.len() as u64) as usize)
                .collect();
            let wave_requests: Vec<agenp_policy::Request> =
                idxs.iter().map(|&i| self.workload[i].clone()).collect();
            let mut pin = self.parties[party].handle().pin();
            let outcomes = pin.decide_batch(&wave_requests);
            for (&idx, outcome) in idxs.iter().zip(&outcomes) {
                let outcome = outcome.clone();
                self.stats.decisions += 1;
                match outcome.decision {
                    Decision::Permit => self.stats.permits += 1,
                    Decision::Deny => self.stats.denies += 1,
                    Decision::NotApplicable | Decision::Indeterminate => self.stats.gaps += 1,
                }
                let serving_version = match self.parties[party].serving() {
                    Serving::Healthy { version } => Some(version),
                    Serving::Denying => None,
                };
                self.checker.check_outcome(
                    tick,
                    party,
                    serving_version,
                    self.parties[party].last_publish_epoch(),
                    self.head,
                    idx,
                    &self.workload[idx],
                    &outcome,
                );
                if let Some(version) = serving_version {
                    if version < self.head {
                        self.stats.stale_serves += 1;
                    }
                    if outcome.error.is_none() {
                        let effects = outcome.effects();
                        if let Some(reference) = self.reference {
                            if let Some(want) = reference.get(&(version, idx)) {
                                if *want != effects {
                                    self.reference_mismatches += 1;
                                    self.checker.report(
                                        tick,
                                        Some(party),
                                        "decision-parity",
                                        format!(
                                            "reference run disagrees at v{version} request \
                                             {idx}: {effects:?} vs {want:?}"
                                        ),
                                    );
                                }
                            }
                        }
                        // Differential spot-check against the independent
                        // refsem reference evaluator: sampled on the
                        // decision counter and budget-bounded, with no RNG
                        // draws, so replay stays byte-identical.
                        if self.stats.decisions.is_multiple_of(REFSEM_SPOT_EVERY)
                            && self.stats.refsem_spot_checks < REFSEM_SPOT_BUDGET
                        {
                            self.stats.refsem_spot_checks += 1;
                            let want = agenp_refsem::reference::effects_reference(
                                &coalition_policies(version),
                                CombiningAlg::DenyOverrides,
                                &self.workload[idx],
                            );
                            if effects != want {
                                self.checker.report(
                                    tick,
                                    Some(party),
                                    "refsem-parity",
                                    format!(
                                        "refsem reference disagrees at v{version} request \
                                         {idx}: {effects:?} vs {want:?}"
                                    ),
                                );
                            }
                        }
                        self.served.insert((version, idx), effects);
                    }
                }
            }
        }
    }

    /// Bounded reconvergence: every party that was reachable since the
    /// heal must have caught up to the head as of heal time. Parties
    /// still recovering from a crash or sitting in a degraded wave that
    /// overlaps the window are exempt; if another partition started in
    /// the meantime the check is skipped (its own heal schedules a new
    /// one).
    fn convergence_check(&mut self, tick: u64, floor: u64, heal_tick: u64) {
        self.stats.convergence_checks += 1;
        if self.injector.partition_at(tick).is_some() {
            self.stats.convergence_skipped += 1;
            return;
        }
        for party in 0..self.parties.len() {
            let p = &self.parties[party];
            if !p.up || p.recovering() || self.injector.wave_overlaps(party, heal_tick, tick) {
                continue;
            }
            if p.version < floor {
                let version = p.version;
                self.checker.report(
                    tick,
                    Some(party),
                    "reconvergence",
                    format!(
                        "still at v{version} (< v{floor}) {} ticks after heal",
                        tick - heal_tick
                    ),
                );
            }
        }
    }

    /// End-of-run sweep: chaos has long quiesced, so every party must be
    /// up, recovered, and serving exactly the head version.
    fn final_check(&mut self, tick: u64) {
        let head = self.head;
        for party in 0..self.parties.len() {
            let p = &self.parties[party];
            let (up, recovering, serving) = (p.up, p.recovering(), p.serving());
            if !up || recovering || serving != (Serving::Healthy { version: head }) {
                let detail =
                    format!("up={up} recovering={recovering} serving={serving:?} head=v{head}");
                self.checker
                    .report(tick, Some(party), "final-convergence", detail);
            }
        }
    }

    fn into_report(self, elapsed: Duration) -> SimReport {
        SimReport {
            scenario: self.scenario.name,
            seed: self.seed,
            parties: self.parties.len(),
            ticks: self.scenario.ticks,
            head: self.head,
            stats: self.stats,
            invariant_violations: self.checker.total(),
            trace_hash: self.trace.hash,
            trace: self.trace.lines,
            served: self.served,
            reference_mismatches: self.reference_mismatches,
            violations: self.checker.into_recorded(),
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_converges_with_zero_violations() {
        let scenario = Scenario::mass_reground(32);
        let report = run_scenario(7, &scenario);
        assert_eq!(
            report.invariant_violations, 0,
            "violations: {:?}",
            report.violations
        );
        assert_eq!(report.head, scenario.publish_at.len() as u64);
        assert!(report.stats.decisions > 0);
        assert!(report.stats.adoptions >= 32, "every party must adopt");
        assert!(report.stats.refresh_failures > 0, "the wave must bite");
        assert!(report.stats.degraded_publishes > 0);
        assert!(!report.served.is_empty());
    }

    #[test]
    fn chaos_run_matches_reference_corpus() {
        let scenario = Scenario::crash_restart(24);
        let reference = run_scenario(11, &scenario.reference());
        assert_eq!(reference.invariant_violations, 0);
        assert_eq!(reference.stats.crashes, 0);
        let chaos = run_scenario_with(11, &scenario, RunConfig::default(), Some(&reference.served));
        assert_eq!(
            chaos.invariant_violations, 0,
            "violations: {:?}",
            chaos.violations
        );
        assert_eq!(chaos.reference_mismatches, 0);
        assert!(chaos.stats.crashes > 0);
        assert_eq!(chaos.stats.crashes, chaos.stats.restarts);
    }
}
