//! The coalition learning round (paper §III-A-3, §IV-A) as an event loop
//! on the simulation substrate; see [`learning_round`].

use super::chaos::ChaosInjector;
use super::scheduler::{EventQueue, NodeId, Trace};
use crate::caswiki::{CasWiki, Contribution};
use crate::fabric::{CoalitionConfig, CoalitionError, CoalitionOutcome, NodeOutcome, NodeReport};
use agenp_core::scenarios::cav;
use agenp_learn::Learner;

/// Ticks an unacknowledged party waits before its next attempt.
pub const RETRY_INTERVAL: u64 = 16;

/// What happens in a learning round, scheduled on the logical clock.
#[derive(Clone, Debug)]
enum RoundEvent {
    /// A crash wave takes its victims down and wipes what they learned.
    CrashWaveStart { idx: usize },
    /// A crash wave's victims come back up.
    CrashWaveRestart { idx: usize },
    /// `party` makes learning attempt `attempt` (0-based).
    Attempt { party: NodeId, attempt: u32 },
    /// The report of `party`'s attempt `attempt` reaches the repository,
    /// carrying learning result `learned`.
    Report {
        party: NodeId,
        attempt: u32,
        learned: usize,
    },
    /// A repository acknowledgement reaches `party`.
    Ack { party: NodeId },
}

/// One successful learning pass: the report and the labelled experiences
/// it contributes.
struct Learned {
    report: NodeReport,
    batch: Vec<Contribution>,
}

#[derive(Default)]
struct Party {
    down: bool,
    /// The party's current learning result; a crash wipes it.
    learned: Option<usize>,
    acked: bool,
    /// Why the party's latest attempt did not get its batch through.
    reason: String,
}

struct Round<'a> {
    cfg: &'a CoalitionConfig,
    wiki: &'a CasWiki,
    injector: ChaosInjector,
    queue: EventQueue<RoundEvent>,
    trace: Trace,
    parties: Vec<Party>,
    /// Every learning result of the round, indexed by the messages that
    /// carry them.
    learned: Vec<Learned>,
    /// The repository's side: per party, the attempt whose report it
    /// received first, and that report's learning result.
    delivered: Vec<Option<(u32, usize)>>,
    test: Vec<cav::Sample>,
    next_message_id: u64,
}

/// Runs one CAV coalition learning round under `cfg.plan`. Nodes `0..n`
/// are parties and node `n` is the CASWiki repository. A party's attempt
/// fails, with its reason recorded, while a crash wave has it down, while
/// a degraded wave covers it, or when the learner errors; a successful
/// attempt sends its report through the [`ChaosInjector`]. The repository
/// adds a party's batch to `wiki` on the first delivery only and
/// acknowledges every delivery. An unacknowledged party retries every
/// [`RETRY_INTERVAL`] ticks, relearning only if a crash wiped its state,
/// for `1 + max_retries` attempts in all. A party succeeded if and only if
/// its batch reached the wiki. The round reads no wall clock and spawns
/// no thread, so a configuration replays to the same
/// [`trace_hash`](CoalitionOutcome::trace_hash) and bit-identical reports
/// (`docs/RESILIENCE.md`, "Coalition learning round").
///
/// # Errors
///
/// [`CoalitionError::QuorumNotMet`], with every party's outcome, when
/// fewer than `cfg.quorum` parties succeed.
pub fn learning_round(
    cfg: &CoalitionConfig,
    wiki: &CasWiki,
) -> Result<CoalitionOutcome, CoalitionError> {
    let mut round = Round::new(cfg, wiki);
    while let Some((tick, event)) = round.queue.pop() {
        round.trace.record(tick, &event);
        round.handle(tick, event);
    }
    round.finish()
}

impl<'a> Round<'a> {
    fn new(cfg: &'a CoalitionConfig, wiki: &'a CasWiki) -> Round<'a> {
        let mut queue = EventQueue::new();
        // Crash waves first, so a wave and an attempt at the same tick
        // find the party already down.
        for (idx, w) in cfg.plan.crash_waves.iter().enumerate() {
            queue.push(w.at, RoundEvent::CrashWaveStart { idx });
            queue.push(w.at + w.restart_after, RoundEvent::CrashWaveRestart { idx });
        }
        for party in 0..cfg.n_nodes {
            queue.push(0, RoundEvent::Attempt { party, attempt: 0 });
        }
        Round {
            cfg,
            wiki,
            injector: ChaosInjector::new(cfg.seed, cfg.plan.clone()),
            queue,
            trace: Trace::new(false),
            parties: (0..cfg.n_nodes).map(|_| Party::default()).collect(),
            learned: Vec::new(),
            delivered: vec![None; cfg.n_nodes],
            test: cav::samples(150, 999_999),
            next_message_id: 0,
        }
    }

    fn handle(&mut self, tick: u64, event: RoundEvent) {
        match event {
            RoundEvent::CrashWaveStart { idx } => {
                let wave = self.cfg.plan.crash_waves[idx];
                for (i, p) in self.parties.iter_mut().enumerate() {
                    if wave.hits(i) {
                        p.down = true;
                        p.learned = None;
                    }
                }
            }
            RoundEvent::CrashWaveRestart { idx } => {
                let wave = self.cfg.plan.crash_waves[idx];
                for (i, p) in self.parties.iter_mut().enumerate() {
                    if wave.hits(i) {
                        p.down = false;
                    }
                }
            }
            RoundEvent::Attempt { party, attempt } => self.attempt(tick, party, attempt),
            RoundEvent::Report {
                party,
                attempt,
                learned,
            } => self.receive(tick, party, attempt, learned),
            RoundEvent::Ack { party } => {
                let p = &self.parties[party];
                // The repository is node `n`.
                if !p.down && !self.injector.severed(tick, self.parties.len(), party) {
                    self.parties[party].acked = true;
                }
            }
        }
    }

    fn attempt(&mut self, tick: u64, party: NodeId, attempt: u32) {
        if self.parties[party].acked {
            return;
        }
        if attempt < self.cfg.max_retries {
            self.queue.push(
                tick + RETRY_INTERVAL,
                RoundEvent::Attempt {
                    party,
                    attempt: attempt + 1,
                },
            );
        }
        let learned = if self.parties[party].down {
            Err(format!(
                "down in a crash wave at tick {tick} (attempt {attempt})"
            ))
        } else if self.injector.wave_failing(tick, party) {
            Err(format!("degraded wave at tick {tick} (attempt {attempt})"))
        } else {
            self.learn(party)
        };
        match learned {
            Ok(learned) => {
                self.parties[party].reason =
                    format!("report of attempt {attempt} never reached the repository");
                self.send(
                    tick,
                    RoundEvent::Report {
                        party,
                        attempt,
                        learned,
                    },
                );
            }
            Err(reason) => self.parties[party].reason = reason,
        }
    }

    /// The party's learning result: the one it holds, or a fresh pass of
    /// the learner when it has none (its first attempt, or a crash wiped
    /// it).
    fn learn(&mut self, party: NodeId) -> Result<usize, String> {
        if let Some(learned) = self.parties[party].learned {
            return Ok(learned);
        }
        let name = format!("party-{party}");
        let local = cav::samples(
            self.cfg.samples_per_node,
            self.cfg.seed.wrapping_add(party as u64 * 101),
        );
        let task = cav::learning_task(&local, None);
        let h = Learner::new()
            .learn(&task)
            .map_err(|e| format!("learning failed: {e}"))?;
        let report = NodeReport {
            name: name.clone(),
            local_examples: local.len(),
            learned_rules: h.rules.len(),
            accuracy: cav::gpm_accuracy(&h.apply(&task.grammar), &self.test),
        };
        let batch = local
            .iter()
            .map(|s| Contribution {
                contributor: name.clone(),
                policy: cav::policy_text(s.task),
                context: s.context.to_program(),
                valid: s.accept,
            })
            .collect();
        self.learned.push(Learned { report, batch });
        let learned = self.learned.len() - 1;
        self.parties[party].learned = Some(learned);
        Ok(learned)
    }

    /// The repository receives a report: the first delivery from a party
    /// puts its batch into the wiki, and every delivery is acknowledged.
    fn receive(&mut self, tick: u64, party: NodeId, attempt: u32, learned: usize) {
        if self.injector.severed(tick, party, self.parties.len()) {
            return;
        }
        if self.delivered[party].is_none() {
            self.wiki
                .contribute_all(self.learned[learned].batch.iter().cloned());
            self.delivered[party] = Some((attempt, learned));
        }
        self.send(tick, RoundEvent::Ack { party });
    }

    /// Hands a message to the chaos fabric, which may lose, duplicate or
    /// delay it; its delivery is `event`. Partitions cut it at delivery.
    fn send(&mut self, tick: u64, event: RoundEvent) {
        let id = self.next_message_id;
        self.next_message_id += 1;
        if let Some(transit) = self.injector.transit(tick, id) {
            for (delay, _) in transit.copy.into_iter().chain([transit.delay]) {
                self.queue.push(tick + delay, event.clone());
            }
        }
    }

    /// Reads every party's outcome from the repository's side and
    /// applies the quorum.
    fn finish(self) -> Result<CoalitionOutcome, CoalitionError> {
        let nodes: Vec<NodeOutcome> = self
            .delivered
            .iter()
            .zip(&self.parties)
            .enumerate()
            .map(|(i, (delivered, p))| {
                let outcome = match *delivered {
                    Some((0, l)) => NodeOutcome::Ok(self.learned[l].report.clone()),
                    Some((attempt, l)) => {
                        NodeOutcome::Retried(self.learned[l].report.clone(), attempt)
                    }
                    None => NodeOutcome::Failed {
                        name: format!("party-{i}"),
                        reason: p.reason.clone(),
                    },
                };
                observe(i, &outcome);
                outcome
            })
            .collect();
        let successes = nodes.iter().filter(|o| o.is_ok()).count();
        if successes < self.cfg.quorum {
            return Err(CoalitionError::QuorumNotMet {
                successes,
                quorum: self.cfg.quorum,
                nodes,
            });
        }
        Ok(CoalitionOutcome {
            degraded: successes < self.cfg.n_nodes,
            quorum: self.cfg.quorum,
            nodes,
            trace_hash: self.trace.hash,
        })
    }
}

/// Records `party`'s outcome as a `coalition.party` span and in the
/// retry and failure counters, when telemetry is on.
fn observe(party: usize, outcome: &NodeOutcome) {
    let mut span = agenp_obs::span!("coalition.party", party = party);
    if !span.is_live() {
        return;
    }
    let r = agenp_obs::registry();
    match outcome {
        NodeOutcome::Ok(_) => span.record("outcome", "ok"),
        NodeOutcome::Retried(_, attempts) => {
            span.record("outcome", "retried");
            span.record("retries", *attempts as u64);
            r.counter("coalition.party_retries").add(*attempts as u64);
        }
        NodeOutcome::Failed { reason, .. } => {
            span.record("outcome", "failed");
            span.record("reason", reason.as_str());
            r.counter("coalition.party_failures").incr();
        }
    }
}
