//! The chaos layer: the one fault vocabulary of the coalition crate.
//!
//! A [`ChaosPlan`] names the faults of a run and a [`ChaosInjector`]
//! applies them from a seed: message loss, duplication, and
//! delay-induced reordering decided per message id; named network
//! partitions with heal events; coordinated crash-restart waves with
//! state loss; and degraded-mode waves during which refreshes (and
//! learning attempts) fail. Every answer is a pure function of
//! `(seed, plan, query)` — no RNG state advances — so a chaos run replays
//! exactly from its seed.

use super::rng::{mix, unit};

// Disjoint hash streams so e.g. the loss roll for message 7 cannot
// correlate with its delay roll.
const STREAM_LOSS: u64 = 0xA1;
const STREAM_DUP: u64 = 0xA2;
const STREAM_DELAY: u64 = 0xA3;
const STREAM_REORDER: u64 = 0xA4;
const STREAM_GROUP: u64 = 0xA5;

/// A network partition: between ticks `at` (inclusive) and `heal_at`
/// (exclusive) the fabric splits into `groups` named islands and messages
/// crossing islands are dropped in flight. Group membership is decided by
/// hashing `(seed, partition-index, node)`, so the islands are stable for
/// the whole window and reproducible from the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Tick the partition starts.
    pub at: u64,
    /// Tick the partition heals (exclusive).
    pub heal_at: u64,
    /// Number of islands the fabric splits into (≥ 2 to sever anything).
    pub groups: u32,
}

/// A coordinated crash wave: at tick `at`, every party with
/// `party % modulo == phase` crashes with full state loss (its serving
/// snapshot and adopted policy version are gone; in a learning round, its
/// learned report); all of them restart `restart_after` ticks later in
/// recovering (deny-by-default) state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWave {
    /// Tick the wave crashes its victims.
    pub at: u64,
    /// Ticks until the victims restart.
    pub restart_after: u64,
    /// Victim selector modulus.
    pub modulo: usize,
    /// Victim selector phase (`party % modulo == phase`).
    pub phase: usize,
}

impl CrashWave {
    /// Is `party` a victim of this wave?
    pub fn hits(&self, party: usize) -> bool {
        self.modulo > 0 && party % self.modulo == self.phase
    }
}

/// A degraded-mode wave: between `from` (inclusive) and `until`
/// (exclusive), every refresh attempt by a party with
/// `party % modulo == phase` fails, driving `DenyByDefault` parties into
/// degraded denying snapshots and `ServeLastGood` parties into sanctioned
/// staleness until the wave passes. In a learning round the wave fails
/// the party's learning attempts instead: a slow or failed solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradedWave {
    /// Tick the wave starts.
    pub from: u64,
    /// Tick the wave ends (exclusive).
    pub until: u64,
    /// Victim selector modulus.
    pub modulo: usize,
    /// Victim selector phase.
    pub phase: usize,
}

impl DegradedWave {
    /// Is `party` failing refreshes at `tick` under this wave?
    pub fn hits(&self, tick: u64, party: usize) -> bool {
        self.modulo > 0
            && party % self.modulo == self.phase
            && (self.from..self.until).contains(&tick)
    }
}

/// The full chaos schedule for one simulation run. Probabilities apply
/// per message while `tick < chaos_until`; scheduled faults fire at their
/// configured ticks. [`ChaosPlan::none`] is the never-faulted reference
/// configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Per-message loss probability.
    pub loss: f64,
    /// Per-message duplication probability (the copy takes its own delay).
    pub duplicate: f64,
    /// Per-message probability of a late-straggler delay spike (4× the
    /// jitter), the explicit reordering knob on top of ordinary jitter.
    pub reorder: f64,
    /// Base in-fabric latency, in ticks (a floor of 1 is applied).
    pub base_delay: u64,
    /// Uniform extra latency in `[0, jitter]` ticks; any jitter at all
    /// already reorders messages relative to send order.
    pub jitter: u64,
    /// Probabilistic chaos (loss/duplicate/reorder) is active only while
    /// `tick < chaos_until`, so every scenario ends with a quiet tail in
    /// which convergence is guaranteed rather than probabilistic.
    pub chaos_until: u64,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Scheduled crash-restart waves.
    pub crash_waves: Vec<CrashWave>,
    /// Scheduled degraded-mode waves.
    pub degraded_waves: Vec<DegradedWave>,
}

impl ChaosPlan {
    /// The empty plan: reliable delivery, no partitions, no crashes, no
    /// waves. This is the reference run every chaos run is compared to.
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// The worst-case delivery latency any single message can incur.
    pub fn max_message_delay(&self) -> u64 {
        self.base_delay.max(1) + self.jitter + self.jitter.saturating_mul(4)
    }

    /// The last tick at which any scheduled fault is still active.
    pub fn last_fault_tick(&self) -> u64 {
        let p = self.partitions.iter().map(|p| p.heal_at).max().unwrap_or(0);
        let c = self
            .crash_waves
            .iter()
            .map(|w| w.at + w.restart_after)
            .max()
            .unwrap_or(0);
        let d = self
            .degraded_waves
            .iter()
            .map(|w| w.until)
            .max()
            .unwrap_or(0);
        self.chaos_until.max(p).max(c).max(d)
    }
}

/// How the fabric carries one message that it does not lose. Each delay
/// is `(ticks, straggler)`, as [`ChaosInjector::message_delay`] returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Transit {
    /// The message's delivery delay.
    pub(crate) delay: (u64, bool),
    /// The delay of the duplicate chaos made, if any.
    pub(crate) copy: Option<(u64, bool)>,
}

/// Applies a [`ChaosPlan`] from a seed: fabric-wide message chaos,
/// partitions, crash waves, and degraded waves.
#[derive(Clone, Debug)]
pub struct ChaosInjector {
    seed: u64,
    plan: ChaosPlan,
}

impl ChaosInjector {
    /// An injector applying `plan`, with every roll keyed off `seed`.
    pub fn new(seed: u64, plan: ChaosPlan) -> ChaosInjector {
        ChaosInjector { seed, plan }
    }

    #[inline]
    fn roll(&self, stream: u64, id: u64) -> f64 {
        unit(mix(&[self.seed, stream, id]))
    }

    #[inline]
    fn probabilistic(&self, tick: u64) -> bool {
        tick < self.plan.chaos_until
    }

    /// Is the message with `id`, sent at `tick`, lost in the fabric?
    pub fn drops_message(&self, tick: u64, id: u64) -> bool {
        self.probabilistic(tick)
            && self.plan.loss > 0.0
            && self.roll(STREAM_LOSS, id) < self.plan.loss
    }

    /// Is the message duplicated (a second copy delivered independently)?
    pub fn duplicates_message(&self, tick: u64, id: u64) -> bool {
        self.probabilistic(tick)
            && self.plan.duplicate > 0.0
            && self.roll(STREAM_DUP, id) < self.plan.duplicate
    }

    /// Delivery latency in ticks for the message with `id` sent at `tick`:
    /// base delay, plus uniform jitter, plus — with probability `reorder` —
    /// a 4× straggler spike. Always ≥ 1 so delivery is never same-tick.
    /// Returns `(delay, straggler)`.
    pub fn message_delay(&self, tick: u64, id: u64) -> (u64, bool) {
        let mut delay = self.plan.base_delay.max(1);
        if self.probabilistic(tick) {
            if self.plan.jitter > 0 {
                delay += mix(&[self.seed, STREAM_DELAY, id]) % (self.plan.jitter + 1);
            }
            if self.plan.reorder > 0.0 && self.roll(STREAM_REORDER, id) < self.plan.reorder {
                return (delay + self.plan.jitter.saturating_mul(4), true);
            }
        }
        (delay, false)
    }

    /// What the fabric does with message `id`, sent at `tick`: `None` when
    /// it is lost, else its delay and, when duplicated, the copy's. The
    /// copy's delay is keyed off a disjoint id so the two deliveries can
    /// reorder.
    pub(crate) fn transit(&self, tick: u64, id: u64) -> Option<Transit> {
        if self.drops_message(tick, id) {
            return None;
        }
        Some(Transit {
            delay: self.message_delay(tick, id),
            copy: self
                .duplicates_message(tick, id)
                .then(|| self.message_delay(tick, id | (1 << 63))),
        })
    }

    /// The partition active at `tick`, if any, as `(index, spec)`.
    pub fn partition_at(&self, tick: u64) -> Option<(usize, &PartitionSpec)> {
        self.plan
            .partitions
            .iter()
            .enumerate()
            .find(|(_, p)| (p.at..p.heal_at).contains(&tick))
    }

    /// The island `node` belongs to under partition `idx` (stable for the
    /// partition's whole window). Islands are "named" by their group id:
    /// `island-{group}`.
    pub fn group_of(&self, idx: usize, node: usize) -> u32 {
        let spec = &self.plan.partitions[idx];
        (mix(&[self.seed, STREAM_GROUP, idx as u64, node as u64]) % u64::from(spec.groups.max(1)))
            as u32
    }

    /// Are `a` and `b` on different islands at `tick`? (Messages crossing
    /// islands are dropped in flight.)
    pub fn severed(&self, tick: u64, a: usize, b: usize) -> bool {
        match self.partition_at(tick) {
            Some((idx, spec)) if spec.groups >= 2 => self.group_of(idx, a) != self.group_of(idx, b),
            _ => false,
        }
    }

    /// Is `party` failing refreshes at `tick` under any degraded wave?
    pub fn wave_failing(&self, tick: u64, party: usize) -> bool {
        self.plan.degraded_waves.iter().any(|w| w.hits(tick, party))
    }

    /// Does any degraded wave touch `party` within `[from, to)`? Used to
    /// exempt wave victims from reconvergence deadlines that overlap the
    /// wave.
    pub fn wave_overlaps(&self, party: usize, from: u64, to: u64) -> bool {
        self.plan
            .degraded_waves
            .iter()
            .any(|w| w.modulo > 0 && party % w.modulo == w.phase && w.from < to && from < w.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_plan() -> ChaosPlan {
        ChaosPlan {
            loss: 0.1,
            duplicate: 0.05,
            reorder: 0.02,
            base_delay: 1,
            jitter: 3,
            chaos_until: 1000,
            partitions: vec![PartitionSpec {
                at: 10,
                heal_at: 20,
                groups: 3,
            }],
            crash_waves: vec![CrashWave {
                at: 30,
                restart_after: 5,
                modulo: 7,
                phase: 2,
            }],
            degraded_waves: vec![DegradedWave {
                from: 40,
                until: 50,
                modulo: 4,
                phase: 1,
            }],
        }
    }

    #[test]
    fn same_seed_same_answers() {
        let a = ChaosInjector::new(99, storm_plan());
        let b = ChaosInjector::new(99, storm_plan());
        for id in 0..5000 {
            assert_eq!(a.drops_message(5, id), b.drops_message(5, id));
            assert_eq!(a.duplicates_message(5, id), b.duplicates_message(5, id));
            assert_eq!(a.message_delay(5, id), b.message_delay(5, id));
            // `transit` composes exactly those three answers.
            match a.transit(5, id) {
                None => assert!(a.drops_message(5, id)),
                Some(t) => {
                    assert!(!a.drops_message(5, id));
                    assert_eq!(t.delay, a.message_delay(5, id));
                    assert_eq!(t.copy.is_some(), a.duplicates_message(5, id));
                }
            }
        }
        // A different seed gives a different schedule somewhere.
        let c = ChaosInjector::new(100, storm_plan());
        assert!((0..5000).any(|id| a.drops_message(5, id) != c.drops_message(5, id)));
    }

    #[test]
    fn probabilistic_chaos_quiesces() {
        let inj = ChaosInjector::new(7, storm_plan());
        for id in 0..2000 {
            assert!(!inj.drops_message(1000, id), "loss after chaos_until");
            assert!(!inj.duplicates_message(1000, id));
            let (delay, straggler) = inj.message_delay(1000, id);
            assert_eq!(delay, 1, "quiet tail uses the base delay only");
            assert!(!straggler);
        }
    }

    #[test]
    fn partitions_are_stable_and_heal() {
        let inj = ChaosInjector::new(3, storm_plan());
        assert!(inj.partition_at(9).is_none());
        assert!(inj.partition_at(10).is_some());
        assert!(inj.partition_at(19).is_some());
        assert!(inj.partition_at(20).is_none(), "heal_at is exclusive");
        // Group membership is stable across the window and severs only
        // across islands.
        for node in 0..50 {
            let g = inj.group_of(0, node);
            assert!(g < 3);
            assert!(!inj.severed(15, node, node));
            for other in 0..50 {
                assert_eq!(
                    inj.severed(15, node, other),
                    inj.group_of(0, node) != inj.group_of(0, other)
                );
                assert!(!inj.severed(25, node, other), "healed fabric never severs");
            }
        }
        // With 50 nodes in 3 groups, something must be severed.
        assert!((0..50).any(|n| inj.severed(12, 0, n)));
    }

    #[test]
    fn waves_select_by_modulo_and_window() {
        let inj = ChaosInjector::new(3, storm_plan());
        assert!(inj.wave_failing(45, 5)); // 5 % 4 == 1
        assert!(!inj.wave_failing(45, 6));
        assert!(!inj.wave_failing(39, 5));
        assert!(!inj.wave_failing(50, 5), "until is exclusive");
        assert!(inj.wave_overlaps(5, 45, 60));
        assert!(!inj.wave_overlaps(5, 50, 60));
        assert!(!inj.wave_overlaps(6, 0, 100));
        let wave = CrashWave {
            at: 0,
            restart_after: 1,
            modulo: 7,
            phase: 2,
        };
        assert!(wave.hits(9));
        assert!(!wave.hits(10));
    }

    #[test]
    fn plan_bounds_are_conservative() {
        let plan = storm_plan();
        assert_eq!(plan.max_message_delay(), 1 + 3 + 12);
        assert_eq!(plan.last_fault_tick(), 1000);
        assert_eq!(ChaosPlan::none().last_fault_tick(), 0);
        assert_eq!(ChaosPlan::none().max_message_delay(), 1);
    }
}
