//! Sampled hot-path telemetry: a per-thread [`Sampler`] that picks about
//! one call in 64, so a site that runs millions of times a second can time
//! a sample of its calls and fold the rest into one tally.
//!
//! The gaps between sampled calls are random on purpose. A fixed stride
//! lines up with any caller that acts on every k-th call itself: a
//! benchmark that times every 64th decision would time exactly the
//! sampled, slower ones. Gaps drawn uniformly from `1..=127` sample every
//! multiple of every stride at about the mean rate instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seeds samplers: each one takes the next value on its first call.
static SEEDS: AtomicU64 = AtomicU64::new(0);

/// The SplitMix64 state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Picks about one call in 64 at pseudo-random gaps, and tallies the
/// weight of the calls in between.
///
/// Meant to live in a `thread_local!` (`const { Sampler::new() }`): its
/// state is three `Cell`s, so it is neither `Sync` nor shared. Each
/// sampler draws its gaps from its own SplitMix64 stream, seeded on its
/// first call from a process-wide counter, so two threads draw different
/// gap sequences and no seeded simulation RNG is ever touched.
///
/// ```
/// let sampler = agenp_obs::Sampler::new();
/// let mut seen = 0;
/// for _ in 0..1000 {
///     if let Some(tally) = sampler.tick(1) {
///         seen += tally; // time this call; flush `tally` into a counter
///     }
/// }
/// assert!(seen > 1000 - agenp_obs::Sampler::MAX_GAP);
/// ```
#[derive(Debug, Default)]
pub struct Sampler {
    /// SplitMix64 state; advanced once per sampled call.
    rng: Cell<u64>,
    /// Calls left in the current gap, this one included; 0 before the
    /// first call.
    left: Cell<u64>,
    /// Weight ticked since the last sampled call.
    tally: Cell<u64>,
}

impl Sampler {
    /// Gaps between sampled calls are uniform over `1..=MAX_GAP`, so the
    /// mean gap is 64.
    pub const MAX_GAP: u64 = 127;

    /// An unseeded sampler; it seeds itself on its first call.
    pub const fn new() -> Sampler {
        Sampler {
            rng: Cell::new(0),
            left: Cell::new(0),
            tally: Cell::new(0),
        }
    }

    /// Counts one call of `weight` (a batch of `n` decisions ticks once
    /// with weight `n`). Returns `Some(weight tallied since the last
    /// sampled call, this call's included)` when this call is sampled,
    /// and `None` otherwise; an unsampled call only updates two `Cell`s.
    #[inline]
    pub fn tick(&self, weight: u64) -> Option<u64> {
        let tally = self.tally.get() + weight;
        let left = self.left.get();
        if left > 1 {
            self.left.set(left - 1);
            self.tally.set(tally);
            return None;
        }
        self.end_gap(left, tally)
    }

    /// The last call of a gap, or the sampler's first call.
    #[cold]
    fn end_gap(&self, left: u64, tally: u64) -> Option<u64> {
        if left == 0 {
            self.seed(SEEDS.fetch_add(1, Ordering::Relaxed));
            // The first gap starts with this call.
            let first = self.left.get();
            if first > 1 {
                self.left.set(first - 1);
                self.tally.set(tally);
                return None;
            }
        }
        self.left.set(self.gap());
        self.tally.set(0);
        Some(tally)
    }

    /// Starts the SplitMix64 stream `seed` and draws the first gap.
    fn seed(&self, seed: u64) {
        self.rng.set(mix(seed));
        self.left.set(self.gap());
    }

    /// Draws a gap, uniform over `1..=MAX_GAP`.
    fn gap(&self) -> u64 {
        let state = self.rng.get().wrapping_add(GAMMA);
        self.rng.set(state);
        1 + mix(state) % Sampler::MAX_GAP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALLS: u64 = 1 << 20;

    /// Indices (0-based) of the sampled calls among `CALLS` unit ticks of
    /// a sampler seeded with `seed`.
    fn sampled_calls(seed: u64) -> Vec<u64> {
        let s = Sampler::new();
        s.seed(seed);
        (0..CALLS).filter(|_| s.tick(1).is_some()).collect()
    }

    /// Gaps between sampled calls, the first counted from call 0.
    fn gaps(sampled: &[u64]) -> Vec<u64> {
        let mut last = None;
        sampled
            .iter()
            .map(|&i| {
                let gap = last.map_or(i + 1, |l| i - l);
                last = Some(i);
                gap
            })
            .collect()
    }

    #[test]
    fn gaps_are_bounded_and_average_sixty_four() {
        for seed in 0..4 {
            let gaps = gaps(&sampled_calls(seed));
            assert!(gaps.iter().all(|g| (1..=Sampler::MAX_GAP).contains(g)));
            let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
            assert!(
                (mean - 64.0).abs() <= 64.0 * 0.05,
                "seed {seed}: mean gap {mean}"
            );
        }
    }

    #[test]
    fn no_stride_lines_up_with_the_samples() {
        for seed in 0..4 {
            let sampled = sampled_calls(seed);
            for k in 2..=256u64 {
                let at_multiples = CALLS.div_ceil(k);
                let hits = sampled.iter().filter(|&&i| i % k == 0).count() as f64;
                let share = hits / at_multiples as f64;
                assert!(
                    (1.0 / 128.0..=1.0 / 32.0).contains(&share),
                    "seed {seed}: stride {k} sampled {share:.4} of its calls"
                );
            }
        }
    }

    #[test]
    fn tallies_sum_to_the_weight_ticked_up_to_the_last_sample() {
        let s = Sampler::new();
        s.seed(7);
        let (mut ticked, mut ticked_at_sample, mut returned) = (0u64, 0u64, 0u64);
        for i in 0..CALLS {
            let weight = i % 5; // batches, including empty ones
            ticked += weight;
            if let Some(tally) = s.tick(weight) {
                returned += tally;
                ticked_at_sample = ticked;
            }
        }
        assert_eq!(returned, ticked_at_sample);
        assert!(ticked - ticked_at_sample < 5 * Sampler::MAX_GAP);
    }

    #[test]
    fn threads_draw_different_gap_sequences() {
        // Unseeded samplers: each seeds itself on its first call, which
        // also starts its first gap.
        let draw = || {
            std::thread::spawn(|| {
                let s = Sampler::new();
                let sampled: Vec<u64> = (0..CALLS).filter(|_| s.tick(1).is_some()).collect();
                gaps(&sampled)
            })
        };
        let (a, b) = (draw(), draw());
        let (a, b) = (
            a.join().expect("sampler thread"),
            b.join().expect("sampler thread"),
        );
        assert!(a
            .iter()
            .chain(&b)
            .all(|g| (1..=Sampler::MAX_GAP).contains(g)));
        assert_ne!(a, b);
    }
}
