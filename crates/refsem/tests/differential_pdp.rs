//! Differential suite: every serving path of the PDP tier (handle singles,
//! handle batch, pin singles, pin batch) vs the straight-line reference
//! `decide` on seeded generated policy sets, small and large, and
//! duplicate-bearing request streams.

use agenp_refsem::{run_large_pdp_case, run_pdp_case};

#[test]
fn serving_tier_matches_reference_on_generated_policy_sets() {
    for seed in 0..768u64 {
        if let Err(msg) = run_pdp_case(seed) {
            panic!("{msg}");
        }
    }
}

#[test]
fn serving_tier_matches_reference_on_a_high_seed_band() {
    for seed in 2_000_000..2_000_256u64 {
        if let Err(msg) = run_pdp_case(seed) {
            panic!("{msg}");
        }
    }
}

#[test]
fn serving_tier_matches_reference_on_large_policy_sets() {
    for seed in 0..256u64 {
        if let Err(msg) = run_large_pdp_case(seed) {
            panic!("{msg}");
        }
    }
}
