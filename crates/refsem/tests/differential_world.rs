//! Differential suite: the learner's compiled candidate plans decide
//! whether a world violates a constraint exactly as brute-force stable
//! models do, on seeded annotated grammars, contexts and candidates.

use agenp_refsem::run_world_case;

#[test]
fn world_violation_matches_brute_force_on_generated_tasks() {
    for seed in 0..256u64 {
        if let Err(msg) = run_world_case(seed) {
            panic!("{msg}");
        }
    }
}
