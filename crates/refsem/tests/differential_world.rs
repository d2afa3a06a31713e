//! Differential suite: the learner's candidate plans, walked as one trie of
//! shared step prefixes, give each world the kill set brute-force stable
//! models give it, on seeded annotated grammars, contexts and candidates
//! (some of which share a prefix with others).

use agenp_refsem::run_world_case;

#[test]
fn world_violation_matches_brute_force_on_generated_tasks() {
    for seed in 0..256u64 {
        if let Err(msg) = run_world_case(seed) {
            panic!("{msg}");
        }
    }
}
