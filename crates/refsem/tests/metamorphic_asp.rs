//! Metamorphic suite over the ASP substrate: rule permutation, inert-rule
//! insertion, and bijective predicate renaming must leave answer sets
//! unchanged (renaming: changed by exactly the bijection), and rewriting
//! every fact `a.` as `a :- 0 = 0.` must leave the grounding itself
//! unchanged (rules, atom ids, definite facts and work counters).

use agenp_refsem::run_metamorphic_asp_case;

#[test]
fn asp_transformations_preserve_answer_sets() {
    for seed in 0..256u64 {
        if let Err(msg) = run_metamorphic_asp_case(seed) {
            panic!("{msg}");
        }
    }
}
