//! Differential suite: pdpd's connection loop, driven in memory with
//! generated pipelined `/decide` and `/decide_batch` trains (malformed
//! requests and HTTP faults mixed in, handed over in random-length
//! chunks), against the reference `decide` and the protocol's answers.

use agenp_refsem::run_wire_case;

#[test]
fn the_wire_loop_matches_reference_on_generated_trains() {
    for seed in 0..256u64 {
        if let Err(msg) = run_wire_case(seed) {
            panic!("{msg}");
        }
    }
}
