//! # agenp-refsem — reference semantics and generative oracles
//!
//! The fast engines in this workspace (the semi-naive indexed grounder, the
//! stable-model solver, the snapshot PDP serving tier) exist to be
//! rewritten: every optimization on the roadmap rewrites a hot internal, and
//! the paper's central claim — learned generative policies render the *same*
//! decisions as the intended policy set — makes semantic drift the one
//! unacceptable regression. This crate is the drift detector. It follows the
//! small-trusted-checker pattern: a deliberately naive evaluator, written for
//! obviousness rather than speed, is kept permanently alongside the fast
//! engine and cross-examined against it on thousands of generated cases.
//!
//! Three pillars:
//!
//! * [`gen`] — **seeded generators** for safe stratified ASP programs,
//!   right-linear answer set grammars (plain, or annotated with constraint
//!   candidates for the learner's world coverage), XACML-style policy sets,
//!   and request streams. All randomness flows through the deterministic offline `rand`
//!   shim, so a case is fully reproduced by one `u64` seed.
//! * [`reference`](mod@reference) — the **reference evaluator**: naive full-universe
//!   grounding, a stratum-by-stratum perfect-model fixpoint, a brute-force
//!   stable-model check by subset enumeration, and a straight-line reference
//!   PDP `decide`. No indices, no caches, no sharing with the fast paths.
//! * [`metamorphic`] + [`diff`] — **transformation oracles** (predicate
//!   renaming, rule permutation, inert-rule insertion, request reordering)
//!   that must leave answer sets and decisions unchanged, and the seeded
//!   differential case runners used by both the `tests/` suites and the
//!   `fuzz` bench binary. PDP cases compare the full
//!   [`DecisionEffects`](agenp_policy::DecisionEffects) — decision,
//!   obligations, penalty — through all four serving paths against
//!   [`reference::effects_reference`], and [`wire`] does the same through
//!   pdpd's connection loop, driven in memory with pipelined HTTP trains
//!   and malformed requests. Every failure message leads with
//!   the seed that reproduces it, and mismatches are first
//!   [`shrink`]-minimized to the smallest failing rule subset / policy
//!   set / request stream.
//!
//! ```
//! // Differential check on one seed: fast grounder+solver vs the naive
//! // reference evaluator, and the serving tier vs the reference PDP.
//! agenp_refsem::diff::run_asp_case(7).unwrap();
//! agenp_refsem::diff::run_pdp_case(7).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod gen;
pub mod metamorphic;
pub mod reference;
pub mod shrink;
pub mod wire;

pub use diff::{
    run_asg_case, run_asp_case, run_generate_case, run_large_pdp_case, run_metamorphic_asp_case,
    run_metamorphic_pdp_case, run_pdp_case, run_world_case,
};
pub use reference::Model;
pub use wire::run_wire_case;
