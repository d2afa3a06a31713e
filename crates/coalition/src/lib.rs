//! # agenp-coalition — multi-party coalition fabric for AGENP
//!
//! The coalition layer of the paper: multiple Autonomous Managed Systems
//! learning concurrently, sharing policy experiences through a CASWiki-style
//! community knowledge base \[16\] filtered by an evidence-based trust model,
//! plus the two coalition application studies that need more than one
//! party — data sharing with helper microservices (§IV-D, \[33\]) and
//! federated-learning governance (§IV-E).
//!
//! The coalition "network" is a seeded discrete-event simulation
//! ([`sim`]); the paper's coalition is an architectural abstraction, not
//! a measured testbed, so this preserves the relevant behaviour. Parties
//! learn with the real learner in [`sim::learning_round`], and one fault
//! vocabulary, [`sim::ChaosPlan`], drives every failure — lost,
//! duplicated, delayed or partitioned reports, crash waves, degraded
//! waves. Failures are retried at a fixed interval and surfaced as
//! degraded [`CoalitionOutcome`]s instead of panics; equal configurations
//! replay to equal trace hashes (see `docs/RESILIENCE.md`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod caswiki;
pub mod cav_services;
pub mod datashare;
mod fabric;
pub mod federated;
pub mod sim;
mod trust;

pub use caswiki::{CasWiki, Contribution};
pub use fabric::{
    distributed_cav_learning, warm_start_comparison, CoalitionConfig, CoalitionError,
    CoalitionOutcome, NodeOutcome, NodeReport, WarmStartOutcome,
};
pub use trust::TrustModel;
