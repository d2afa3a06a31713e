//! # agenp-adapt — the adaptation plane
//!
//! Closes the paper's learn–serve loop (Fig. 2) *online*: decisions the
//! PEP serves are logged, mined into labeled examples, and handed to an
//! [`Ams`](agenp_core::arch::Ams), whose `adapt` relearns the GPM with
//! the batch learner, regenerates policies, screens them through the PCP
//! and publishes the survivors through the serving tier's snapshot swap
//! — all while decision traffic keeps flowing (`docs/ADAPTATION.md`).
//!
//! The pieces, in data-flow order:
//!
//! - [`DecisionLog`] — a bounded ring buffer the enforcement point
//!   records served decisions into.
//! - [`Miner`] — drains the log into candidate positive/negative
//!   examples ([`Feedback`](agenp_core::arch::Feedback)), deduplicated
//!   per request, penalty-aware.
//! - [`AdaptPlane`] — one synchronous `run_round`: mine, `Ams::observe`
//!   each example, `Ams::adapt`. The context, translator, PCP
//!   restrictions and run budget all live on the AMS. Serve-last-good on
//!   failure; serving is never interrupted.
//! - [`Relearner`] — the plane on a worker thread, triggered and
//!   observed over channels.
//!
//! Observability: span `adapt.mine` (the relearn itself records
//! `ams.adapt`, `ams.refresh` and `serve.publish`); counters
//! `adapt.log.recorded`, `adapt.log.dropped`, `adapt.mine.emitted`,
//! `adapt.rounds.{published,skipped,failed}`. Like every span and counter,
//! they move only with telemetry on.

mod log;
mod miner;
mod obs;
mod plane;
mod relearn;

pub use crate::log::{DecisionLog, DecisionRecord};
pub use crate::miner::{permit_text, MineStats, MinedBatch, Miner};
pub use crate::plane::{AdaptPlane, RoundOutcome, RoundReport};
pub use crate::relearn::Relearner;
