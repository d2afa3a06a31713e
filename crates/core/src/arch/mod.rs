//! The AGENP architecture (paper §III, Fig. 2): the components an
//! Autonomous Managed System wires together — Policy Refinement Point,
//! Policy Adaptation Point, Policy Checking Point, Policy Information
//! Point, and the repositories — plus the shared-snapshot PDP serving tier
//! (`docs/SERVING.md`) that splits decision-making out of the mutable AMS.

mod ams;
mod goals;
mod obs;
mod padap;
mod pcp;
mod pip;
mod prep;
mod repr;
mod serve;

pub use ams::{Ams, AmsError, DegradedMode};
pub use goals::{GoalDirection, GoalMonitor, GoalPolicy, GoalViolation};
pub use obs::ServeMetrics;
pub use padap::{Adaptation, Feedback, Padap};
pub use pcp::{Pcp, Verdict};
pub use pip::{ContextProvider, Pip, StaticContext};
pub use prep::{CanonicalTranslator, FnTranslator, PolicyTranslator, Prep};
pub use repr::{GpmVersion, RepresentationsRepository};
pub use serve::{
    DecisionOutcome, DecisionSnapshot, PdpHandle, PdpPin, PdpServer, ServeStats, ServerReport,
    SnapshotSwap,
};
