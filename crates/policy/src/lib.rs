//! # agenp-policy — attribute-based policies for AGENP
//!
//! The conventional policy-based-management substrate the AGENP architecture
//! builds on (paper §III): an XACML-style attribute/request model, policy
//! rules with effects and conditions, combining algorithms, the pure
//! decision kernel a Policy Decision Point evaluates (and its compiled form,
//! [`CompiledPolicies`], which the serving tier builds once per snapshot),
//! a Policy Enforcement
//! Point, a versioned policy repository, the Policy Checking Point's quality metrics
//! (consistency, relevance, minimality, completeness \[14\]), and bridges to
//! the symbolic layer (requests as ASP context programs, policies as
//! strings of a canonical policy language).
//!
//! ```
//! use agenp_policy::{evaluate_policies, Category, CombiningAlg, Cond, Decision, Effect,
//!                    Policy, PolicyRepository, PolicyRule, Request};
//!
//! let mut repo = PolicyRepository::new();
//! repo.add(Policy::new("p", vec![PolicyRule::new(
//!     "allow-dba", Effect::Permit, Cond::eq(Category::Subject, "role", "dba"),
//! )]));
//! let request = Request::new().subject("role", "dba");
//! let d = evaluate_policies(repo.policies(), CombiningAlg::DenyOverrides, &request);
//! assert_eq!(d, Decision::Permit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attr;
mod bridge;
mod kernel;
mod ledger;
mod minimize;
mod model;
mod obligation;
mod pdp;
mod quality;

pub use attr::{AttrValue, Category, Request};
pub use bridge::{
    attr_value_to_term, obligation_to_atom, obligations_to_program, parse_value,
    request_to_context, rule_from_text, rule_to_text, PolicyTextError,
};
pub use kernel::CompiledPolicies;
pub use ledger::{
    ComplianceAdvice, ComplianceEvaluator, LedgerEntry, ObligationLedger, ObligationStatus,
};
pub use minimize::minimize_policies;
pub use model::{CombiningAlg, Cond, CondOp, Decision, Effect, Policy, PolicyRule};
pub use obligation::{evaluate_policies_effects, DecisionEffects, Obligation, ObligationSpec};
pub use pdp::{evaluate_policies, Enforcement, Pep, PolicyRepository};
pub use quality::{Conflict, QualityChecker, QualityReport, ResolutionStrategy};
