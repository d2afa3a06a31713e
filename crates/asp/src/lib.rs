//! # agenp-asp — Answer Set Programming for generative policies
//!
//! A from-scratch implementation of the ASP fragment used by the AGENP
//! generative-policy framework (Bertino et al., ICDCS 2019, §II-A): **normal
//! rules and constraints** under the stable-model semantics, with
//! negation-as-failure, builtin comparisons, grounding-time arithmetic, and
//! the `@k` parse-tree annotations required by answer set grammars. Two
//! extensions serve the framework's wider needs: **weak constraints**
//! (`:~ body. [w@l]`) with branch-and-bound optimization for utility-based
//! policies, and **derivation-proof explanations** ([`explain_atom`],
//! [`violated_constraints`]) for the paper's explainability agenda (§V-B).
//!
//! The pipeline is parse → ground → solve:
//!
//! ```
//! use agenp_asp::{Program, Solver};
//!
//! let program: Program = "
//!     route(north). route(south).
//!     chosen(R) :- route(R), not other(R).
//!     other(R)  :- route(R), not chosen(R).
//!     :- chosen(north), chosen(south).
//! ".parse()?;
//!
//! let result = Solver::new().solve_program(&program)?;
//! // exactly one route is chosen in each answer set, plus the model where
//! // both are `other`
//! assert!(result.models().iter().all(|m| m.with_predicate("chosen").count() <= 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Annotated atoms (e.g. `size(X)@1`) are ordinary atoms distinct from their
//! unannotated counterparts; [`Program::instantiate_at`] implements the
//! `P@t` trace-prefixing operation used when mapping answer-set-grammar
//! parse trees to programs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atom;
mod budget;
mod explain;
mod ground;
pub mod obs;
mod parser;
mod program;
mod solve;
mod symbol;
mod term;

pub use atom::{Atom, CmpOp, Literal, Trace};
pub use budget::{Deadline, Exhausted, RunBudget};
pub use explain::{explain_atom, violated_constraints, Derivation};
pub use ground::{
    ground, ground_with, ground_with_stats, schedule_body, AtomId, AtomTable, BodyStep,
    GroundError, GroundOptions, GroundProgram, GroundRule, GroundStats, GroundWeak,
    IncrementalGrounder,
};
pub use parser::{parse_atom, parse_program, parse_rule, ParseError};
pub use program::{Program, Rule, WeakConstraint};
pub use solve::{
    is_stable, model_cost, AnswerSet, CostVector, OptimizeResult, SolveResult, SolveStats, Solver,
};
pub use symbol::Symbol;
pub use term::{ArithOp, Bindings, Term};
