//! The context-dependent ASG learning task (paper Definition 3) and the
//! learner that solves it.
//!
//! A task `T = ⟨G, S_M, E⁺, E⁻⟩` asks for a minimal-cost hypothesis
//! `H ⊆ S_M` such that every positive example's string is in `L(G(C):H)`
//! and every negative example's string is not. Soft examples may instead be
//! *sacrificed* at their penalty (ILASP-style noise handling).
//!
//! [`Learner::learn`] runs a fresh [`LearningSession`] over the task; the
//! session compiles the examples and runs one of the two searches in
//! `search.rs` (monotone branch and bound for constraint-only spaces,
//! generic subset search otherwise).

use crate::compile::CompileOptions;
use crate::example::Example;
use crate::session::LearningSession;
use crate::space::HypothesisSpace;
use agenp_asp::{Deadline, Exhausted, GroundError, GroundStats, Rule};
use agenp_grammar::{Asg, AsgError, ProdId};
use std::fmt;

/// A context-dependent ASG learning task.
#[derive(Clone, Debug)]
pub struct LearningTask {
    /// The initial grammar `G`.
    pub grammar: Asg,
    /// The hypothesis space `S_M`.
    pub space: HypothesisSpace,
    /// Positive examples `E⁺`.
    pub positive: Vec<Example>,
    /// Negative examples `E⁻`.
    pub negative: Vec<Example>,
}

impl LearningTask {
    /// Creates a task with empty example sets.
    pub fn new(grammar: Asg, space: HypothesisSpace) -> LearningTask {
        LearningTask {
            grammar,
            space,
            positive: Vec::new(),
            negative: Vec::new(),
        }
    }

    /// Adds a positive example.
    pub fn pos(mut self, e: Example) -> LearningTask {
        self.positive.push(e);
        self
    }

    /// Adds a negative example.
    pub fn neg(mut self, e: Example) -> LearningTask {
        self.negative.push(e);
        self
    }

    /// Verifies a hypothesis against Definition 3 using full ASG semantics
    /// (independent of the learner's internal shortcuts). Returns the list
    /// of violated example indices as `(is_positive, index)`.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures; a grounding past the default atom
    /// cap is [`GroundError::Exhausted`].
    pub fn violations(&self, hypothesis: &Hypothesis) -> Result<Vec<(bool, usize)>, GroundError> {
        let g = self
            .grammar
            .with_added_rules(&hypothesis.rules)
            .expect("hypothesis targets validated at learn time");
        let accepts = |e: &Example| {
            g.with_context(&e.context)
                .accepts(&e.text)
                .map_err(|err| match err {
                    AsgError::Ground(g) => g,
                    AsgError::Exhausted(kind) => GroundError::Exhausted(kind),
                    other => panic!("unexpected ASG error: {other}"),
                })
        };
        let mut out = Vec::new();
        for (i, e) in self.positive.iter().enumerate() {
            if !accepts(e)? {
                out.push((true, i));
            }
        }
        for (i, e) in self.negative.iter().enumerate() {
            if accepts(e)? {
                out.push((false, i));
            }
        }
        Ok(out)
    }
}

/// A learned hypothesis: the chosen rules with their target productions.
#[derive(Clone, Debug, Default)]
pub struct Hypothesis {
    /// The learned `(production, rule)` pairs.
    pub rules: Vec<(ProdId, Rule)>,
    /// Total cost: rule lengths plus penalties of sacrificed examples.
    pub cost: u64,
    /// Sacrificed (violated) soft examples as `(is_positive, index)`:
    /// positives first, each in example order.
    pub sacrificed: Vec<(bool, usize)>,
}

impl Hypothesis {
    /// The grammar `G:H`.
    pub fn apply(&self, grammar: &Asg) -> Asg {
        grammar
            .with_added_rules(&self.rules)
            .expect("validated targets")
    }
}

impl fmt::Display for Hypothesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hypothesis (cost {}):", self.cost)?;
        for (p, r) in &self.rules {
            writeln!(f, "  p{} ⊕ {}", p.index(), r)?;
        }
        for (is_pos, i) in &self.sacrificed {
            writeln!(
                f,
                "  sacrificed {} example #{i}",
                if *is_pos { "positive" } else { "negative" }
            )?;
        }
        Ok(())
    }
}

/// Errors raised by the learner.
#[derive(Clone, Debug)]
pub enum LearnError {
    /// A candidate rule is unsafe.
    UnsafeCandidate(String),
    /// A candidate targets a production outside the grammar.
    BadTarget(usize),
    /// Grounding failed while compiling an example or checking coverage.
    Ground(GroundError),
    /// No hypothesis within the cost bound satisfies the task.
    Unsatisfiable,
    /// The search budget was exhausted before an optimal solution was proven.
    Budget,
    /// A [`RunBudget`](agenp_asp::RunBudget) resource (currently the
    /// wall-clock deadline) ran out before any solution was found.
    Exhausted(Exhausted),
    /// The meta-encoding backend does not apply to this task.
    MetaInapplicable(String),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::UnsafeCandidate(r) => write!(f, "unsafe candidate rule `{r}`"),
            LearnError::BadTarget(i) => write!(f, "candidate targets unknown production {i}"),
            LearnError::Ground(e) => write!(f, "grounding failed: {e}"),
            LearnError::Unsatisfiable => write!(f, "no hypothesis satisfies the examples"),
            LearnError::Budget => write!(f, "search budget exhausted"),
            LearnError::Exhausted(kind) => write!(f, "resource exhausted: {kind}"),
            LearnError::MetaInapplicable(why) => {
                write!(f, "meta-encoding learner not applicable: {why}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

impl From<GroundError> for LearnError {
    fn from(e: GroundError) -> LearnError {
        LearnError::Ground(e)
    }
}

/// Statistics describing a learning run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Candidates in the hypothesis space.
    pub candidates: usize,
    /// Answer-set worlds enumerated across all example parse trees.
    pub worlds: usize,
    /// Search nodes explored.
    pub search_nodes: u64,
    /// True if the monotone (constraint-only) fast path was used.
    pub used_monotone: bool,
    /// Grounding passes spent compiling examples and evaluating hypotheses.
    pub grounding_passes: u64,
    /// Ground-rule instantiations emitted across all grounding work (the
    /// primary grounder cost metric; see [`agenp_asp::GroundStats`]).
    pub rules_instantiated: u64,
    /// Stable-model solver invocations.
    pub solver_calls: u64,
    /// Always 0: the learner keeps no memo of hypothesis evaluations. Kept
    /// for existing readers of the counter.
    pub eval_cache_hits: u64,
    /// Tree evaluations made by the generic search: each grounds a
    /// hypothesis as a delta over one parse tree's base and solves it.
    pub eval_cache_misses: u64,
    /// Distinct examples compiled (parsed, grounded, worlds enumerated and
    /// coverage computed) by this call.
    pub examples_compiled: usize,
    /// Wall time spent compiling examples and computing their coverage, in
    /// nanoseconds.
    pub compile_ns: u64,
    /// The part of `compile_ns` spent computing coverage on the monotone
    /// path: compiling the space's candidate plans (once per session) and
    /// evaluating them on each new world for its kill set, in nanoseconds.
    pub coverage_ns: u64,
    /// Wall time spent searching, or checking that the last optimum still
    /// holds, in nanoseconds.
    pub search_ns: u64,
    /// True if a [`LearningSession`] reused its last optimum instead of
    /// searching (`search_nodes` is then 0).
    pub search_skipped: bool,
}

impl LearnStats {
    /// Folds a grounder's counters into the learner totals.
    pub(crate) fn absorb_ground(&mut self, g: GroundStats) {
        self.grounding_passes += g.passes;
        self.rules_instantiated += g.rules_instantiated;
    }
}

/// Branch-ordering heuristic for the monotone search — the paper's §V-C
/// suggestion that statistics over the data can guide the symbolic
/// hypothesis-space search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Branching {
    /// Order a world's killers by discrimination: prefer cheap candidates
    /// that kill many negative worlds and few positive worlds.
    #[default]
    Guided,
    /// Order killers by cost only (the unguided baseline).
    CostFirst,
}

/// Learner configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LearnOptions {
    /// Maximum total hypothesis cost considered.
    pub max_cost: u64,
    /// Example compilation bounds.
    pub compile: CompileOptions,
    /// Disable the monotone fast path (ablation).
    pub force_generic: bool,
    /// Search node budget, on both search paths. A search cut short
    /// returns the best solution found so far, or [`LearnError::Budget`].
    pub max_nodes: u64,
    /// Branch-ordering heuristic (monotone path).
    pub branching: Branching,
    /// Wall-clock deadline for the hypothesis search (default: none).
    pub deadline: Deadline,
}

impl Default for LearnOptions {
    fn default() -> LearnOptions {
        LearnOptions {
            max_cost: 64,
            compile: CompileOptions::default(),
            force_generic: false,
            max_nodes: 2_000_000,
            branching: Branching::Guided,
            deadline: Deadline::none(),
        }
    }
}

impl LearnOptions {
    /// Sets the maximum total hypothesis cost considered.
    pub fn with_max_cost(mut self, max_cost: u64) -> LearnOptions {
        self.max_cost = max_cost;
        self
    }

    /// Sets the example compilation bounds.
    pub fn with_compile(mut self, compile: CompileOptions) -> LearnOptions {
        self.compile = compile;
        self
    }

    /// Enables or disables forcing the generic search path (ablation).
    pub fn with_force_generic(mut self, force_generic: bool) -> LearnOptions {
        self.force_generic = force_generic;
        self
    }

    /// Sets the search node budget of both search paths.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> LearnOptions {
        self.max_nodes = max_nodes;
        self
    }

    /// Selects the branch-ordering heuristic for the monotone path.
    pub fn with_branching(mut self, branching: Branching) -> LearnOptions {
        self.branching = branching;
        self
    }

    /// Sets the wall-clock deadline for the hypothesis search.
    pub fn with_deadline(mut self, deadline: Deadline) -> LearnOptions {
        self.deadline = deadline;
        self
    }
}

/// The inductive learner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Learner {
    options: LearnOptions,
}

impl Learner {
    /// A learner with default options.
    pub fn new() -> Learner {
        Learner::default()
    }

    /// A learner with explicit options.
    pub fn with_options(options: LearnOptions) -> Learner {
        Learner { options }
    }

    /// The learner's options.
    pub fn options(&self) -> &LearnOptions {
        &self.options
    }

    /// Solves the task, returning a minimal-cost hypothesis.
    ///
    /// # Errors
    ///
    /// [`LearnError::Unsatisfiable`] if no hypothesis within the cost bound
    /// covers the examples; [`LearnError::UnsafeCandidate`] /
    /// [`LearnError::BadTarget`] for malformed spaces; grounding errors.
    pub fn learn(&self, task: &LearningTask) -> Result<Hypothesis, LearnError> {
        self.learn_with_stats(task).map(|(h, _)| h)
    }

    /// Like [`Learner::learn`], additionally returning [`LearnStats`]: a
    /// fresh [`LearningSession`] with the task's positives, then its
    /// negatives, solved once.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Learner::learn`].
    pub fn learn_with_stats(
        &self,
        task: &LearningTask,
    ) -> Result<(Hypothesis, LearnStats), LearnError> {
        LearningSession::for_task(task, self.options).solve()
    }
}
