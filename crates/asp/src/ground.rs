//! Grounding: instantiating a program's variables over its Herbrand universe.
//!
//! The grounder computes an over-approximation of the derivable atoms
//! (treating negation-as-failure literals as always satisfiable), emits the
//! ground instances of each rule restricted to that approximation, and then
//! simplifies: positive literals on definite facts are removed, negative
//! literals on underivable atoms are removed, and rules blocked by definite
//! facts are dropped.
//!
//! # Semi-naive evaluation
//!
//! Saturation is *semi-naive* (delta-driven): each round only re-evaluates a
//! rule through join orders that can consume at least one atom derived in the
//! previous round. For a rule with joins `j0, …, jk` and the round's delta
//! window `Δ`, the variant with delta position `d` reads pre-delta atoms at
//! joins before `d`, exactly `Δ` at join `d`, and everything derived so far at
//! joins after `d` — so every new combination of body atoms is enumerated
//! exactly once over the whole run instead of once per pass. The classic
//! naive fixpoint is retained behind [`GroundMode::Naive`] as a reference
//! implementation for differential testing and benchmarking.
//!
//! # Index-driven joins and parallel rounds
//!
//! Every signature slice of the join index additionally maintains an
//! *argument-value index*: for each argument position, a hash map from
//! ground value to the (ascending) positions holding that value. A join
//! whose pattern has bound arguments probes the smallest matching bucket and
//! window-clips it with binary search instead of scanning the whole
//! signature slice — `join_candidates` drops by an order of magnitude on
//! recursive workloads (see `BENCH_asp.json`).
//!
//! Each saturation pass is decomposed into independent *work units* (rule
//! variants, with large first-join windows chunked by
//! [`GroundOptions::parallel_grain`]) evaluated against a frozen snapshot of
//! the engine state, optionally fanned out across a from-scratch
//! work-stealing pool ([`crate::pool::WorkPool`]); results are merged
//! strictly in unit order, so the output (atom table, rule order, stats
//! except [`GroundStats::parallel_units`]) is byte-identical for every
//! thread count, the serial path included.
//!
//! [`IncrementalGrounder`] additionally snapshots a saturated base program so
//! that small rule deltas (e.g. candidate hypotheses during learning) can be
//! grounded on top without re-deriving the base. See `docs/PERFORMANCE.md`
//! for the algorithm write-up and the benchmark harness that tracks it.

use crate::atom::{Atom, CmpOp, Literal, Trace};
use crate::budget::{Deadline, Exhausted};
use crate::parallel::Parallelism;
use crate::pool::{UnitControl, WorkPool};
use crate::program::{Program, Rule, WeakConstraint};
use crate::symbol::Symbol;
use crate::term::{Bindings, Term};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Mutex;

/// Identifier of a ground atom inside a [`GroundProgram`].
pub type AtomId = u32;

/// An error raised while grounding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GroundError {
    /// A rule contains a variable not bound by any positive body literal or
    /// assignment chain.
    UnsafeRule {
        /// Rendered rule text.
        rule: String,
        /// The offending variable.
        var: Symbol,
    },
    /// Instantiation exceeded the configured atom budget.
    Budget {
        /// The configured maximum number of ground atoms.
        max_atoms: usize,
    },
    /// Instantiation ran out of a [`RunBudget`](crate::RunBudget) resource
    /// (currently: the wall-clock deadline).
    Exhausted(Exhausted),
}

impl GroundError {
    /// The resource-exhaustion kind behind this error, if any. Both the
    /// legacy [`GroundError::Budget`] and the newer
    /// [`GroundError::Exhausted`] qualify; unsafe rules do not.
    pub fn exhausted(&self) -> Option<Exhausted> {
        match self {
            GroundError::Budget { .. } => Some(Exhausted::Atoms),
            GroundError::Exhausted(kind) => Some(*kind),
            GroundError::UnsafeRule { .. } => None,
        }
    }
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::UnsafeRule { rule, var } => {
                write!(f, "unsafe rule `{rule}`: variable {var} is not bound")
            }
            GroundError::Budget { max_atoms } => {
                write!(f, "grounding exceeded the budget of {max_atoms} atoms")
            }
            GroundError::Exhausted(kind) => write!(f, "grounding aborted: {kind}"),
        }
    }
}

impl std::error::Error for GroundError {}

/// Interning table mapping ground atoms to dense [`AtomId`]s.
#[derive(Clone, Debug, Default)]
pub struct AtomTable {
    atoms: Vec<Atom>,
    index: HashMap<Atom, AtomId>,
}

impl AtomTable {
    /// An empty table.
    pub fn new() -> AtomTable {
        AtomTable::default()
    }

    /// Interns `atom`, returning its id.
    pub fn intern(&mut self, atom: &Atom) -> AtomId {
        if let Some(&id) = self.index.get(atom) {
            return id;
        }
        let id = u32::try_from(self.atoms.len()).expect("atom table overflow");
        self.atoms.push(atom.clone());
        self.index.insert(atom.clone(), id);
        id
    }

    /// Looks up an atom's id without interning.
    pub fn get(&self, atom: &Atom) -> Option<AtomId> {
        self.index.get(atom).copied()
    }

    /// Resolves an id back to its atom.
    pub fn resolve(&self, id: AtomId) -> &Atom {
        &self.atoms[id as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if no atoms are interned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over `(id, atom)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &Atom)> {
        self.atoms.iter().enumerate().map(|(i, a)| (i as AtomId, a))
    }
}

/// A ground rule over [`AtomId`]s. `head == None` encodes a constraint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundRule {
    /// Head atom id, or `None` for a constraint.
    pub head: Option<AtomId>,
    /// Positive body atom ids.
    pub pos: Vec<AtomId>,
    /// Negative (naf) body atom ids.
    pub neg: Vec<AtomId>,
}

impl GroundRule {
    /// True for constraints.
    pub fn is_constraint(&self) -> bool {
        self.head.is_none()
    }

    /// True for unconditional facts.
    pub fn is_fact(&self) -> bool {
        self.head.is_some() && self.pos.is_empty() && self.neg.is_empty()
    }
}

/// A ground weak constraint: penalize models satisfying the body by
/// `weight` at `level`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundWeak {
    /// Positive body atom ids.
    pub pos: Vec<AtomId>,
    /// Negative body atom ids.
    pub neg: Vec<AtomId>,
    /// Penalty.
    pub weight: i64,
    /// Priority level.
    pub level: i64,
}

/// The result of grounding: interned atoms plus simplified ground rules.
#[derive(Clone, Debug, Default)]
pub struct GroundProgram {
    table: AtomTable,
    rules: Vec<GroundRule>,
    weaks: Vec<GroundWeak>,
    definite_facts: Vec<AtomId>,
    inconsistent: bool,
}

impl GroundProgram {
    /// The atom table.
    pub fn atoms(&self) -> &AtomTable {
        &self.table
    }

    /// The simplified ground rules.
    pub fn rules(&self) -> &[GroundRule] {
        &self.rules
    }

    /// The ground weak constraints.
    pub fn weak_constraints(&self) -> &[GroundWeak] {
        &self.weaks
    }

    /// Atoms established as definitely true during simplification.
    pub fn definite_facts(&self) -> &[AtomId] {
        &self.definite_facts
    }

    /// True if simplification already proved there is no answer set (a
    /// constraint reduced to the empty body).
    pub fn proven_inconsistent(&self) -> bool {
        self.inconsistent
    }

    /// Number of ground rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no ground rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            if let Some(h) = r.head {
                write!(f, "{}", self.table.resolve(h))?;
                if !r.pos.is_empty() || !r.neg.is_empty() {
                    write!(f, " :- ")?;
                }
            } else {
                write!(f, ":- ")?;
            }
            let mut first = true;
            for &p in &r.pos {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{}", self.table.resolve(p))?;
            }
            for &n in &r.neg {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "not {}", self.table.resolve(n))?;
            }
            writeln!(f, ".")?;
        }
        for w in &self.weaks {
            write!(f, ":~ ")?;
            let mut first = true;
            for &p in &w.pos {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{}", self.table.resolve(p))?;
            }
            for &n in &w.neg {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "not {}", self.table.resolve(n))?;
            }
            writeln!(f, ". [{}@{}]", w.weight, w.level)?;
        }
        Ok(())
    }
}

/// Grounding options.
#[derive(Clone, Copy, Debug)]
pub struct GroundOptions {
    /// Abort with [`GroundError::Budget`] once this many distinct ground
    /// atoms have been created.
    pub max_atoms: usize,
    /// Apply fact-folding simplification (default). Disable to preserve the
    /// full rule structure — e.g. for derivation-based explanations.
    pub simplify: bool,
    /// Abort with [`GroundError::Exhausted`] once this wall-clock deadline
    /// passes (default: no deadline).
    pub deadline: Deadline,
    /// Saturation strategy (semi-naive by default; the naive reference is
    /// kept for differential testing and speedup measurements).
    pub mode: GroundMode,
    /// Worker threads for saturation passes, as a unified
    /// [`Parallelism`] policy (default: [`Parallelism::Auto`]). A resolved
    /// count of `1` pins the grounder to the calling thread and spawns
    /// nothing. Output is byte-identical for every thread count.
    pub parallelism: Parallelism,
    /// Work-unit chunk size: a pass's first-join candidate windows are
    /// split into chunks of at most this many candidates, and the pass only
    /// moves to the pool when its total candidate work reaches this size
    /// (small rounds stay inline on the calling thread).
    pub parallel_grain: usize,
}

impl Default for GroundOptions {
    fn default() -> GroundOptions {
        GroundOptions {
            max_atoms: 4_000_000,
            simplify: true,
            deadline: Deadline::none(),
            mode: GroundMode::SemiNaive,
            parallelism: Parallelism::Auto,
            parallel_grain: 256,
        }
    }
}

impl GroundOptions {
    /// Sets the atom budget.
    pub fn with_max_atoms(mut self, max_atoms: usize) -> GroundOptions {
        self.max_atoms = max_atoms;
        self
    }

    /// Enables or disables fact-folding simplification.
    pub fn with_simplify(mut self, simplify: bool) -> GroundOptions {
        self.simplify = simplify;
        self
    }

    /// Sets the grounding deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> GroundOptions {
        self.deadline = deadline;
        self
    }

    /// Selects the saturation strategy.
    pub fn with_mode(mut self, mode: GroundMode) -> GroundOptions {
        self.mode = mode;
        self
    }

    /// Sets the unified worker-thread policy.
    pub fn with_parallelism(mut self, parallelism: impl Into<Parallelism>) -> GroundOptions {
        self.parallelism = parallelism.into();
        self
    }

    /// Sets the work-unit chunk size.
    pub fn with_parallel_grain(mut self, parallel_grain: usize) -> GroundOptions {
        self.parallel_grain = parallel_grain.max(1);
        self
    }

    /// The parallelism policy these options apply.
    pub fn effective_parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The thread count a run with these options uses (see
    /// [`Parallelism::resolve`] for the resolution order).
    pub fn effective_threads(&self) -> usize {
        self.effective_parallelism().resolve()
    }
}

/// Which saturation strategy the grounder runs. Both produce identical
/// atoms, rules, and weak constraints; they differ only in the work spent
/// re-deriving known facts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GroundMode {
    /// Delta-driven semi-naive evaluation (the production strategy).
    #[default]
    SemiNaive,
    /// Full re-saturation every pass — the reference implementation, kept
    /// for differential testing and for quantifying the semi-naive speedup.
    Naive,
}

/// Work counters reported by the grounder.
///
/// `rules_instantiated` is the primary cost metric: it counts every complete
/// body instantiation reaching rule emission (before deduplication), which is
/// what the semi-naive strategy reduces relative to naive saturation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GroundStats {
    /// Saturation passes: semi-naive rounds (including the seed pass) or
    /// naive fixpoint sweeps.
    pub passes: u64,
    /// Complete ground-rule (and weak-constraint) instantiations emitted by
    /// the join machinery, counted before deduplication.
    pub rules_instantiated: u64,
    /// Candidate atoms scanned across all join steps (after argument-value
    /// index probing — this is what indexing collapses).
    pub join_candidates: u64,
    /// Work units executed on pool worker threads. `0` for fully serial
    /// runs; this is the only counter that varies with the execution venue.
    pub parallel_units: u64,
}

impl GroundStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: GroundStats) {
        self.passes += other.passes;
        self.rules_instantiated += other.rules_instantiated;
        self.join_candidates += other.join_candidates;
        self.parallel_units += other.parallel_units;
    }
}

/// Dense ids for parse-tree traces, so join-index keys are `Copy` and a
/// candidate lookup never clones a [`Trace`].
type TraceId = u32;

#[derive(Clone, Debug, Default)]
struct TraceIds {
    ids: HashMap<Trace, TraceId>,
}

impl TraceIds {
    fn intern(&mut self, trace: &Trace) -> TraceId {
        if let Some(&id) = self.ids.get(trace) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("trace id overflow");
        self.ids.insert(trace.clone(), id);
        id
    }
}

/// Join-index key: predicate, arity, interned trace. All `Copy`.
type SigKey = (Symbol, usize, TraceId);

fn sig_key(atom: &Atom, traces: &mut TraceIds) -> SigKey {
    (atom.pred, atom.args.len(), traces.intern(&atom.trace))
}

/// One scheduled body element, in evaluation order. Borrows from the source
/// program — scheduling clones no atoms or terms.
#[derive(Debug)]
enum Step<'p> {
    /// Join against derivable instances of this positive atom.
    Join {
        pattern: &'p Atom,
        key: SigKey,
        /// Variables first bound by this join (computed at schedule time);
        /// removed from the bindings after each candidate to undo the match.
        fresh: Vec<Symbol>,
        /// Argument positions whose pattern terms are fully bound before
        /// this join (and arithmetic-free): the join probes the smallest of
        /// these argument-value buckets instead of scanning the window.
        probe: Vec<usize>,
    },
    /// Evaluate a comparison whose variables are all bound.
    Filter(CmpOp, &'p Term, &'p Term),
    /// Bind `var` to the evaluation of `expr`.
    Bind(Symbol, &'p Term),
    /// Instantiate a negative literal (kept in the ground rule).
    Naf(&'p Atom),
}

/// A rule with its body scheduled for grounding.
#[derive(Debug)]
struct ScheduledRule<'p> {
    head: Option<&'p Atom>,
    /// Join-index key of the head (fixed at schedule time: substitution
    /// never changes predicate, arity, or trace).
    head_key: Option<SigKey>,
    steps: Vec<Step<'p>>,
    /// Join-index key per join ordinal, for delta-variant skipping.
    joins: Vec<SigKey>,
}

fn schedule_rule<'p>(
    rule: &'p Rule,
    traces: &mut TraceIds,
) -> Result<ScheduledRule<'p>, GroundError> {
    if let Some(var) = rule.unsafe_var() {
        return Err(GroundError::UnsafeRule {
            rule: rule.to_string(),
            var,
        });
    }
    schedule_body(rule.head.as_ref(), &rule.body, traces, &|| rule.to_string())
}

fn schedule_weak<'p>(
    weak: &'p WeakConstraint,
    traces: &mut TraceIds,
) -> Result<ScheduledRule<'p>, GroundError> {
    if let Some(var) = weak.unsafe_var() {
        return Err(GroundError::UnsafeRule {
            rule: weak.to_string(),
            var,
        });
    }
    schedule_body(None, &weak.body, traces, &|| weak.to_string())
}

fn schedule_program<'p>(
    program: &'p Program,
    traces: &mut TraceIds,
) -> Result<Vec<ScheduledRule<'p>>, GroundError> {
    program
        .rules()
        .iter()
        .map(|r| schedule_rule(r, traces))
        .collect()
}

fn schedule_body<'p>(
    head: Option<&'p Atom>,
    body: &'p [Literal],
    traces: &mut TraceIds,
    render: &dyn Fn() -> String,
) -> Result<ScheduledRule<'p>, GroundError> {
    let mut remaining: Vec<&'p Literal> = body.iter().collect();
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut steps: Vec<Step<'p>> = Vec::with_capacity(remaining.len());
    let mut joins: Vec<SigKey> = Vec::new();
    let all_bound = |t: &Term, bound: &HashSet<Symbol>| t.vars().iter().all(|v| bound.contains(v));
    while !remaining.is_empty() {
        // 1. A comparison with all variables bound is a pure filter.
        if let Some(i) = remaining.iter().position(|l| match l {
            Literal::Cmp(_, a, b) => all_bound(a, &bound) && all_bound(b, &bound),
            _ => false,
        }) {
            let Literal::Cmp(op, a, b) = remaining.remove(i) else {
                unreachable!()
            };
            steps.push(Step::Filter(*op, a, b));
            continue;
        }
        // 2. An `=` with exactly one unbound variable side is a binder.
        if let Some(i) = remaining.iter().position(|l| match l {
            Literal::Cmp(CmpOp::Eq, Term::Var(v), rhs) => {
                !bound.contains(v) && all_bound(rhs, &bound)
            }
            Literal::Cmp(CmpOp::Eq, lhs, Term::Var(v)) => {
                !bound.contains(v) && all_bound(lhs, &bound)
            }
            _ => false,
        }) {
            let Literal::Cmp(_, a, b) = remaining.remove(i) else {
                unreachable!()
            };
            match (a, b) {
                (Term::Var(v), rhs) if !bound.contains(v) => {
                    bound.insert(*v);
                    steps.push(Step::Bind(*v, rhs));
                }
                (lhs, Term::Var(v)) => {
                    bound.insert(*v);
                    steps.push(Step::Bind(*v, lhs));
                }
                _ => unreachable!(),
            }
            continue;
        }
        // 3. A positive atom join, preferring maximal already-bound overlap.
        let best = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l {
                Literal::Pos(a) => {
                    let mut vs = Vec::new();
                    a.collect_vars(&mut vs);
                    let overlap = vs.iter().filter(|v| bound.contains(v)).count();
                    Some((i, overlap))
                }
                _ => None,
            })
            .max_by_key(|&(i, overlap)| (overlap, std::cmp::Reverse(i)));
        if let Some((i, _)) = best {
            let Literal::Pos(a) = remaining.remove(i) else {
                unreachable!()
            };
            // Argument positions already fully bound (and arithmetic-free —
            // arithmetic never matches structurally) can be probed in the
            // argument-value index at evaluation time.
            let probe: Vec<usize> = a
                .args
                .iter()
                .enumerate()
                .filter(|(_, t)| !term_has_arith(t) && all_bound(t, &bound))
                .map(|(i, _)| i)
                .collect();
            let mut vs = Vec::new();
            a.collect_vars(&mut vs);
            let mut fresh = Vec::new();
            for v in vs {
                if bound.insert(v) {
                    fresh.push(v);
                }
            }
            let key = sig_key(a, traces);
            joins.push(key);
            steps.push(Step::Join {
                pattern: a,
                key,
                fresh,
                probe,
            });
            continue;
        }
        // 4. Negative literals once bound (safety guarantees this succeeds).
        if let Some(i) = remaining.iter().position(|l| match l {
            Literal::Neg(a) => {
                let mut vs = Vec::new();
                a.collect_vars(&mut vs);
                vs.iter().all(|v| bound.contains(v))
            }
            _ => false,
        }) {
            let Literal::Neg(a) = remaining.remove(i) else {
                unreachable!()
            };
            steps.push(Step::Naf(a));
            continue;
        }
        // Safety said this cannot happen.
        let lit = remaining[0];
        let mut vs = Vec::new();
        lit.collect_vars(&mut vs);
        let var = vs
            .into_iter()
            .find(|v| !bound.contains(v))
            .unwrap_or(Symbol::new("_"));
        return Err(GroundError::UnsafeRule {
            rule: render(),
            var,
        });
    }
    let head_key = head.map(|h| sig_key(h, traces));
    Ok(ScheduledRule {
        head,
        head_key,
        steps,
        joins,
    })
}

/// True if the term contains an arithmetic subterm. Arithmetic patterns
/// never match structurally (`Term::match_ground`), so such argument
/// positions are excluded from index probing.
fn term_has_arith(t: &Term) -> bool {
    match t {
        Term::Arith(..) => true,
        Term::Func(_, args) => args.iter().any(term_has_arith),
        Term::Int(_) | Term::Sym(_) | Term::Var(_) => false,
    }
}

/// Per-signature slice of the join index, with the delta window of the
/// current semi-naive round.
///
/// `ids[..frontier_start]` are *old* atoms (derived before the current
/// round's delta), `ids[frontier_start..frontier_end]` are the *delta*, and
/// atoms appended past `frontier_end` stay invisible until the next round.
#[derive(Clone, Debug, Default)]
struct SigEntry {
    ids: Vec<AtomId>,
    frontier_start: usize,
    frontier_end: usize,
    /// Argument-value index: for each argument position, ground value →
    /// ascending positions into `ids`. Joins with bound arguments probe the
    /// smallest bucket and clip it to their visibility window with binary
    /// search instead of scanning the whole slice.
    by_arg: Vec<HashMap<Term, Vec<u32>>>,
}

/// Join index over the current over-approximation, keyed by `Copy`
/// signature keys — candidate lookups clone nothing.
#[derive(Clone, Debug, Default)]
struct PossibleIndex {
    by_sig: HashMap<SigKey, SigEntry>,
    /// All derivable atoms (the heads emitted so far).
    derivable: HashSet<AtomId>,
}

impl PossibleIndex {
    fn insert(&mut self, id: AtomId, key: SigKey, atom: &Atom) -> bool {
        if !self.derivable.insert(id) {
            return false;
        }
        let e = self.by_sig.entry(key).or_default();
        if e.by_arg.len() != atom.args.len() {
            // First atom of this signature sizes the per-position maps (the
            // key fixes the arity, so this happens exactly once).
            e.by_arg.resize_with(atom.args.len(), HashMap::new);
        }
        let pos = u32::try_from(e.ids.len()).expect("signature index overflow");
        e.ids.push(id);
        for (k, arg) in atom.args.iter().enumerate() {
            e.by_arg[k].entry(arg.clone()).or_default().push(pos);
        }
        true
    }

    /// Rotates every delta window forward: the previous delta becomes old,
    /// atoms appended since become the new delta. Returns true if any
    /// signature gained atoms (i.e. another round is needed).
    fn advance(&mut self) -> bool {
        let mut any = false;
        for e in self.by_sig.values_mut() {
            e.frontier_start = e.frontier_end;
            e.frontier_end = e.ids.len();
            if e.frontier_end > e.frontier_start {
                any = true;
            }
        }
        any
    }

    fn has_delta(&self, key: SigKey) -> bool {
        self.by_sig
            .get(&key)
            .is_some_and(|e| e.frontier_end > e.frontier_start)
    }
}

/// Which window each join of a rule variant reads.
#[derive(Clone, Copy, Debug)]
enum JoinPlan {
    /// Every join reads the full visible window (seed pass / naive sweep).
    Full,
    /// Semi-naive variant: the join at this ordinal reads the delta window,
    /// earlier joins read pre-delta atoms, later joins read everything
    /// visible.
    Delta(usize),
}

fn plan_range(entry: &SigEntry, join_idx: usize, plan: JoinPlan, naive: bool) -> (usize, usize) {
    if naive {
        // Naive sweeps re-read the whole atom set every pass (frozen at the
        // pass boundary, like every other venue) and re-run until a full
        // sweep derives nothing new.
        return (0, entry.ids.len());
    }
    match plan {
        JoinPlan::Full => (0, entry.frontier_end),
        JoinPlan::Delta(d) => {
            if join_idx < d {
                (0, entry.frontier_start)
            } else if join_idx == d {
                (entry.frontier_start, entry.frontier_end)
            } else {
                (0, entry.frontier_end)
            }
        }
    }
}

/// Immutable view of the engine state one saturation pass reads. Shared by
/// every worker evaluating units of the pass — the atom table and join
/// index stay frozen until the merge step folds the results back in.
struct EvalView<'e> {
    table: &'e AtomTable,
    possible: &'e PossibleIndex,
    naive: bool,
    deadline: Deadline,
    max_atoms: usize,
}

/// One complete body instantiation produced by a worker. The merge step
/// interns the head and negative atoms; positive atoms need no interning —
/// they are the matched candidates, recorded by id during the walk.
struct Emission {
    /// Substituted ground head (`None` for constraints).
    head: Option<Atom>,
    /// Matched positive body atom ids, sorted and deduplicated.
    pos: Vec<AtomId>,
    /// Substituted ground negative body atoms, in body-step order.
    negs: Vec<Atom>,
}

/// A work unit's result: counters plus its emissions in walk order.
#[derive(Default)]
struct UnitOut {
    rules_instantiated: u64,
    join_candidates: u64,
    emissions: Vec<Emission>,
}

/// One schedulable work unit of a saturation pass: a rule variant whose
/// first-join candidate window is optionally chunked so large frontiers
/// spread across pool workers. Unit decomposition depends only on the grain
/// and the window sizes — never on the thread count — and the merge step
/// consumes results strictly in unit order, so the output is byte-identical
/// for any decomposition and any execution venue.
struct Unit<'a, 'p> {
    rule: &'a ScheduledRule<'p>,
    plan: JoinPlan,
    /// Absolute `[start, end)` position range the ordinal-0 join reads
    /// (`None` when the rule does not start with a join).
    chunk: Option<(usize, usize)>,
}

/// The candidate positions one join visits: a window-clipped bucket of the
/// argument-value index, or a full window scan when nothing is bound.
enum Candidates<'e> {
    /// Ascending positions (into `SigEntry::ids`) from the probed bucket.
    Probed(&'e [u32]),
    /// Scan `ids[start..end]` directly.
    Scan(std::ops::Range<usize>),
}

impl Candidates<'_> {
    fn len(&self) -> usize {
        match self {
            Candidates::Probed(p) => p.len(),
            Candidates::Scan(r) => r.len(),
        }
    }
}

/// Selects the candidates for a join over `entry` restricted to the window
/// `[start, end)`. With probe positions available, substitutes each probed
/// argument, looks up its value bucket, and returns the smallest bucket
/// clipped to the window; `None` means no candidate can match (a probed
/// value has no bucket, or its substitution failed). Every returned
/// candidate is still verified with `match_ground` — probing only needs to
/// be a superset of the matches, which bucket equality guarantees.
fn select_candidates<'e>(
    entry: &'e SigEntry,
    pattern: &Atom,
    probe: &[usize],
    bindings: &Bindings,
    start: usize,
    end: usize,
) -> Option<Candidates<'e>> {
    if probe.is_empty() {
        return Some(Candidates::Scan(start..end));
    }
    let mut best: Option<&'e Vec<u32>> = None;
    for &p in probe {
        let val = pattern.args[p].substitute(bindings)?;
        let bucket = entry.by_arg[p].get(&val)?;
        if best.is_none_or(|b| bucket.len() < b.len()) {
            best = Some(bucket);
        }
    }
    let bucket = best.expect("probe positions are non-empty");
    let lo = bucket.partition_point(|&pos| (pos as usize) < start);
    let hi = bucket.partition_point(|&pos| (pos as usize) < end);
    Some(Candidates::Probed(&bucket[lo..hi]))
}

/// Invariant inputs of one unit evaluation; the recursion varies only the
/// step cursor, the bindings, and the matched-atom path.
struct WalkFrame<'w, 'p> {
    view: &'w EvalView<'w>,
    rule: &'w ScheduledRule<'p>,
    chunk: Option<(usize, usize)>,
    plan: JoinPlan,
}

/// Evaluates one unit against the frozen view, returning its emissions and
/// counters. A unit whose emission buffer alone exceeds the atom budget
/// fails fast with [`GroundError::Budget`] — a pessimistic bound (the exact
/// check happens at merge) that keeps a single unit from buffering
/// unbounded memory.
fn eval_unit(view: &EvalView<'_>, unit: &Unit<'_, '_>) -> Result<UnitOut, GroundError> {
    let mut out = UnitOut::default();
    let frame = WalkFrame {
        view,
        rule: unit.rule,
        chunk: unit.chunk,
        plan: unit.plan,
    };
    let mut bindings = Bindings::new();
    let mut path = Vec::new();
    walk_unit(&frame, 0, 0, &mut bindings, &mut path, &mut out)?;
    Ok(out)
}

fn walk_unit(
    frame: &WalkFrame<'_, '_>,
    step: usize,
    join_idx: usize,
    bindings: &mut Bindings,
    path: &mut Vec<AtomId>,
    out: &mut UnitOut,
) -> Result<(), GroundError> {
    let view = frame.view;
    let rule = frame.rule;
    if view.deadline.expired() {
        return Err(GroundError::Exhausted(Exhausted::Deadline));
    }
    if step == rule.steps.len() {
        // Complete binding: emit. Substitution failures (e.g. head
        // arithmetic dividing by zero) skip the whole emission.
        out.rules_instantiated += 1;
        let head = match rule.head {
            Some(h) => match h.substitute(bindings) {
                Some(g) => Some(g),
                None => return Ok(()),
            },
            None => None,
        };
        let mut negs = Vec::new();
        for s in &rule.steps {
            if let Step::Naf(a) = s {
                match a.substitute(bindings) {
                    Some(g) => negs.push(g),
                    None => return Ok(()),
                }
            }
        }
        let mut pos = path.clone();
        pos.sort_unstable();
        pos.dedup();
        out.emissions.push(Emission { head, pos, negs });
        if out.emissions.len() > view.max_atoms {
            return Err(GroundError::Budget {
                max_atoms: view.max_atoms,
            });
        }
        return Ok(());
    }
    match &rule.steps[step] {
        Step::Filter(op, a, b) => {
            let (Some(ga), Some(gb)) = (a.substitute(bindings), b.substitute(bindings)) else {
                return Ok(());
            };
            if op.eval(&ga, &gb) {
                walk_unit(frame, step + 1, join_idx, bindings, path, out)?;
            }
            Ok(())
        }
        Step::Bind(v, expr) => {
            let Some(val) = expr.substitute(bindings) else {
                return Ok(());
            };
            bindings.insert(*v, val);
            walk_unit(frame, step + 1, join_idx, bindings, path, out)?;
            bindings.remove(v);
            Ok(())
        }
        Step::Naf(_) => walk_unit(frame, step + 1, join_idx, bindings, path, out),
        Step::Join {
            pattern,
            key,
            fresh,
            probe,
        } => {
            let Some(entry) = view.possible.by_sig.get(key) else {
                return Ok(());
            };
            let (start, end) = match (join_idx, frame.chunk) {
                // The unit's chunk overrides the ordinal-0 window.
                (0, Some((cs, ce))) => (cs, ce),
                _ => plan_range(entry, join_idx, frame.plan, view.naive),
            };
            if start >= end {
                return Ok(());
            }
            let Some(cands) = select_candidates(entry, pattern, probe, bindings, start, end) else {
                return Ok(());
            };
            out.join_candidates += cands.len() as u64;
            let visit = |id: AtomId,
                         bindings: &mut Bindings,
                         path: &mut Vec<AtomId>,
                         out: &mut UnitOut|
             -> Result<(), GroundError> {
                if pattern.match_ground(view.table.resolve(id), bindings) {
                    path.push(id);
                    walk_unit(frame, step + 1, join_idx + 1, bindings, path, out)?;
                    path.pop();
                }
                // Undo whatever the match bound (a failed match may bind a
                // prefix); pre-existing bindings are never overwritten.
                for v in fresh {
                    bindings.remove(v);
                }
                Ok(())
            };
            match cands {
                Candidates::Probed(positions) => {
                    for &p in positions {
                        visit(entry.ids[p as usize], bindings, path, out)?;
                    }
                }
                Candidates::Scan(range) => {
                    for pos in range {
                        visit(entry.ids[pos], bindings, path, out)?;
                    }
                }
            }
            Ok(())
        }
    }
}

/// A ground weak-constraint instantiation awaiting merge.
struct WeakEmission {
    pos: Vec<AtomId>,
    negs: Vec<Atom>,
    weight: i64,
    level: i64,
}

/// Result of evaluating one weak constraint over the final approximation.
#[derive(Default)]
struct WeakOut {
    rules_instantiated: u64,
    join_candidates: u64,
    emissions: Vec<WeakEmission>,
}

/// Invariant inputs of one weak-constraint evaluation.
struct WeakFrame<'w, 'p> {
    view: &'w EvalView<'w>,
    rule: &'w ScheduledRule<'p>,
    weight: &'w Term,
    level: i64,
}

fn walk_weak_unit(
    frame: &WeakFrame<'_, '_>,
    step: usize,
    bindings: &mut Bindings,
    path: &mut Vec<AtomId>,
    out: &mut WeakOut,
) {
    let view = frame.view;
    let rule = frame.rule;
    if step == rule.steps.len() {
        out.rules_instantiated += 1;
        let Some(Term::Int(w)) = frame.weight.substitute(bindings) else {
            return;
        };
        let mut negs = Vec::new();
        for s in &rule.steps {
            if let Step::Naf(a) = s {
                match a.substitute(bindings) {
                    Some(g) => negs.push(g),
                    None => return,
                }
            }
        }
        let mut pos = path.clone();
        pos.sort_unstable();
        pos.dedup();
        out.emissions.push(WeakEmission {
            pos,
            negs,
            weight: w,
            level: frame.level,
        });
        return;
    }
    match &rule.steps[step] {
        Step::Filter(op, a, b) => {
            let (Some(ga), Some(gb)) = (a.substitute(bindings), b.substitute(bindings)) else {
                return;
            };
            if op.eval(&ga, &gb) {
                walk_weak_unit(frame, step + 1, bindings, path, out);
            }
        }
        Step::Bind(v, expr) => {
            let Some(val) = expr.substitute(bindings) else {
                return;
            };
            bindings.insert(*v, val);
            walk_weak_unit(frame, step + 1, bindings, path, out);
            bindings.remove(v);
        }
        Step::Naf(_) => walk_weak_unit(frame, step + 1, bindings, path, out),
        Step::Join {
            pattern,
            key,
            fresh,
            probe,
        } => {
            let Some(entry) = view.possible.by_sig.get(key) else {
                return;
            };
            let end = if view.naive {
                entry.ids.len()
            } else {
                entry.frontier_end
            };
            if end == 0 {
                return;
            }
            let Some(cands) = select_candidates(entry, pattern, probe, bindings, 0, end) else {
                return;
            };
            out.join_candidates += cands.len() as u64;
            let mut visit = |id: AtomId, bindings: &mut Bindings, path: &mut Vec<AtomId>| {
                if pattern.match_ground(view.table.resolve(id), bindings) {
                    path.push(id);
                    walk_weak_unit(frame, step + 1, bindings, path, out);
                    path.pop();
                }
                for v in fresh {
                    bindings.remove(v);
                }
            };
            match cands {
                Candidates::Probed(positions) => {
                    for &p in positions {
                        visit(entry.ids[p as usize], bindings, path);
                    }
                }
                Candidates::Scan(range) => {
                    for pos in range {
                        visit(entry.ids[pos], bindings, path);
                    }
                }
            }
        }
    }
}

/// Lazily constructed pool for one grounding run: worker threads are only
/// spawned when a pass actually has enough work to fan out, and
/// `threads <= 1` never allocates anything.
struct PoolSlot {
    threads: usize,
    pool: Option<WorkPool>,
}

impl PoolSlot {
    fn new(threads: usize) -> PoolSlot {
        PoolSlot {
            threads: threads.max(1),
            pool: None,
        }
    }

    fn get(&mut self) -> Option<&WorkPool> {
        if self.threads <= 1 {
            return None;
        }
        Some(self.pool.get_or_insert_with(|| WorkPool::new(self.threads)))
    }
}

/// The grounding engine: interned atoms, the join index, emitted rules, and
/// work counters. Cloneable so [`IncrementalGrounder`] can snapshot a
/// saturated base.
#[derive(Clone, Debug)]
struct Engine {
    table: AtomTable,
    traces: TraceIds,
    possible: PossibleIndex,
    seen_rules: HashSet<GroundRule>,
    rules: Vec<GroundRule>,
    weaks: Vec<GroundWeak>,
    seen_weaks: HashSet<GroundWeak>,
    naive: bool,
    opts: GroundOptions,
    stats: GroundStats,
}

impl Engine {
    fn new(opts: GroundOptions, naive: bool) -> Engine {
        Engine {
            table: AtomTable::new(),
            traces: TraceIds::default(),
            possible: PossibleIndex::default(),
            seen_rules: HashSet::new(),
            rules: Vec::new(),
            weaks: Vec::new(),
            seen_weaks: HashSet::new(),
            naive,
            opts,
            stats: GroundStats::default(),
        }
    }

    /// Decomposes one rule variant into work units, chunking the ordinal-0
    /// join window by [`GroundOptions::parallel_grain`] so large frontiers
    /// spread across pool workers. The decomposition depends only on the
    /// grain and the window sizes — never on the thread count — so the
    /// merged emission sequence matches the unchunked walk exactly.
    fn push_units<'a, 'p>(
        &self,
        rule: &'a ScheduledRule<'p>,
        plan: JoinPlan,
        units: &mut Vec<Unit<'a, 'p>>,
    ) {
        let Some(key0) = rule.joins.first() else {
            // No joins (e.g. a fact): a single chunkless unit.
            units.push(Unit {
                rule,
                plan,
                chunk: None,
            });
            return;
        };
        let Some(entry) = self.possible.by_sig.get(key0) else {
            return;
        };
        let (start, end) = plan_range(entry, 0, plan, self.naive);
        if start >= end {
            return;
        }
        let grain = self.opts.parallel_grain.max(1);
        let mut cs = start;
        while cs < end {
            let ce = (cs + grain).min(end);
            units.push(Unit {
                rule,
                plan,
                chunk: Some((cs, ce)),
            });
            cs = ce;
        }
    }

    /// Evaluates `units` against a frozen view of the current state — fanned
    /// out over the pool when a pass has enough work, serially otherwise —
    /// then merges the results strictly in unit order. The frozen-view +
    /// ordered-merge discipline makes the output byte-identical across
    /// execution venues and thread counts.
    fn run_pass(&mut self, units: &[Unit<'_, '_>], pool: &mut PoolSlot) -> Result<(), GroundError> {
        self.stats.passes += 1;
        if units.is_empty() {
            return Ok(());
        }
        let work: usize = units
            .iter()
            .map(|u| u.chunk.map_or(1, |(s, e)| e - s))
            .sum();
        let mut via_pool = false;
        let outs: Vec<Option<Result<UnitOut, GroundError>>> = {
            let view = EvalView {
                table: &self.table,
                possible: &self.possible,
                naive: self.naive,
                deadline: self.opts.deadline,
                max_atoms: self.opts.max_atoms,
            };
            let engage = units.len() >= 2 && work >= self.opts.parallel_grain.max(1);
            match if engage { pool.get() } else { None } {
                Some(p) => {
                    via_pool = true;
                    let slots: Vec<Mutex<Option<Result<UnitOut, GroundError>>>> =
                        units.iter().map(|_| Mutex::new(None)).collect();
                    let job = |i: usize| {
                        let r = eval_unit(&view, &units[i]);
                        let control = if r.is_err() {
                            UnitControl::Cancel
                        } else {
                            UnitControl::Continue
                        };
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                        control
                    };
                    if let Err(e) = p.run(units.len(), &job) {
                        // A worker panicked mid-unit: re-raise on the caller
                        // so the defect surfaces instead of silently
                        // dropping that unit's emissions.
                        panic!("grounding pool: {e}");
                    }
                    slots
                        .into_iter()
                        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                        .collect()
                }
                None => {
                    let mut outs: Vec<Option<Result<UnitOut, GroundError>>> =
                        Vec::with_capacity(units.len());
                    for unit in units {
                        let r = eval_unit(&view, unit);
                        let failed = r.is_err();
                        outs.push(Some(r));
                        if failed {
                            break;
                        }
                    }
                    outs.resize_with(units.len(), || None);
                    outs
                }
            }
        };
        if via_pool {
            self.stats.parallel_units += outs.iter().flatten().count() as u64;
        }
        // Surface the first failure in unit order — deterministic no matter
        // which worker hit its error first.
        for o in &outs {
            if let Some(Err(e)) = o {
                return Err(e.clone());
            }
        }
        for (unit, out) in units.iter().zip(outs) {
            let Some(Ok(out)) = out else { continue };
            self.merge_unit(unit, out)?;
        }
        Ok(())
    }

    /// Folds one unit's result into the engine in emission (walk) order:
    /// interns the head and negative atoms, dedups against `seen_rules`,
    /// indexes new head atoms, and enforces the exact atom budget after
    /// each emission.
    fn merge_unit(&mut self, unit: &Unit<'_, '_>, out: UnitOut) -> Result<(), GroundError> {
        self.stats.rules_instantiated += out.rules_instantiated;
        self.stats.join_candidates += out.join_candidates;
        for em in out.emissions {
            let head = em.head.as_ref().map(|h| self.table.intern(h));
            let mut neg: Vec<AtomId> = em.negs.iter().map(|a| self.table.intern(a)).collect();
            neg.sort_unstable();
            neg.dedup();
            let gr = GroundRule {
                head,
                pos: em.pos,
                neg,
            };
            if self.seen_rules.insert(gr.clone()) {
                if let Some(h) = gr.head {
                    let key = unit.rule.head_key.expect("headed rules carry a head key");
                    let atom = em.head.as_ref().expect("head id implies a head atom");
                    self.possible.insert(h, key, atom);
                }
                self.rules.push(gr);
            }
            // Exact budget check after every emission: semi-naive evaluation
            // visits each instantiation once, so an entry-only check would
            // let a small program overshoot the cap and finish without ever
            // reporting exhaustion.
            if self.table.len() > self.opts.max_atoms {
                return Err(GroundError::Budget {
                    max_atoms: self.opts.max_atoms,
                });
            }
        }
        Ok(())
    }

    /// Evaluates every rule once against the currently visible window.
    fn seed_pass(
        &mut self,
        rules: &[ScheduledRule<'_>],
        pool: &mut PoolSlot,
    ) -> Result<(), GroundError> {
        let mut units = Vec::new();
        for rule in rules {
            self.push_units(rule, JoinPlan::Full, &mut units);
        }
        self.run_pass(&units, pool)
    }

    /// Semi-naive rounds: repeat until no new atoms appear, evaluating only
    /// the delta variants whose join signature actually gained atoms.
    fn delta_rounds(
        &mut self,
        sets: &[&[ScheduledRule<'_>]],
        pool: &mut PoolSlot,
    ) -> Result<(), GroundError> {
        while self.possible.advance() {
            let mut units = Vec::new();
            for rules in sets {
                for rule in *rules {
                    for (d, key) in rule.joins.iter().enumerate() {
                        if !self.possible.has_delta(*key) {
                            continue;
                        }
                        self.push_units(rule, JoinPlan::Delta(d), &mut units);
                    }
                }
            }
            self.run_pass(&units, pool)?;
        }
        Ok(())
    }

    /// Naive saturation: re-evaluate every rule over the full atom set until
    /// a sweep emits no new ground rule. Retained as the reference
    /// implementation for differential testing and benchmarks.
    fn naive_fixpoint(
        &mut self,
        rules: &[ScheduledRule<'_>],
        pool: &mut PoolSlot,
    ) -> Result<(), GroundError> {
        loop {
            let before = self.rules.len();
            self.seed_pass(rules, pool)?;
            if self.rules.len() == before {
                return Ok(());
            }
        }
    }

    /// Grounds `program`'s weak constraints against the final
    /// over-approximation.
    fn ground_weaks(&mut self, program: &Program) -> Result<(), GroundError> {
        for weak in program.weak_constraints() {
            let sched = schedule_weak(weak, &mut self.traces)?;
            let mut out = WeakOut::default();
            {
                let view = EvalView {
                    table: &self.table,
                    possible: &self.possible,
                    naive: self.naive,
                    deadline: self.opts.deadline,
                    max_atoms: self.opts.max_atoms,
                };
                let frame = WeakFrame {
                    view: &view,
                    rule: &sched,
                    weight: &weak.weight,
                    level: weak.level,
                };
                let mut bindings = Bindings::new();
                let mut path = Vec::new();
                walk_weak_unit(&frame, 0, &mut bindings, &mut path, &mut out);
            }
            self.stats.rules_instantiated += out.rules_instantiated;
            self.stats.join_candidates += out.join_candidates;
            for em in out.emissions {
                let mut neg: Vec<AtomId> = em.negs.iter().map(|a| self.table.intern(a)).collect();
                neg.sort_unstable();
                neg.dedup();
                let gw = GroundWeak {
                    pos: em.pos,
                    neg,
                    weight: em.weight,
                    level: em.level,
                };
                if self.seen_weaks.insert(gw.clone()) {
                    self.weaks.push(gw);
                }
            }
        }
        Ok(())
    }

    /// Consumes the engine, applying fact-folding simplification (unless
    /// disabled) and producing the final [`GroundProgram`].
    fn finish(self) -> GroundProgram {
        let Engine {
            table,
            possible,
            rules: ground_rules,
            weaks: ground_weaks,
            opts,
            ..
        } = self;

        if !opts.simplify {
            // Keep the instantiation untouched (used by explanation tooling).
            let mut definite_facts: Vec<AtomId> = ground_rules
                .iter()
                .filter(|r| r.is_fact())
                .map(|r| r.head.expect("facts have heads"))
                .collect();
            definite_facts.sort_unstable();
            definite_facts.dedup();
            let inconsistent = ground_rules
                .iter()
                .any(|r| r.is_constraint() && r.pos.is_empty() && r.neg.is_empty());
            return GroundProgram {
                table,
                rules: ground_rules,
                weaks: ground_weaks,
                definite_facts,
                inconsistent,
            };
        }

        // --- Simplification ------------------------------------------------
        // Definite facts: least fixpoint over rules whose negative atoms are
        // never derivable, via counter-based forward chaining (each eligible
        // rule counts its outstanding positive premises; an atom becoming a
        // fact decrements its watchers) — one pass over the rules instead of
        // a quadratic fixpoint.
        let derivable = &possible.derivable;
        let mut fact_set: HashSet<AtomId> = HashSet::new();
        {
            let mut need: Vec<usize> = Vec::with_capacity(ground_rules.len());
            let mut watch: HashMap<AtomId, Vec<usize>> = HashMap::new();
            let mut queue: Vec<AtomId> = Vec::new();
            for (ri, r) in ground_rules.iter().enumerate() {
                let eligible = r.head.is_some() && r.neg.iter().all(|n| !derivable.contains(n));
                if !eligible {
                    need.push(usize::MAX);
                    continue;
                }
                need.push(r.pos.len());
                if r.pos.is_empty() {
                    let h = r.head.expect("eligible rules have heads");
                    if fact_set.insert(h) {
                        queue.push(h);
                    }
                } else {
                    for &p in &r.pos {
                        watch.entry(p).or_default().push(ri);
                    }
                }
            }
            while let Some(a) = queue.pop() {
                let Some(watchers) = watch.get(&a) else {
                    continue;
                };
                for &ri in watchers {
                    need[ri] -= 1;
                    if need[ri] == 0 {
                        let h = ground_rules[ri].head.expect("watched rules have heads");
                        if fact_set.insert(h) {
                            queue.push(h);
                        }
                    }
                }
            }
        }

        let mut simplified: Vec<GroundRule> = Vec::new();
        let mut seen_simplified: HashSet<GroundRule> = HashSet::new();
        let mut inconsistent = false;
        for r in &ground_rules {
            // `not a` with `a` a definite fact blocks the rule.
            if r.neg.iter().any(|n| fact_set.contains(n)) {
                continue;
            }
            // A rule whose head is a definite fact contributes nothing beyond
            // the fact itself.
            if r.head.is_some_and(|h| fact_set.contains(&h)) {
                continue;
            }
            let pos: Vec<AtomId> = r
                .pos
                .iter()
                .copied()
                .filter(|p| !fact_set.contains(p))
                .collect();
            let neg: Vec<AtomId> = r
                .neg
                .iter()
                .copied()
                .filter(|n| derivable.contains(n))
                .collect();
            // A positive literal that can never be derived falsifies the body.
            if pos
                .iter()
                .any(|p| !derivable.contains(p) && !fact_set.contains(p))
            {
                continue;
            }
            let new_rule = GroundRule {
                head: r.head,
                pos,
                neg,
            };
            if new_rule.is_constraint() && new_rule.pos.is_empty() && new_rule.neg.is_empty() {
                inconsistent = true;
            }
            if seen_simplified.insert(new_rule.clone()) {
                simplified.push(new_rule);
            }
        }
        let mut definite_facts: Vec<AtomId> = fact_set.into_iter().collect();
        definite_facts.sort_unstable();
        for &f in &definite_facts {
            let fact = GroundRule {
                head: Some(f),
                pos: Vec::new(),
                neg: Vec::new(),
            };
            if seen_simplified.insert(fact.clone()) {
                simplified.push(fact);
            }
        }

        // Simplify weak constraints with the same fact/derivability knowledge.
        let mut weaks: Vec<GroundWeak> = Vec::new();
        let mut seen_weaks: HashSet<GroundWeak> = HashSet::new();
        let fact_lookup: HashSet<AtomId> = definite_facts.iter().copied().collect();
        for w in ground_weaks {
            if w.neg.iter().any(|n| fact_lookup.contains(n)) {
                continue;
            }
            if w.pos
                .iter()
                .any(|p| !derivable.contains(p) && !fact_lookup.contains(p))
            {
                continue;
            }
            let pos: Vec<AtomId> = w
                .pos
                .iter()
                .copied()
                .filter(|p| !fact_lookup.contains(p))
                .collect();
            let neg: Vec<AtomId> = w
                .neg
                .iter()
                .copied()
                .filter(|n| derivable.contains(n))
                .collect();
            let new_weak = GroundWeak {
                pos,
                neg,
                weight: w.weight,
                level: w.level,
            };
            if seen_weaks.insert(new_weak.clone()) {
                weaks.push(new_weak);
            }
        }

        GroundProgram {
            table,
            rules: simplified,
            weaks,
            definite_facts,
            inconsistent,
        }
    }
}

fn run_engine(
    program: &Program,
    opts: GroundOptions,
    naive: bool,
) -> Result<(GroundProgram, GroundStats), GroundError> {
    let mut span = agenp_obs::span!(
        "asp.ground",
        mode = if naive { "naive" } else { "seminaive" },
        rules = program.rules().len(),
    );
    let result = run_engine_inner(program, opts, naive);
    match &result {
        Ok((_, stats)) => {
            span.record("passes", stats.passes);
            span.record("rules_instantiated", stats.rules_instantiated);
            span.record("join_candidates", stats.join_candidates);
            crate::obs::GroundMetrics::publish(stats);
        }
        Err(_) => {
            span.record("error", true);
            if agenp_obs::enabled() {
                crate::obs::GroundMetrics::global().errors.incr();
            }
        }
    }
    result
}

fn run_engine_inner(
    program: &Program,
    opts: GroundOptions,
    naive: bool,
) -> Result<(GroundProgram, GroundStats), GroundError> {
    let mut engine = Engine::new(opts, naive);
    let mut pool = PoolSlot::new(opts.effective_threads());
    let scheduled = schedule_program(program, &mut engine.traces)?;
    if naive {
        engine.naive_fixpoint(&scheduled, &mut pool)?;
    } else {
        engine.seed_pass(&scheduled, &mut pool)?;
        engine.delta_rounds(&[&scheduled], &mut pool)?;
    }
    engine.ground_weaks(program)?;
    let stats = engine.stats;
    Ok((engine.finish(), stats))
}

/// Grounds `program` with default options (semi-naive evaluation).
///
/// # Errors
///
/// Returns [`GroundError::UnsafeRule`] if a rule is unsafe, or
/// [`GroundError::Budget`] if instantiation explodes past the atom budget.
pub fn ground(program: &Program) -> Result<GroundProgram, GroundError> {
    ground_with(program, GroundOptions::default())
}

/// Grounds `program` with explicit [`GroundOptions`]. The saturation
/// strategy is selected by [`GroundOptions::mode`]; both modes produce
/// identical output.
///
/// # Errors
///
/// See [`ground`].
pub fn ground_with(program: &Program, opts: GroundOptions) -> Result<GroundProgram, GroundError> {
    ground_with_stats(program, opts).map(|(g, _)| g)
}

/// Like [`ground_with`], additionally reporting [`GroundStats`] counters.
///
/// # Errors
///
/// See [`ground`].
pub fn ground_with_stats(
    program: &Program,
    opts: GroundOptions,
) -> Result<(GroundProgram, GroundStats), GroundError> {
    run_engine(program, opts, opts.mode == GroundMode::Naive)
}

/// A saturated base program that can be re-grounded with small rule deltas
/// without re-deriving the base.
///
/// Construction runs semi-naive saturation over the base once and snapshots
/// the engine (atom table, join index, emitted rules). Each
/// [`ground_delta`](IncrementalGrounder::ground_delta) call clones the
/// snapshot, seeds the delta rules against the full saturated atom set, and
/// resumes semi-naive rounds over base + delta rules — so only consequences
/// that actually involve the delta are computed. The learner uses this to
/// evaluate each candidate hypothesis as a delta on top of a once-grounded
/// (grammar + context + example) base.
#[derive(Clone, Debug)]
pub struct IncrementalGrounder {
    base: Program,
    engine: Engine,
    base_stats: GroundStats,
}

impl IncrementalGrounder {
    /// Saturates `base` and snapshots the grounding state.
    ///
    /// # Errors
    ///
    /// See [`ground`].
    pub fn new(base: &Program, opts: GroundOptions) -> Result<IncrementalGrounder, GroundError> {
        let mut engine = Engine::new(opts, false);
        let mut pool = PoolSlot::new(opts.effective_threads());
        let scheduled = schedule_program(base, &mut engine.traces)?;
        engine.seed_pass(&scheduled, &mut pool)?;
        engine.delta_rounds(&[&scheduled], &mut pool)?;
        let base_stats = engine.stats;
        engine.stats = GroundStats::default();
        Ok(IncrementalGrounder {
            base: base.clone(),
            engine,
            base_stats,
        })
    }

    /// Counters spent saturating the base (once, at construction).
    pub fn base_stats(&self) -> GroundStats {
        self.base_stats
    }

    /// The base program this grounder was built from.
    pub fn base(&self) -> &Program {
        &self.base
    }

    /// Grounds base + `delta`, reusing the saturated base state. With an
    /// empty delta this is equivalent to `ground_with(base, opts)`.
    ///
    /// # Errors
    ///
    /// See [`ground`].
    pub fn ground_delta(&self, delta: &[Rule]) -> Result<GroundProgram, GroundError> {
        self.ground_delta_with_stats(delta).map(|(g, _)| g)
    }

    /// Like [`ground_delta`](IncrementalGrounder::ground_delta), additionally
    /// reporting the counters spent on this delta (the base saturation cost
    /// is *not* included; see
    /// [`base_stats`](IncrementalGrounder::base_stats)).
    ///
    /// # Errors
    ///
    /// See [`ground`].
    pub fn ground_delta_with_stats(
        &self,
        delta: &[Rule],
    ) -> Result<(GroundProgram, GroundStats), GroundError> {
        let mut span = agenp_obs::span!("asp.ground.delta", delta_rules = delta.len());
        let result = self.ground_delta_inner(delta);
        if span.is_live() {
            match &result {
                Ok((_, stats)) => {
                    span.record("passes", stats.passes);
                    span.record("rules_instantiated", stats.rules_instantiated);
                    crate::obs::GroundMetrics::publish(stats);
                }
                Err(_) => {
                    span.record("error", true);
                    crate::obs::GroundMetrics::global().errors.incr();
                }
            }
        }
        result
    }

    fn ground_delta_inner(
        &self,
        delta: &[Rule],
    ) -> Result<(GroundProgram, GroundStats), GroundError> {
        let mut engine = self.engine.clone();
        let base_sched = schedule_program(&self.base, &mut engine.traces)?;
        let delta_sched: Vec<ScheduledRule<'_>> = delta
            .iter()
            .map(|r| schedule_rule(r, &mut engine.traces))
            .collect::<Result<_, _>>()?;
        let mut pool = PoolSlot::new(engine.opts.effective_threads());
        // Seed only the delta rules over the full saturated base; base rules
        // already enumerated every pre-existing combination.
        engine.seed_pass(&delta_sched, &mut pool)?;
        engine.delta_rounds(&[&base_sched, &delta_sched], &mut pool)?;
        engine.ground_weaks(&self.base)?;
        let stats = engine.stats;
        Ok((engine.finish(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms_of(g: &GroundProgram) -> Vec<String> {
        let mut v: Vec<String> = g
            .definite_facts()
            .iter()
            .map(|&f| g.atoms().resolve(f).to_string())
            .collect();
        v.sort();
        v
    }

    /// Order-insensitive rendering for cross-grounder comparison (atom ids
    /// may differ between strategies).
    fn rendered_lines(g: &GroundProgram) -> Vec<String> {
        let mut lines: Vec<String> = g.to_string().lines().map(str::to_string).collect();
        lines.sort();
        lines
    }

    #[test]
    fn grounds_transitive_closure() {
        let p: Program = "
            edge(1, 2). edge(2, 3). edge(3, 4).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let facts = atoms_of(&g);
        assert!(facts.contains(&"path(1, 4)".to_string()));
        assert!(facts.contains(&"path(2, 4)".to_string()));
        assert!(!facts.contains(&"path(4, 1)".to_string()));
        // 3 edges + 6 paths
        assert_eq!(facts.len(), 9);
    }

    #[test]
    fn arithmetic_binders_ground() {
        let p: Program = "
            num(0). num(1). num(2).
            succ(X, Y) :- num(X), Y = X + 1, Y <= 2.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let facts = atoms_of(&g);
        assert!(facts.contains(&"succ(0, 1)".to_string()));
        assert!(facts.contains(&"succ(1, 2)".to_string()));
        assert!(!facts.iter().any(|f| f.starts_with("succ(2")));
    }

    #[test]
    fn negation_is_kept_not_evaluated() {
        let p: Program = "
            a.
            b :- not c.
            c :- not b.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        // a is a definite fact; b/c remain as a cycle through negation.
        assert!(atoms_of(&g).contains(&"a".to_string()));
        let cyclic: Vec<&GroundRule> = g.rules().iter().filter(|r| !r.neg.is_empty()).collect();
        assert_eq!(cyclic.len(), 2);
    }

    #[test]
    fn simplification_drops_blocked_rules() {
        let p: Program = "
            a.
            b :- not a.
            c :- not never.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let facts = atoms_of(&g);
        // b is blocked (a is a fact); c becomes a fact (never underivable).
        assert!(facts.contains(&"c".to_string()));
        assert!(!facts.contains(&"b".to_string()));
        assert!(!g.proven_inconsistent());
    }

    #[test]
    fn constraint_violation_detected_during_simplification() {
        let p: Program = "a. :- a.".parse().unwrap();
        let g = ground(&p).unwrap();
        assert!(g.proven_inconsistent());
    }

    #[test]
    fn unsafe_rules_are_rejected() {
        let p: Program = "p(X) :- not q(X).".parse().unwrap();
        match ground(&p) {
            Err(GroundError::UnsafeRule { var, .. }) => assert_eq!(var, Symbol::new("X")),
            other => panic!("expected unsafe-rule error, got {other:?}"),
        }
    }

    #[test]
    fn budget_is_enforced() {
        let p: Program = "
            n(1..50).
            p(X, Y, Z) :- n(X), n(Y), n(Z).
        "
        .parse()
        .unwrap();
        let err = ground_with(
            &p,
            GroundOptions {
                max_atoms: 1000,
                ..GroundOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GroundError::Budget { .. }));
        assert_eq!(err.exhausted(), Some(Exhausted::Atoms));
    }

    #[test]
    fn deadline_is_enforced() {
        let p: Program = "
            n(1..20).
            p(X, Y) :- n(X), n(Y).
        "
        .parse()
        .unwrap();
        let err = ground_with(
            &p,
            GroundOptions {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..GroundOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, GroundError::Exhausted(Exhausted::Deadline));
        assert_eq!(err.exhausted(), Some(Exhausted::Deadline));
    }

    #[test]
    fn annotated_atoms_ground_per_trace() {
        let p: Program = "
            size(3)@1.
            size(X) :- size(X)@1.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let facts = atoms_of(&g);
        assert!(facts.contains(&"size(3)@1".to_string()));
        assert!(facts.contains(&"size(3)".to_string()));
    }

    #[test]
    fn comparison_filters_prune() {
        let p: Program = "
            n(1..5).
            big(X) :- n(X), X >= 4.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let facts = atoms_of(&g);
        assert_eq!(facts.iter().filter(|f| f.starts_with("big")).count(), 2);
    }

    #[test]
    fn symbolic_comparison_uses_term_order() {
        let p: Program = "
            item(apple). item(pear).
            first(X) :- item(X), X < pear.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        assert!(atoms_of(&g).contains(&"first(apple)".to_string()));
        assert!(!atoms_of(&g).contains(&"first(pear)".to_string()));
    }

    #[test]
    fn seminaive_matches_naive_reference() {
        let p: Program = "
            edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            far(X) :- path(X, Y), Y > 3.
            near(X) :- path(X, Y), not far(X).
            :~ path(X, Y). [1@0]
        "
        .parse()
        .unwrap();
        let (semi, semi_stats) = ground_with_stats(&p, GroundOptions::default()).unwrap();
        let (naive, naive_stats) =
            ground_with_stats(&p, GroundOptions::default().with_mode(GroundMode::Naive)).unwrap();
        assert_eq!(rendered_lines(&semi), rendered_lines(&naive));
        assert_eq!(atoms_of(&semi), atoms_of(&naive));
        // The whole point: semi-naive instantiates strictly fewer rules on a
        // recursive program.
        assert!(
            semi_stats.rules_instantiated < naive_stats.rules_instantiated,
            "semi-naive ({}) should do less work than naive ({})",
            semi_stats.rules_instantiated,
            naive_stats.rules_instantiated
        );
        assert!(semi_stats.passes >= 2);
    }

    #[test]
    fn seminaive_matches_naive_without_simplification() {
        let p: Program = "
            edge(1, 2). edge(2, 3).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        "
        .parse()
        .unwrap();
        let opts = GroundOptions::default().with_simplify(false);
        let semi = ground_with(&p, opts).unwrap();
        let naive = ground_with(&p, opts.with_mode(GroundMode::Naive)).unwrap();
        assert_eq!(rendered_lines(&semi), rendered_lines(&naive));
    }

    #[test]
    fn incremental_delta_matches_monolithic() {
        let base: Program = "
            edge(1, 2). edge(2, 3). edge(3, 4).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        "
        .parse()
        .unwrap();
        let delta: Program = "
            reach(X) :- path(1, X).
            blocked :- reach(4), not open.
        "
        .parse()
        .unwrap();
        let inc = IncrementalGrounder::new(&base, GroundOptions::default()).unwrap();
        let via_delta = inc.ground_delta(delta.rules()).unwrap();
        let mut combined = base.clone();
        for r in delta.rules() {
            combined.push(r.clone());
        }
        let monolithic = ground(&combined).unwrap();
        assert_eq!(rendered_lines(&via_delta), rendered_lines(&monolithic));
        assert_eq!(atoms_of(&via_delta), atoms_of(&monolithic));
    }

    #[test]
    fn incremental_empty_delta_matches_base() {
        let base: Program = "
            n(1..4).
            p(X, Y) :- n(X), n(Y), X < Y.
            :~ p(X, Y). [1@0]
        "
        .parse()
        .unwrap();
        let inc = IncrementalGrounder::new(&base, GroundOptions::default()).unwrap();
        let via_delta = inc.ground_delta(&[]).unwrap();
        let direct = ground(&base).unwrap();
        assert_eq!(rendered_lines(&via_delta), rendered_lines(&direct));
    }

    #[test]
    fn incremental_delta_is_cheaper_than_regrounding() {
        let base: Program = "
            edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        "
        .parse()
        .unwrap();
        let delta: Program = "reach(X) :- path(1, X).".parse().unwrap();
        let inc = IncrementalGrounder::new(&base, GroundOptions::default()).unwrap();
        let (_, delta_stats) = inc.ground_delta_with_stats(delta.rules()).unwrap();
        let mut combined = base.clone();
        for r in delta.rules() {
            combined.push(r.clone());
        }
        let (_, full_stats) = ground_with_stats(&combined, GroundOptions::default()).unwrap();
        assert!(
            delta_stats.rules_instantiated < full_stats.rules_instantiated,
            "delta ({}) should instantiate fewer rules than re-grounding ({})",
            delta_stats.rules_instantiated,
            full_stats.rules_instantiated
        );
    }

    #[test]
    fn incremental_rejects_unsafe_delta() {
        let base: Program = "a.".parse().unwrap();
        let delta: Program = "p(X) :- not q(X).".parse().unwrap();
        let inc = IncrementalGrounder::new(&base, GroundOptions::default()).unwrap();
        assert!(matches!(
            inc.ground_delta(delta.rules()),
            Err(GroundError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = GroundStats {
            passes: 1,
            rules_instantiated: 10,
            join_candidates: 5,
            parallel_units: 4,
        };
        a.absorb(GroundStats {
            passes: 2,
            rules_instantiated: 3,
            join_candidates: 7,
            parallel_units: 6,
        });
        assert_eq!(a.passes, 3);
        assert_eq!(a.rules_instantiated, 13);
        assert_eq!(a.join_candidates, 12);
        assert_eq!(a.parallel_units, 10);
    }

    /// A transitive-closure chain large enough that every venue has real
    /// work to chunk.
    fn chain_program(n: usize) -> Program {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("edge({}, {}).\n", i, i + 1));
        }
        text.push_str("path(X, Y) :- edge(X, Y).\n");
        text.push_str("path(X, Z) :- edge(X, Y), path(Y, Z).\n");
        text.parse().expect("chain program parses")
    }

    #[test]
    fn parallel_output_is_byte_identical_across_thread_counts() {
        let p = chain_program(40);
        let reference = ground_with(&p, GroundOptions::default().with_parallelism(1)).unwrap();
        for threads in [2, 4] {
            let opts = GroundOptions::default()
                .with_parallelism(threads)
                .with_parallel_grain(1);
            let (g, stats) = ground_with_stats(&p, opts).unwrap();
            assert!(
                stats.parallel_units > 0,
                "threads={threads} must actually engage the pool"
            );
            // Byte-identical rendering AND identical atom-id assignment.
            assert_eq!(g.to_string(), reference.to_string(), "threads={threads}");
            let ids: Vec<(AtomId, String)> = g
                .atoms()
                .iter()
                .map(|(id, a)| (id, a.to_string()))
                .collect();
            let ref_ids: Vec<(AtomId, String)> = reference
                .atoms()
                .iter()
                .map(|(id, a)| (id, a.to_string()))
                .collect();
            assert_eq!(ids, ref_ids, "threads={threads}");
        }
    }

    #[test]
    fn parallel_deadline_cancels_mid_round() {
        let p = chain_program(120);
        let err = ground_with(
            &p,
            GroundOptions {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..GroundOptions::default()
            }
            .with_parallelism(4)
            .with_parallel_grain(1),
        )
        .unwrap_err();
        assert_eq!(err, GroundError::Exhausted(Exhausted::Deadline));
    }

    #[test]
    fn argument_indices_collapse_join_scans() {
        let p = chain_program(40);
        let (_, stats) =
            ground_with_stats(&p, GroundOptions::default().with_parallelism(1)).unwrap();
        let waste = stats.join_candidates as f64 / stats.rules_instantiated.max(1) as f64;
        assert!(
            waste < 8.0,
            "indexed joins should probe few candidates per instantiation, got {waste:.1} \
             ({} candidates / {} instantiations)",
            stats.join_candidates,
            stats.rules_instantiated
        );
    }
}
