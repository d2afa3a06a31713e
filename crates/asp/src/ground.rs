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
//! exactly once over the whole run instead of once per pass. Weak
//! constraints are grounded last, as full-window units over the saturated
//! approximation, through the same walk and merge as rules.
//!
//! A ground fact (no body, a ground head free of arithmetic) is not walked:
//! the seed pass interns and indexes its head as written, in rule order
//! between the other rules' merges, and dedups it by a per-atom bit. The
//! result is exactly what walking it would give: the same rules, atom ids,
//! errors and [`GroundStats`].
//!
//! # Index-driven joins and frozen passes
//!
//! Every signature slice of the join index additionally maintains an
//! *argument-value index*: for each argument position, a hash map from
//! ground value to the (ascending) positions holding that value. A join
//! whose pattern has bound arguments probes the smallest matching bucket and
//! window-clips it with binary search instead of scanning the whole
//! signature slice — `join_candidates` drops by an order of magnitude on
//! recursive workloads (see `BENCH_asp.json`).
//!
//! Each saturation pass evaluates its rule variants in order against a
//! frozen view of the engine state, buffering their emissions, and then
//! merges the buffers in the same order. The walk reads the join index that
//! the merge appends to, so no variant is merged before every variant has
//! been evaluated; the merge interns atoms, deduplicates rules and enforces
//! the exact atom budget. Merging in rule order makes the rule order, the
//! atom ids and every [`GroundStats`] counter depend on the program alone.
//!
//! [`IncrementalGrounder`] additionally snapshots a saturated base program so
//! that small rule deltas (e.g. candidate hypotheses during learning) can be
//! grounded on top without re-deriving the base. See `docs/PERFORMANCE.md`
//! for the algorithm write-up and the benchmark harness that tracks it.

use crate::atom::{Atom, CmpOp, Literal, Trace};
use crate::budget::{Deadline, Exhausted};
use crate::program::{Program, Rule, WeakConstraint};
use crate::symbol::Symbol;
use crate::term::{Bindings, Term};
use std::collections::{HashMap, HashSet};
use std::fmt;

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
}

impl Default for GroundOptions {
    fn default() -> GroundOptions {
        GroundOptions {
            max_atoms: 4_000_000,
            simplify: true,
            deadline: Deadline::none(),
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
}

/// Work counters reported by the grounder.
///
/// `rules_instantiated` is the primary cost metric: it counts every complete
/// body instantiation reaching rule emission (before deduplication).
/// Semi-naive evaluation enumerates each combination of body atoms once.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GroundStats {
    /// Saturation passes: semi-naive rounds, including the seed pass. The
    /// weak-constraint pass derives no atoms and is not counted.
    pub passes: u64,
    /// Complete ground-rule (and weak-constraint) instantiations emitted by
    /// the join machinery, counted before deduplication. A ground fact,
    /// merged without a walk, counts once, as its walk would.
    pub rules_instantiated: u64,
    /// Candidate atoms scanned across all join steps (after argument-value
    /// index probing — this is what indexing collapses).
    pub join_candidates: u64,
}

impl GroundStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: GroundStats) {
        self.passes += other.passes;
        self.rules_instantiated += other.rules_instantiated;
        self.join_candidates += other.join_candidates;
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

/// One body literal in the order the grounder evaluates it (see
/// [`schedule_body`]). Borrows from the rule: scheduling clones no atoms or
/// terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BodyStep<'p> {
    /// Match a positive atom against the atoms derived so far.
    Join {
        /// The atom pattern.
        atom: &'p Atom,
        /// Variables first bound by this join, in order of first
        /// occurrence.
        fresh: Vec<Symbol>,
        /// Argument positions whose terms are fully bound before this join
        /// and free of arithmetic (which never matches structurally): the
        /// grounder probes the smallest of these argument-value buckets
        /// instead of scanning every atom of the signature.
        probe: Vec<usize>,
    },
    /// A comparison whose variables are all bound: a filter.
    Filter(CmpOp, &'p Term, &'p Term),
    /// An `=` with exactly one unbound variable side, in either orientation:
    /// bind the variable to the value of the other side.
    Bind(Symbol, &'p Term),
    /// A negative literal whose variables are all bound.
    Naf(&'p Atom),
}

/// A rule with its body scheduled for grounding.
#[derive(Debug)]
struct ScheduledRule<'p> {
    head: Option<&'p Atom>,
    /// Join-index key of the head (fixed at schedule time: substitution
    /// never changes predicate, arity, or trace).
    head_key: Option<SigKey>,
    steps: Vec<BodyStep<'p>>,
    /// Join-index key per join ordinal: the walk's lookup key, and the
    /// delta-variant skip test.
    joins: Vec<SigKey>,
    /// Weight term and level of a weak constraint; `None` for rules.
    weak: Option<(&'p Term, i64)>,
    /// A ground fact ([`Rule::is_fact`]: no body, a ground head free of
    /// arithmetic). The seed pass merges its head as written instead of
    /// walking it.
    fact: bool,
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
    let mut scheduled =
        schedule_rule_body(rule.head.as_ref(), &rule.body, traces, &|| rule.to_string())?;
    scheduled.fact = rule.is_fact();
    Ok(scheduled)
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
    let mut rule = schedule_rule_body(None, &weak.body, traces, &|| weak.to_string())?;
    rule.weak = Some((&weak.weight, weak.level));
    Ok(rule)
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

fn schedule_rule_body<'p>(
    head: Option<&'p Atom>,
    body: &'p [Literal],
    traces: &mut TraceIds,
    render: &dyn Fn() -> String,
) -> Result<ScheduledRule<'p>, GroundError> {
    let steps = schedule_body(body).map_err(|var| GroundError::UnsafeRule {
        rule: render(),
        var,
    })?;
    let joins = steps
        .iter()
        .filter_map(|s| match s {
            BodyStep::Join { atom, .. } => Some(sig_key(atom, traces)),
            _ => None,
        })
        .collect();
    let head_key = head.map(|h| sig_key(h, traces));
    Ok(ScheduledRule {
        head,
        head_key,
        steps,
        joins,
        weak: None,
        fact: false,
    })
}

/// Orders a rule body for evaluation, the grounder's way. Until every
/// literal is placed, the next step is the first that applies of:
///
/// 1. a comparison whose variables are all bound (a filter);
/// 2. an `=` with one unbound variable side and the other side bound, in
///    either orientation (`V = expr` or `expr = V`): a binder;
/// 3. the positive atom sharing the most variables with those already
///    bound (the earliest on ties): a join;
/// 4. a negative literal whose variables are all bound.
///
/// # Errors
///
/// A variable no step can bind: the body is unsafe.
pub fn schedule_body(body: &[Literal]) -> Result<Vec<BodyStep<'_>>, Symbol> {
    let mut remaining: Vec<&Literal> = body.iter().collect();
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut steps: Vec<BodyStep<'_>> = Vec::with_capacity(remaining.len());
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
            steps.push(BodyStep::Filter(*op, a, b));
            continue;
        }
        // 2. An `=` with exactly one unbound variable side is a binder. Both
        // orientations are tested: in `X = Y` with only `X` bound, `Y` binds.
        let binds = |var: &Term, value: &Term, bound: &HashSet<Symbol>| {
            matches!(var, Term::Var(v) if !bound.contains(v)) && all_bound(value, bound)
        };
        if let Some(i) = remaining.iter().position(|l| match l {
            Literal::Cmp(CmpOp::Eq, a, b) => binds(a, b, &bound) || binds(b, a, &bound),
            _ => false,
        }) {
            let Literal::Cmp(_, a, b) = remaining.remove(i) else {
                unreachable!()
            };
            match (a, b) {
                (Term::Var(v), rhs) if !bound.contains(v) => {
                    bound.insert(*v);
                    steps.push(BodyStep::Bind(*v, rhs));
                }
                (lhs, Term::Var(v)) => {
                    bound.insert(*v);
                    steps.push(BodyStep::Bind(*v, lhs));
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
            steps.push(BodyStep::Join {
                atom: a,
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
            steps.push(BodyStep::Naf(a));
            continue;
        }
        // Only literals with unbindable variables remain: the body is unsafe.
        let mut vs = Vec::new();
        remaining[0].collect_vars(&mut vs);
        return Err(vs
            .into_iter()
            .find(|v| !bound.contains(v))
            .unwrap_or(Symbol::new("_")));
    }
    Ok(steps)
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

/// A set of atom ids, one bit per id of the atom table.
#[derive(Clone, Debug, Default)]
struct AtomBits(Vec<u64>);

impl AtomBits {
    /// Adds `id`; true if it was absent.
    fn insert(&mut self, id: AtomId) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }

    fn contains(&self, id: AtomId) -> bool {
        self.0
            .get(id as usize / 64)
            .is_some_and(|word| word & (1u64 << (id % 64)) != 0)
    }

    /// The ids in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            (0..64u32)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| w as AtomId * 64 + b)
        })
    }
}

/// Join index over the current over-approximation, keyed by `Copy`
/// signature keys — candidate lookups clone nothing.
#[derive(Clone, Debug, Default)]
struct PossibleIndex {
    by_sig: HashMap<SigKey, SigEntry>,
    /// All derivable atoms (the heads emitted so far).
    derivable: AtomBits,
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
    /// Every join reads the full visible window (seed pass, weak
    /// constraints).
    Full,
    /// Semi-naive variant: the join at this ordinal reads the delta window,
    /// earlier joins read pre-delta atoms, later joins read everything
    /// visible.
    Delta(usize),
}

fn plan_range(entry: &SigEntry, join_idx: usize, plan: JoinPlan) -> (usize, usize) {
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

/// Immutable view of the engine state one saturation pass reads: the atom
/// table and join index stay frozen until the merge step folds the pass's
/// results back in.
struct EvalView<'e> {
    table: &'e AtomTable,
    possible: &'e PossibleIndex,
    deadline: Deadline,
    max_atoms: usize,
}

impl EvalView<'_> {
    /// The checks a walk of a fact would make on its single emission: the
    /// deadline, then the per-unit emission bound, which one emission
    /// exceeds only under a zero atom budget.
    fn check_fact(&self) -> Result<(), GroundError> {
        if self.deadline.expired() {
            return Err(GroundError::Exhausted(Exhausted::Deadline));
        }
        if self.max_atoms == 0 {
            return Err(GroundError::Budget { max_atoms: 0 });
        }
        Ok(())
    }
}

/// One complete body instantiation produced by a unit's walk. The merge step
/// interns the head and negative atoms; positive atoms need no interning —
/// they are the matched candidates, recorded by id during the walk.
struct Emission {
    /// Substituted ground head (`None` for constraints).
    head: Option<Atom>,
    /// Matched positive body atom ids, sorted and deduplicated.
    pos: Vec<AtomId>,
    /// Substituted ground negative body atoms, in body-step order.
    negs: Vec<Atom>,
    /// Ground weight and level of a weak-constraint instance; `None` for
    /// rules.
    weak: Option<(i64, i64)>,
}

/// A unit's result: counters plus its emissions in walk order.
#[derive(Default)]
struct UnitOut {
    rules_instantiated: u64,
    join_candidates: u64,
    emissions: Vec<Emission>,
}

/// One unit of a saturation pass: a rule variant and the windows its joins
/// read.
struct Unit<'a, 'p> {
    rule: &'a ScheduledRule<'p>,
    plan: JoinPlan,
}

/// One entry of a saturation pass, evaluated and then merged in order.
enum Work<'a, 'p> {
    /// A rule variant, walked against the frozen view.
    Unit(Unit<'a, 'p>),
    /// A ground fact of the seed pass. It builds no unit, emission or
    /// substitution: the merge interns and indexes its head as written.
    Fact(&'a ScheduledRule<'p>),
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
        let weak = match rule.weak {
            Some((weight, level)) => match weight.substitute(bindings) {
                Some(Term::Int(w)) => Some((w, level)),
                _ => return Ok(()),
            },
            None => None,
        };
        let mut negs = Vec::new();
        for s in &rule.steps {
            if let BodyStep::Naf(a) = s {
                match a.substitute(bindings) {
                    Some(g) => negs.push(g),
                    None => return Ok(()),
                }
            }
        }
        let mut pos = path.clone();
        pos.sort_unstable();
        pos.dedup();
        out.emissions.push(Emission {
            head,
            pos,
            negs,
            weak,
        });
        if out.emissions.len() > view.max_atoms {
            return Err(GroundError::Budget {
                max_atoms: view.max_atoms,
            });
        }
        return Ok(());
    }
    match &rule.steps[step] {
        BodyStep::Filter(op, a, b) => {
            let (Some(ga), Some(gb)) = (a.substitute(bindings), b.substitute(bindings)) else {
                return Ok(());
            };
            if op.eval(&ga, &gb) {
                walk_unit(frame, step + 1, join_idx, bindings, path, out)?;
            }
            Ok(())
        }
        BodyStep::Bind(v, expr) => {
            let Some(val) = expr.substitute(bindings) else {
                return Ok(());
            };
            bindings.insert(*v, val);
            walk_unit(frame, step + 1, join_idx, bindings, path, out)?;
            bindings.remove(v);
            Ok(())
        }
        BodyStep::Naf(_) => walk_unit(frame, step + 1, join_idx, bindings, path, out),
        BodyStep::Join {
            atom: pattern,
            fresh,
            probe,
        } => {
            let Some(entry) = view.possible.by_sig.get(&rule.joins[join_idx]) else {
                return Ok(());
            };
            let (start, end) = plan_range(entry, join_idx, frame.plan);
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

/// The grounding engine: interned atoms, the join index, emitted rules, and
/// work counters. Cloneable so [`IncrementalGrounder`] can snapshot a
/// saturated base.
#[derive(Clone, Debug)]
struct Engine {
    table: AtomTable,
    traces: TraceIds,
    possible: PossibleIndex,
    /// Emitted rules with a body or no head, for dedup.
    seen_rules: HashSet<GroundRule>,
    /// Heads of the emitted facts (rules with a head and an empty ground
    /// body): a fact's dedup key, in place of `seen_rules`.
    facts: AtomBits,
    rules: Vec<GroundRule>,
    weaks: Vec<GroundWeak>,
    seen_weaks: HashSet<GroundWeak>,
    opts: GroundOptions,
    stats: GroundStats,
}

impl Engine {
    fn new(opts: GroundOptions) -> Engine {
        Engine {
            table: AtomTable::new(),
            traces: TraceIds::default(),
            possible: PossibleIndex::default(),
            seen_rules: HashSet::new(),
            facts: AtomBits::default(),
            rules: Vec::new(),
            weaks: Vec::new(),
            seen_weaks: HashSet::new(),
            opts,
            stats: GroundStats::default(),
        }
    }

    /// Queues one rule variant as a unit of the pass, unless its first
    /// join has nothing to read.
    fn push_unit<'a, 'p>(
        &self,
        rule: &'a ScheduledRule<'p>,
        plan: JoinPlan,
        work: &mut Vec<Work<'a, 'p>>,
    ) {
        if let Some(key0) = rule.joins.first() {
            let Some(entry) = self.possible.by_sig.get(key0) else {
                return;
            };
            let (start, end) = plan_range(entry, 0, plan);
            if start >= end {
                return;
            }
        }
        work.push(Work::Unit(Unit { rule, plan }));
    }

    /// Runs one saturation pass over `work`.
    fn run_pass(&mut self, work: &[Work<'_, '_>]) -> Result<(), GroundError> {
        self.stats.passes += 1;
        self.run_units(work)
    }

    /// Evaluates `work` in order against a frozen view of the current
    /// state, stopping at the first entry that fails, then merges the
    /// results in the same order.
    fn run_units(&mut self, work: &[Work<'_, '_>]) -> Result<(), GroundError> {
        let view = EvalView {
            table: &self.table,
            possible: &self.possible,
            deadline: self.opts.deadline,
            max_atoms: self.opts.max_atoms,
        };
        let outs = work
            .iter()
            .map(|entry| match entry {
                Work::Unit(unit) => eval_unit(&view, unit),
                Work::Fact(_) => view.check_fact().map(|()| UnitOut::default()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (entry, out) in work.iter().zip(outs) {
            match entry {
                Work::Unit(unit) => self.merge_unit(unit, out)?,
                Work::Fact(rule) => self.merge_fact(rule)?,
            }
        }
        Ok(())
    }

    /// Folds one unit's result into the engine in emission (walk) order:
    /// interns the head and negative atoms, dedups facts against `facts`,
    /// other rules against `seen_rules` and weak constraints against
    /// `seen_weaks`, indexes new head atoms, and enforces the exact atom
    /// budget after each emission.
    fn merge_unit(&mut self, unit: &Unit<'_, '_>, out: UnitOut) -> Result<(), GroundError> {
        self.stats.rules_instantiated += out.rules_instantiated;
        self.stats.join_candidates += out.join_candidates;
        for em in out.emissions {
            let head = em.head.as_ref().map(|h| self.table.intern(h));
            let mut neg: Vec<AtomId> = em.negs.iter().map(|a| self.table.intern(a)).collect();
            neg.sort_unstable();
            neg.dedup();
            if let Some((weight, level)) = em.weak {
                let gw = GroundWeak {
                    pos: em.pos,
                    neg,
                    weight,
                    level,
                };
                if self.seen_weaks.insert(gw.clone()) {
                    self.weaks.push(gw);
                }
            } else {
                let gr = GroundRule {
                    head,
                    pos: em.pos,
                    neg,
                };
                let fresh = match gr.head {
                    Some(h) if gr.is_fact() => self.facts.insert(h),
                    _ => self.seen_rules.insert(gr.clone()),
                };
                if fresh {
                    if let Some(h) = gr.head {
                        let key = unit.rule.head_key.expect("headed rules carry a head key");
                        let atom = em.head.as_ref().expect("head id implies a head atom");
                        self.possible.insert(h, key, atom);
                    }
                    self.rules.push(gr);
                }
            }
            self.check_atom_budget()?;
        }
        Ok(())
    }

    /// Folds a ground fact into the engine as the merge of a walk's single
    /// emission of it would: interns its head, dedups it against `facts`,
    /// indexes a new head, and enforces the exact atom budget.
    fn merge_fact(&mut self, rule: &ScheduledRule<'_>) -> Result<(), GroundError> {
        self.stats.rules_instantiated += 1;
        let atom = rule.head.expect("facts have heads");
        let h = self.table.intern(atom);
        if self.facts.insert(h) {
            let key = rule.head_key.expect("headed rules carry a head key");
            self.possible.insert(h, key, atom);
            self.rules.push(GroundRule {
                head: Some(h),
                pos: Vec::new(),
                neg: Vec::new(),
            });
        }
        self.check_atom_budget()
    }

    /// Exact budget check after every emission: semi-naive evaluation
    /// visits each instantiation once, so an entry-only check would let a
    /// small program overshoot the cap and finish without ever reporting
    /// exhaustion.
    fn check_atom_budget(&self) -> Result<(), GroundError> {
        if self.table.len() > self.opts.max_atoms {
            return Err(GroundError::Budget {
                max_atoms: self.opts.max_atoms,
            });
        }
        Ok(())
    }

    /// Evaluates every rule once against the currently visible window. A
    /// ground fact is merged directly, in rule order between the units'
    /// merges.
    fn seed_pass(&mut self, rules: &[ScheduledRule<'_>]) -> Result<(), GroundError> {
        let mut work = Vec::with_capacity(rules.len());
        for rule in rules {
            if rule.fact {
                work.push(Work::Fact(rule));
            } else {
                self.push_unit(rule, JoinPlan::Full, &mut work);
            }
        }
        self.run_pass(&work)
    }

    /// Semi-naive rounds: repeat until no new atoms appear, evaluating only
    /// the delta variants whose join signature actually gained atoms.
    fn delta_rounds(&mut self, sets: &[&[ScheduledRule<'_>]]) -> Result<(), GroundError> {
        while self.possible.advance() {
            let mut work = Vec::new();
            for rules in sets {
                for rule in *rules {
                    for (d, key) in rule.joins.iter().enumerate() {
                        if !self.possible.has_delta(*key) {
                            continue;
                        }
                        self.push_unit(rule, JoinPlan::Delta(d), &mut work);
                    }
                }
            }
            self.run_pass(&work)?;
        }
        Ok(())
    }

    /// Grounds `program`'s weak constraints against the saturated
    /// over-approximation: one run of full-window units through the same
    /// walk and merge as rules. It derives no atoms, so it is not counted
    /// as a pass.
    fn ground_weaks(&mut self, program: &Program) -> Result<(), GroundError> {
        let scheduled = program
            .weak_constraints()
            .iter()
            .map(|w| schedule_weak(w, &mut self.traces))
            .collect::<Result<Vec<_>, _>>()?;
        let mut work = Vec::new();
        for rule in &scheduled {
            self.push_unit(rule, JoinPlan::Full, &mut work);
        }
        self.run_units(&work)
    }

    /// Consumes the engine, applying fact-folding simplification (unless
    /// disabled) and producing the final [`GroundProgram`].
    fn finish(self) -> GroundProgram {
        let Engine {
            table,
            possible,
            facts,
            rules: ground_rules,
            weaks: ground_weaks,
            opts,
            ..
        } = self;

        if !opts.simplify {
            // Keep the instantiation untouched (used by explanation tooling).
            // The definite facts are the heads of the emitted facts.
            let inconsistent = ground_rules
                .iter()
                .any(|r| r.is_constraint() && r.pos.is_empty() && r.neg.is_empty());
            return GroundProgram {
                table,
                rules: ground_rules,
                weaks: ground_weaks,
                definite_facts: facts.iter().collect(),
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
        let mut fact_set = AtomBits::default();
        {
            let mut need: Vec<usize> = Vec::with_capacity(ground_rules.len());
            let mut watch: HashMap<AtomId, Vec<usize>> = HashMap::new();
            let mut queue: Vec<AtomId> = Vec::new();
            for (ri, r) in ground_rules.iter().enumerate() {
                let eligible = r.head.is_some() && r.neg.iter().all(|&n| !derivable.contains(n));
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
            // A rule whose head is a definite fact contributes nothing beyond
            // the fact itself.
            if r.head.is_some_and(|h| fact_set.contains(h)) {
                continue;
            }
            let Some((pos, neg)) = simplify_body(&r.pos, &r.neg, &fact_set, derivable) else {
                continue;
            };
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
        // Every rule kept above has no head or a head that is not a definite
        // fact, and the ids are distinct: no fact can repeat a kept rule.
        let definite_facts: Vec<AtomId> = fact_set.iter().collect();
        simplified.extend(definite_facts.iter().map(|&f| GroundRule {
            head: Some(f),
            pos: Vec::new(),
            neg: Vec::new(),
        }));

        let mut weaks: Vec<GroundWeak> = Vec::new();
        let mut seen_weaks: HashSet<GroundWeak> = HashSet::new();
        for w in ground_weaks {
            let Some((pos, neg)) = simplify_body(&w.pos, &w.neg, &fact_set, derivable) else {
                continue;
            };
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

/// Simplifies one ground body against the definite facts and the derivable
/// atoms. `None` means the body can never hold: a negated atom is a
/// definite fact, or a positive atom can never be derived. Otherwise the
/// body keeps its positive atoms that are not definite facts and its
/// negated atoms that are derivable.
fn simplify_body(
    pos: &[AtomId],
    neg: &[AtomId],
    facts: &AtomBits,
    derivable: &AtomBits,
) -> Option<(Vec<AtomId>, Vec<AtomId>)> {
    if neg.iter().any(|&n| facts.contains(n))
        || pos
            .iter()
            .any(|&p| !derivable.contains(p) && !facts.contains(p))
    {
        return None;
    }
    let pos = pos
        .iter()
        .copied()
        .filter(|&p| !facts.contains(p))
        .collect();
    let neg = neg
        .iter()
        .copied()
        .filter(|&n| derivable.contains(n))
        .collect();
    Some((pos, neg))
}

fn run_engine(
    program: &Program,
    opts: GroundOptions,
) -> Result<(GroundProgram, GroundStats), GroundError> {
    let mut span = agenp_obs::span!("asp.ground", rules = program.rules().len());
    let result = run_engine_inner(program, opts);
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
) -> Result<(GroundProgram, GroundStats), GroundError> {
    let mut engine = Engine::new(opts);
    let scheduled = schedule_program(program, &mut engine.traces)?;
    engine.seed_pass(&scheduled)?;
    engine.delta_rounds(&[&scheduled])?;
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

/// Grounds `program` with explicit [`GroundOptions`].
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
    run_engine(program, opts)
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
        let mut engine = Engine::new(opts);
        let scheduled = schedule_program(base, &mut engine.traces)?;
        engine.seed_pass(&scheduled)?;
        engine.delta_rounds(&[&scheduled])?;
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
        // Seed only the delta rules over the full saturated base; base rules
        // already enumerated every pre-existing combination.
        engine.seed_pass(&delta_sched)?;
        engine.delta_rounds(&[&base_sched, &delta_sched])?;
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

    /// Order-insensitive rendering for comparing groundings whose atom ids
    /// may differ (incremental against monolithic, or expected lines).
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
    fn binders_bind_either_side() {
        // `expr = V` binds `V` like `V = expr`, also when `expr` is itself a
        // bound variable: `X = Y` with only `X` bound binds `Y`.
        let p: Program = "
            num(1). num(2).
            fwd(Y) :- num(X), Y = X + 1.
            rev(Y) :- num(X), X + 1 = Y.
            same(Y) :- num(X), X = Y.
        "
        .parse()
        .unwrap();
        let facts = atoms_of(&ground(&p).unwrap());
        for want in ["fwd(2)", "fwd(3)", "rev(2)", "rev(3)", "same(1)", "same(2)"] {
            assert!(facts.contains(&want.to_string()), "{want} in {facts:?}");
        }
        let steps = |rule: &str| {
            let r: Rule = rule.parse().unwrap();
            schedule_body(&r.body)
                .unwrap()
                .iter()
                .map(|s| match s {
                    BodyStep::Join { atom, .. } => atom.to_string(),
                    BodyStep::Filter(op, a, b) => format!("filter {a} {op} {b}"),
                    BodyStep::Bind(v, t) => format!("bind {v} {t}"),
                    BodyStep::Naf(a) => format!("not {a}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            steps(":- X = Y, c(X), Y < 3."),
            ["c(X)", "bind Y X", "filter Y < 3"]
        );
        assert_eq!(
            steps(":- not d(Y), X + 1 = Y, c(X)."),
            ["c(X)", "bind Y (X + 1)", "not d(Y)"]
        );
        let unsafe_body: Rule = ":- c(X), Y < X.".parse().unwrap();
        assert_eq!(schedule_body(&unsafe_body.body), Err(Symbol::new("Y")));
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

    /// The naive reference grounding of a recursive program with a
    /// comparison, negation and a weak constraint, derived by hand: `path`
    /// is the closure of the chain 1 → 5, every `far(X)` with `X < 5` is a
    /// fact, so each `near` instance is blocked, and the ten weak instances
    /// lose their (true) bodies and collapse into one.
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
        let mut facts = vec![
            "edge(1, 2)",
            "edge(2, 3)",
            "edge(3, 4)",
            "edge(4, 5)",
            "path(1, 2)",
            "path(1, 3)",
            "path(1, 4)",
            "path(1, 5)",
            "path(2, 3)",
            "path(2, 4)",
            "path(2, 5)",
            "path(3, 4)",
            "path(3, 5)",
            "path(4, 5)",
            "far(1)",
            "far(2)",
            "far(3)",
            "far(4)",
        ];
        facts.sort_unstable();
        let mut naive: Vec<String> = facts.iter().map(|f| format!("{f}.")).collect();
        naive.push(":~ . [1@0]".to_string());
        naive.sort();
        assert_eq!(rendered_lines(&semi), naive);
        assert_eq!(atoms_of(&semi), facts);
        // The whole point: semi-naive instantiates each of the 41 ground
        // instances (4 edge facts, 4 + 6 path, 7 far and 10 near rules, 10
        // weak constraints) exactly once, where naive saturation
        // re-instantiates every rule on each of its passes.
        assert_eq!(semi_stats.rules_instantiated, 41);
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
        let semi = ground_with(&p, GroundOptions::default().with_simplify(false)).unwrap();
        // Every instance of the naive reference whose positive body is
        // derivable, bodies kept as written.
        let naive = [
            "edge(1, 2).",
            "edge(2, 3).",
            "path(1, 2) :- edge(1, 2).",
            "path(1, 3) :- edge(1, 2), path(2, 3).",
            "path(2, 3) :- edge(2, 3).",
        ];
        assert_eq!(rendered_lines(&semi), naive);
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
        };
        a.absorb(GroundStats {
            passes: 2,
            rules_instantiated: 3,
            join_candidates: 7,
        });
        assert_eq!(a.passes, 3);
        assert_eq!(a.rules_instantiated, 13);
        assert_eq!(a.join_candidates, 12);
    }

    /// `program` with every fact `a.` rewritten as `a :- 0 = 0.`: the
    /// filter body sends the rule through the join walk.
    fn walked(program: &Program) -> Program {
        let zero = Term::Int(0);
        let mut out: Program = program
            .rules()
            .iter()
            .map(|r| match &r.head {
                Some(head) if r.is_fact() => Rule::new(
                    head.clone(),
                    vec![Literal::Cmp(CmpOp::Eq, zero.clone(), zero.clone())],
                ),
                _ => r.clone(),
            })
            .collect();
        for w in program.weak_constraints() {
            out.push_weak(w.clone());
        }
        out
    }

    /// Everything a grounding shows: its rendering, its atoms in table
    /// order, its definite facts and whether it is proven inconsistent.
    fn fingerprint(g: &GroundProgram) -> (String, Vec<String>, Vec<AtomId>, bool) {
        let atoms = g.atoms().iter().map(|(_, a)| a.to_string()).collect();
        (
            g.to_string(),
            atoms,
            g.definite_facts().to_vec(),
            g.proven_inconsistent(),
        )
    }

    /// Grounds `text` under `opts` with its facts on the direct path and,
    /// rewritten by [`walked`], on the walk: both must ground to the same
    /// program with the same stats, or fail with the same error.
    fn ground_both(text: &str, opts: GroundOptions) -> Result<GroundProgram, GroundError> {
        ground_program_both(&text.parse().unwrap(), opts)
    }

    fn ground_program_both(p: &Program, opts: GroundOptions) -> Result<GroundProgram, GroundError> {
        let text = p.to_string();
        let direct = ground_with_stats(p, opts);
        let walk = ground_with_stats(&walked(p), opts);
        match (&direct, &walk) {
            (Ok((a, a_stats)), Ok((b, b_stats))) => {
                assert_eq!(fingerprint(a), fingerprint(b), "{text}");
                assert_eq!(a_stats, b_stats, "{text}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
            _ => panic!("{text}: direct {direct:?}, walked {walk:?}"),
        }
        direct.map(|(g, _)| g)
    }

    #[test]
    fn duplicate_facts_ground_once() {
        let opts = GroundOptions::default();
        let g = ground_both("a. p(1). a. p(1). b :- a. a.", opts).unwrap();
        assert_eq!(rendered_lines(&g), ["a.", "b.", "p(1)."]);
        let raw = ground_both("a. p(1). a. p(1). b :- a. a.", opts.with_simplify(false)).unwrap();
        assert_eq!(raw.to_string(), "a.\np(1).\nb :- a.\n");
    }

    #[test]
    fn arithmetic_fact_heads_are_walked() {
        let p: Program = "p(1 + 2). q(2 * 3, 7 - 7).".parse().unwrap();
        assert!(p.rules().iter().all(|r| !r.is_fact()));
        let g = ground_both("p(1 + 2). q(2 * 3, 7 - 7).", GroundOptions::default()).unwrap();
        assert_eq!(atoms_of(&g), ["p(3)", "q(6, 0)"]);
        // A head whose arithmetic fails emits nothing.
        let g = ground_both("p(1 / 0). q.", GroundOptions::default()).unwrap();
        assert_eq!(atoms_of(&g), ["q"]);
    }

    #[test]
    fn annotated_facts_take_the_fact_path() {
        let text = "p@2. p. q(1)@1. r(X) :- q(X)@1. s :- p@2, not p@3.";
        let g = ground_both(text, GroundOptions::default()).unwrap();
        assert_eq!(atoms_of(&g), ["p", "p@2", "q(1)@1", "r(1)", "s"]);
        // Instantiated at a tree node, as a tree program's rules are.
        let p: Program = text.parse().unwrap();
        let at = p.instantiate_at(&Trace::from_indices([1, 2]));
        let g = ground_program_both(&at, GroundOptions::default()).unwrap();
        assert_eq!(
            atoms_of(&g),
            ["p@1_2", "p@1_2_2", "q(1)@1_2_1", "r(1)@1_2", "s@1_2"]
        );
    }

    #[test]
    fn a_fact_and_a_walked_rule_share_one_ground_rule() {
        for text in ["p(1). p(X) :- X = 1.", "p(X) :- X = 1. p(1)."] {
            for simplify in [true, false] {
                let opts = GroundOptions::default().with_simplify(simplify);
                let g = ground_both(text, opts).unwrap();
                assert_eq!(g.rules().len(), 1, "{text} (simplify {simplify})");
                assert_eq!(g.to_string(), "p(1).\n");
            }
        }
    }

    #[test]
    fn facts_merge_in_rule_order() {
        // The atom table interns each head where its rule stands: `a`
        // after the unit emitting `q` (and its negated `r`), `b` after the
        // binder's `p(1)`.
        let text = "q :- not r. a. p(X) :- X = 1. b. c :- a, b.";
        for simplify in [true, false] {
            let opts = GroundOptions::default().with_simplify(simplify);
            let g = ground_both(text, opts).unwrap();
            let atoms: Vec<String> = g.atoms().iter().map(|(_, a)| a.to_string()).collect();
            assert_eq!(atoms, ["q", "r", "a", "p(1)", "b", "c"]);
        }
    }

    #[test]
    fn facts_only_budgets_fail_as_the_walk_does() {
        let facts = "a. b. c(1). c(2).";
        let opts = GroundOptions::default();
        assert_eq!(
            ground_both(facts, opts.with_max_atoms(0)).unwrap_err(),
            GroundError::Budget { max_atoms: 0 }
        );
        assert_eq!(
            ground_both(facts, opts.with_max_atoms(1)).unwrap_err(),
            GroundError::Budget { max_atoms: 1 }
        );
        assert_eq!(
            ground_both(facts, opts.with_max_atoms(4))
                .unwrap()
                .atoms()
                .len(),
            4
        );
        let expired = opts.with_deadline(Deadline::after(std::time::Duration::ZERO));
        assert_eq!(
            ground_both(facts, expired).unwrap_err(),
            GroundError::Exhausted(Exhausted::Deadline)
        );
        // A fact after a walked rule meets the same checks in rule order.
        let mixed = "q :- not r. a. b.";
        assert_eq!(
            ground_both(mixed, opts.with_max_atoms(0)).unwrap_err(),
            GroundError::Budget { max_atoms: 0 }
        );
        assert_eq!(
            ground_both(mixed, opts.with_max_atoms(3)).unwrap_err(),
            GroundError::Budget { max_atoms: 3 }
        );
        assert_eq!(
            ground_both(mixed, expired.with_max_atoms(0)).unwrap_err(),
            GroundError::Exhausted(Exhausted::Deadline)
        );
    }

    #[test]
    fn facts_keep_their_structure_without_simplification() {
        let text = "
            edge(1, 2). edge(2, 3). edge(1, 2).
            path(X, Y) :- edge(X, Y).
            blocked :- path(1, 2), not open.
            :- blocked, edge(2, 3).
            :~ edge(X, Y). [1@0]
        ";
        let opts = GroundOptions::default().with_simplify(false);
        let g = ground_both(text, opts).unwrap();
        let facts: Vec<String> = g
            .definite_facts()
            .iter()
            .map(|&f| g.atoms().resolve(f).to_string())
            .collect();
        assert_eq!(facts, ["edge(1, 2)", "edge(2, 3)"]);
        assert_eq!(g.rules().iter().filter(|r| r.is_fact()).count(), 2);
        assert_eq!(g.weak_constraints().len(), 2);
        assert!(!g.proven_inconsistent());
        let simplified = ground_both(text, GroundOptions::default()).unwrap();
        assert!(simplified.proven_inconsistent());
    }

    #[test]
    fn incremental_fact_deltas_match_monolithic() {
        let base: Program = "
            edge(1, 2).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            :~ path(1, X). [1@0]
        "
        .parse()
        .unwrap();
        let delta: Program = "edge(2, 3). edge(1, 2). edge(3, 4). mark.".parse().unwrap();
        for simplify in [true, false] {
            let opts = GroundOptions::default().with_simplify(simplify);
            let inc = IncrementalGrounder::new(&base, opts).unwrap();
            let (direct, direct_stats) = inc.ground_delta_with_stats(delta.rules()).unwrap();
            let (walk, walk_stats) = inc.ground_delta_with_stats(walked(&delta).rules()).unwrap();
            assert_eq!(fingerprint(&direct), fingerprint(&walk));
            assert_eq!(direct_stats, walk_stats);
            let mut combined = base.clone();
            for r in delta.rules() {
                combined.push(r.clone());
            }
            let monolithic = ground_with(&combined, opts).unwrap();
            assert_eq!(rendered_lines(&direct), rendered_lines(&monolithic));
            assert_eq!(atoms_of(&direct), atoms_of(&monolithic));
        }
    }

    /// A transitive-closure chain of `n` edges.
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
    fn argument_indices_collapse_join_scans() {
        let p = chain_program(40);
        let (_, stats) = ground_with_stats(&p, GroundOptions::default()).unwrap();
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
