//! Candidate plans and worlds: a constraint candidate compiled once for
//! evaluation, the answer sets ("worlds") of a parse tree's program
//! `G(C)[PT]` it is evaluated against, and the one helper that grounds and
//! solves a program for its worlds. The learning session's world cache
//! (`session.rs`) is the only caller of that helper.
//!
//! Soundness of the world view: for any program `P` and set of constraints
//! `C`, the stable models of `P ∪ C` are exactly the stable models of `P`
//! that satisfy every constraint in `C`. A tree is therefore admitted by
//! `G(C):H` iff some world of its base program violates no chosen
//! constraint.

use crate::learner::LearnError;
use crate::space::Candidate;
use agenp_asp::{
    ground_with_stats, schedule_body, ArithOp, Atom, BodyStep, CmpOp, Exhausted, GroundError,
    GroundOptions, GroundStats, Program, Rule, RunBudget, SolveResult, Solver, Symbol, Term, Trace,
};
use agenp_grammar::{Asg, AsgError, EarleyParser, ParseOptions, ParseTree, ProdId};
use std::borrow::Cow;

/// A single answer set of a base program, its atoms grouped by predicate
/// and arity for plan evaluation.
#[derive(Clone, Debug)]
pub struct World {
    /// Sorted by predicate and arity, so each signature's atoms are
    /// contiguous.
    atoms: Vec<Atom>,
    /// Per signature present, ascending: predicate, arity, and the range
    /// of its atoms.
    sigs: Vec<(Symbol, usize, std::ops::Range<usize>)>,
}

impl World {
    /// Builds a world from a set of atoms.
    pub fn from_atoms(mut atoms: Vec<Atom>) -> World {
        atoms.sort_by_key(Atom::signature);
        let mut sigs: Vec<(Symbol, usize, std::ops::Range<usize>)> = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            match sigs.last_mut() {
                Some((pred, arity, range)) if (*pred, *arity) == a.signature() => range.end = i + 1,
                _ => sigs.push((a.pred, a.args.len(), i..i + 1)),
            }
        }
        World { atoms, sigs }
    }

    /// True if the world contains the (ground) atom.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.with_signature(atom.pred, atom.args.len())
            .contains(atom)
    }

    /// The atoms of one predicate and arity, whatever their traces.
    fn with_signature(&self, pred: Symbol, arity: usize) -> &[Atom] {
        match self
            .sigs
            .binary_search_by(|(p, n, _)| (*p, *n).cmp(&(pred, arity)))
        {
            Ok(i) => &self.atoms[self.sigs[i].2.clone()],
            Err(_) => &[],
        }
    }

    /// The world's atoms, grouped by predicate and arity.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The union of this world and `other`, which share no predicate and
    /// arity: the world [`World::from_atoms`] builds from both worlds'
    /// atoms, merged a signature's run at a time instead of sorted again.
    fn merged(&self, other: &World) -> World {
        let mut atoms = Vec::with_capacity(self.atoms.len() + other.atoms.len());
        let mut sigs = Vec::with_capacity(self.sigs.len() + other.sigs.len());
        let (mut mine, mut theirs) = (self.sigs.iter().peekable(), other.sigs.iter().peekable());
        loop {
            let take_mine = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => {
                    debug_assert!((a.0, a.1) != (b.0, b.1), "merged worlds share a signature");
                    (a.0, a.1) < (b.0, b.1)
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (world, (pred, arity, range)) = if take_mine {
                (self, mine.next().expect("peeked"))
            } else {
                (other, theirs.next().expect("peeked"))
            };
            let start = atoms.len();
            atoms.extend_from_slice(&world.atoms[range.clone()]);
            sigs.push((*pred, *arity, start..atoms.len()));
        }
        World { atoms, sigs }
    }
}

/// Plans for every candidate of a constraint-only space, in order.
///
/// # Errors
///
/// [`LearnError::UnsafeCandidate`] for a candidate with no plan.
pub(crate) fn plan_candidates(candidates: &[Candidate]) -> Result<Vec<CandidatePlan>, LearnError> {
    candidates
        .iter()
        .map(|c| {
            CandidatePlan::new(c.target, &c.rule)
                .ok_or_else(|| LearnError::UnsafeCandidate(c.rule.to_string()))
        })
        .collect()
}

/// A constraint candidate compiled once for evaluation against worlds.
///
/// The body is ordered by the grounder's own rules ([`schedule_body`]),
/// its variables are numbered into slots in the order they are bound, and
/// each atom keeps its trace as a suffix: instantiated at parse-tree node
/// `t`, it matches a world atom whose trace equals `t ++ suffix`, compared
/// in place. Evaluation instantiates no rule and clones no atom, and the
/// bindings are a fixed slot array: each step's mark is the number of
/// slots bound before it, so a failed match needs no undo — the slots at or
/// past the mark are dead and the next match overwrites them. It allocates
/// only a heap slot array for a plan of more than eight variables and the
/// compound term a comparison or binder builds from a compound with
/// variables inside.
#[derive(Clone, Debug)]
pub struct CandidatePlan {
    target: ProdId,
    steps: Vec<PlanStep>,
    slots: usize,
}

#[derive(Clone, Debug)]
enum PlanStep {
    /// Match a positive atom against the world.
    Join(PlanAtom),
    /// A comparison whose variables are all bound.
    Filter(CmpOp, Pattern, Pattern),
    /// An `=` binder: set the slot to the value of the term.
    Bind(usize, Pattern),
    /// A negative literal whose variables are all bound.
    Naf(PlanAtom),
}

#[derive(Clone, Debug)]
struct PlanAtom {
    pred: Symbol,
    args: Vec<Pattern>,
    /// The atom's own trace, appended to the node's.
    suffix: Trace,
}

/// A term of a plan.
#[derive(Clone, Debug)]
enum Pattern {
    /// A ground term.
    Ground(Term),
    /// A variable's first occurrence in a join: matching sets its slot.
    Fresh(usize),
    /// A variable bound by an earlier occurrence or step.
    Slot(usize),
    /// A compound term with variables inside.
    Func(Symbol, Vec<Pattern>),
    /// Arithmetic: evaluated once its variables are bound; it never
    /// matches a world term structurally, as in the grounder.
    Arith(ArithOp, Box<Pattern>, Box<Pattern>),
}

/// Slot arrays of up to this many variables live on the stack.
const INLINE_SLOTS: usize = 8;

impl CandidatePlan {
    /// Compiles the constraint `rule` targeting production `target`.
    /// `None` if the rule is not a constraint or its body is unsafe.
    pub fn new(target: ProdId, rule: &Rule) -> Option<CandidatePlan> {
        if !rule.is_constraint() {
            return None;
        }
        let mut slots: Vec<Symbol> = Vec::new();
        let steps = schedule_body(&rule.body)
            .ok()?
            .into_iter()
            .map(|step| match step {
                BodyStep::Join { atom, .. } => PlanStep::Join(PlanAtom::new(atom, &mut slots)),
                BodyStep::Filter(op, a, b) => {
                    PlanStep::Filter(op, Pattern::new(a, &mut slots), Pattern::new(b, &mut slots))
                }
                BodyStep::Bind(var, expr) => {
                    let expr = Pattern::new(expr, &mut slots);
                    slots.push(var);
                    PlanStep::Bind(slots.len() - 1, expr)
                }
                BodyStep::Naf(atom) => PlanStep::Naf(PlanAtom::new(atom, &mut slots)),
            })
            .collect();
        Some(CandidatePlan {
            target,
            steps,
            slots: slots.len(),
        })
    }

    /// The production the candidate annotates.
    pub fn target(&self) -> ProdId {
        self.target
    }

    /// Does some grounding of the body, instantiated at parse-tree node
    /// `node`, make every literal true in `world`?
    pub fn holds_at(&self, world: &World, node: &Trace) -> bool {
        let node = node.indices();
        if self.slots <= INLINE_SLOTS {
            let mut slots: [Cow<'_, Term>; INLINE_SLOTS] =
                std::array::from_fn(|_| Cow::Owned(Term::Int(0)));
            self.run(0, world, node, &mut slots)
        } else {
            let mut slots = vec![Cow::Owned(Term::Int(0)); self.slots];
            self.run(0, world, node, &mut slots)
        }
    }

    fn run<'a>(
        &'a self,
        step: usize,
        world: &'a World,
        node: &[u16],
        slots: &mut [Cow<'a, Term>],
    ) -> bool {
        let Some(current) = self.steps.get(step) else {
            return true;
        };
        match current {
            PlanStep::Join(atom) => world
                .with_signature(atom.pred, atom.args.len())
                .iter()
                .any(|w| atom.bind(w, node, slots) && self.run(step + 1, world, node, slots)),
            PlanStep::Filter(op, a, b) => match (a.eval(slots), b.eval(slots)) {
                (Some(a), Some(b)) => op.eval(&a, &b) && self.run(step + 1, world, node, slots),
                _ => false,
            },
            PlanStep::Bind(slot, expr) => match expr.eval(slots) {
                Some(value) => {
                    slots[*slot] = value;
                    self.run(step + 1, world, node, slots)
                }
                None => false,
            },
            PlanStep::Naf(atom) => {
                // A negation whose arithmetic fails does not hold, as the
                // grounder drops that instance.
                if !atom.args.iter().all(|p| p.evaluates(slots)) {
                    return false;
                }
                let present = world
                    .with_signature(atom.pred, atom.args.len())
                    .iter()
                    .any(|w| atom.equals(w, node, slots));
                !present && self.run(step + 1, world, node, slots)
            }
        }
    }
}

impl PlanAtom {
    fn new(atom: &Atom, slots: &mut Vec<Symbol>) -> PlanAtom {
        PlanAtom {
            pred: atom.pred,
            args: atom.args.iter().map(|t| Pattern::new(t, slots)).collect(),
            suffix: atom.trace.clone(),
        }
    }

    /// Is `trace` this atom's trace when instantiated at `node`?
    fn at(&self, trace: &Trace, node: &[u16]) -> bool {
        let (trace, suffix) = (trace.indices(), self.suffix.indices());
        trace.len() == node.len() + suffix.len()
            && trace
                .iter()
                .zip(node.iter().chain(suffix))
                .all(|(a, b)| a == b)
    }

    /// Matches the world atom `w` (of this atom's signature) at `node`,
    /// setting fresh slots.
    fn bind<'a>(&self, w: &'a Atom, node: &[u16], slots: &mut [Cow<'a, Term>]) -> bool {
        self.at(&w.trace, node) && self.args.iter().zip(&w.args).all(|(p, v)| p.bind(v, slots))
    }

    /// Is the world atom `w` (of this atom's signature) this bound atom
    /// instantiated at `node`?
    fn equals(&self, w: &Atom, node: &[u16], slots: &[Cow<'_, Term>]) -> bool {
        self.at(&w.trace, node)
            && self
                .args
                .iter()
                .zip(&w.args)
                .all(|(p, v)| p.equals(v, slots))
    }
}

impl Pattern {
    /// Numbers the term's variables: one already in `slots` reads its
    /// slot, a new one is given the next slot.
    fn new(term: &Term, slots: &mut Vec<Symbol>) -> Pattern {
        match term {
            t if t.is_ground() => Pattern::Ground(t.clone()),
            Term::Var(v) => match slots.iter().position(|s| s == v) {
                Some(i) => Pattern::Slot(i),
                None => {
                    slots.push(*v);
                    Pattern::Fresh(slots.len() - 1)
                }
            },
            Term::Func(f, args) => {
                Pattern::Func(*f, args.iter().map(|a| Pattern::new(a, slots)).collect())
            }
            Term::Arith(op, l, r) => Pattern::Arith(
                *op,
                Box::new(Pattern::new(l, slots)),
                Box::new(Pattern::new(r, slots)),
            ),
            Term::Int(_) | Term::Sym(_) => unreachable!("constants are ground"),
        }
    }

    /// Matches the pattern against a world term, setting fresh slots.
    fn bind<'a>(&self, value: &'a Term, slots: &mut [Cow<'a, Term>]) -> bool {
        match self {
            Pattern::Ground(t) => t == value,
            Pattern::Fresh(i) => {
                slots[*i] = Cow::Borrowed(value);
                true
            }
            Pattern::Slot(i) => *slots[*i] == *value,
            Pattern::Func(f, args) => match value {
                Term::Func(g, values) => {
                    f == g
                        && args.len() == values.len()
                        && args.iter().zip(values).all(|(p, v)| p.bind(v, slots))
                }
                _ => false,
            },
            Pattern::Arith(..) => false,
        }
    }

    /// Is the pattern, its variables bound, equal to `value`? Assumes its
    /// arithmetic evaluates ([`Pattern::evaluates`]).
    fn equals(&self, value: &Term, slots: &[Cow<'_, Term>]) -> bool {
        match self {
            Pattern::Ground(t) => t == value,
            Pattern::Fresh(i) | Pattern::Slot(i) => *slots[*i] == *value,
            Pattern::Func(f, args) => match value {
                Term::Func(g, values) => {
                    f == g
                        && args.len() == values.len()
                        && args.iter().zip(values).all(|(p, v)| p.equals(v, slots))
                }
                _ => false,
            },
            Pattern::Arith(..) => self.eval_int(slots).is_some_and(|n| *value == Term::Int(n)),
        }
    }

    /// Does every arithmetic subterm evaluate to an integer?
    fn evaluates(&self, slots: &[Cow<'_, Term>]) -> bool {
        match self {
            Pattern::Ground(_) | Pattern::Fresh(_) | Pattern::Slot(_) => true,
            Pattern::Func(_, args) => args.iter().all(|p| p.evaluates(slots)),
            Pattern::Arith(..) => self.eval_int(slots).is_some(),
        }
    }

    /// The integer the pattern evaluates to, as [`Term::substitute`]
    /// computes it: `None` for a non-integer operand, division by zero or
    /// overflow.
    fn eval_int(&self, slots: &[Cow<'_, Term>]) -> Option<i64> {
        match self {
            Pattern::Ground(Term::Int(n)) => Some(*n),
            Pattern::Fresh(i) | Pattern::Slot(i) => match *slots[*i] {
                Term::Int(n) => Some(n),
                _ => None,
            },
            Pattern::Arith(op, l, r) => op.apply(l.eval_int(slots)?, r.eval_int(slots)?),
            Pattern::Ground(_) | Pattern::Func(..) => None,
        }
    }

    /// The ground value of the pattern, its variables bound; `None` if
    /// its arithmetic fails.
    fn eval<'a>(&'a self, slots: &[Cow<'a, Term>]) -> Option<Cow<'a, Term>> {
        match self {
            Pattern::Ground(t) => Some(Cow::Borrowed(t)),
            Pattern::Fresh(i) | Pattern::Slot(i) => Some(slots[*i].clone()),
            Pattern::Arith(..) => self.eval_int(slots).map(|n| Cow::Owned(Term::Int(n))),
            Pattern::Func(f, args) => args
                .iter()
                .map(|p| p.eval(slots).map(Cow::into_owned))
                .collect::<Option<Vec<Term>>>()
                .map(|args| Cow::Owned(Term::Func(*f, args))),
        }
    }
}

/// A parse tree's node traces by production: where a candidate targeting
/// a production is instantiated.
#[derive(Clone, Debug)]
pub(crate) struct NodeTraces(
    /// Ascending by production, each production's root first.
    Vec<(ProdId, Vec<Trace>)>,
);

impl NodeTraces {
    fn of(tree: &ParseTree) -> NodeTraces {
        let mut nodes: Vec<(ProdId, Trace)> = Vec::new();
        tree.visit_nodes(|node, trace| nodes.push((node.prod, trace.clone())));
        nodes.sort_by_key(|(prod, _)| *prod);
        let mut by_prod: Vec<(ProdId, Vec<Trace>)> = Vec::new();
        for (prod, trace) in nodes {
            match by_prod.last_mut() {
                Some((last, traces)) if *last == prod => traces.push(trace),
                _ => by_prod.push((prod, vec![trace])),
            }
        }
        NodeTraces(by_prod)
    }

    /// The traces of the nodes expanding `prod`, root first.
    pub(crate) fn get(&self, prod: ProdId) -> &[Trace] {
        match self.0.binary_search_by_key(&prod, |(p, _)| *p) {
            Ok(i) => &self.0[i].1,
            Err(_) => &[],
        }
    }
}

/// The answer sets ("worlds") of one parse tree's program `G(C)[PT]`,
/// with the node traces a candidate is instantiated at.
#[derive(Clone, Debug)]
pub struct TreeWorlds {
    traces: NodeTraces,
    worlds: Vec<World>,
    complete: bool,
}

impl TreeWorlds {
    /// `worlds` of `tree`'s program, with the tree's node traces.
    pub(crate) fn from_worlds(tree: &ParseTree, worlds: Vec<World>, complete: bool) -> TreeWorlds {
        TreeWorlds {
            traces: NodeTraces::of(tree),
            worlds,
            complete,
        }
    }

    /// These worlds, each merged with `context`, a world that shares no
    /// predicate and arity with any of them.
    pub(crate) fn merged_with(&self, context: &World) -> TreeWorlds {
        TreeWorlds {
            traces: self.traces.clone(),
            worlds: self.worlds.iter().map(|w| w.merged(context)).collect(),
            complete: self.complete,
        }
    }

    /// The answer sets (none if the program is unsatisfiable).
    pub fn worlds(&self) -> &[World] {
        &self.worlds
    }

    /// False if world enumeration hit its cap: more worlds may exist, so
    /// constraints cannot be decided on these alone.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// The tree's node traces by production.
    pub(crate) fn node_traces(&self) -> &NodeTraces {
        &self.traces
    }

    /// The traces of the nodes expanding `prod`, root first.
    pub fn traces(&self, prod: ProdId) -> &[Trace] {
        self.traces.get(prod)
    }

    /// Does `world` (one of these worlds) violate the planned constraint
    /// at some node of its target production?
    pub fn violates(&self, world: &World, plan: &CandidatePlan) -> bool {
        self.traces(plan.target())
            .iter()
            .any(|node| plan.holds_at(world, node))
    }

    /// Does the tree's program stay satisfiable once the planned
    /// constraints are added, i.e. does some world violate none of them?
    /// Exact only for [`complete`](TreeWorlds::complete) worlds.
    pub fn admits(&self, plans: &[&CandidatePlan]) -> bool {
        self.worlds
            .iter()
            .any(|world| !plans.iter().any(|plan| self.violates(world, plan)))
    }
}

/// Why a tree's worlds could not be computed.
#[derive(Clone, Debug)]
pub(crate) enum WorldsError {
    /// Grounding `G(C)[PT]` failed.
    Ground(GroundError),
    /// The solver ran out of budget before enumerating every world.
    Solve(Exhausted),
}

impl From<WorldsError> for AsgError {
    /// The error [`Asg::tree_admitted_within`] reports for the same
    /// failure.
    fn from(e: WorldsError) -> AsgError {
        match e {
            WorldsError::Ground(g) => match g.exhausted() {
                Some(kind) => AsgError::Exhausted(kind),
                None => AsgError::Ground(g),
            },
            WorldsError::Solve(kind) => AsgError::Exhausted(kind),
        }
    }
}

impl From<WorldsError> for LearnError {
    fn from(e: WorldsError) -> LearnError {
        match e {
            WorldsError::Ground(g) => LearnError::Ground(g),
            WorldsError::Solve(kind) => LearnError::Exhausted(kind),
        }
    }
}

/// The answer sets of one program, from one ground and one solve.
#[derive(Debug)]
pub(crate) struct Solved {
    /// The worlds, in the solver's order.
    pub(crate) worlds: Vec<World>,
    /// False if enumeration stopped at the world cap.
    pub(crate) complete: bool,
    /// The ground atoms the program needed: what an atom cap counts.
    pub(crate) atoms: usize,
    /// The grounding work.
    pub(crate) stats: GroundStats,
}

/// The worlds of `program` (a tree's `G(C)[PT]`, or one part of it): one
/// `ground_with` and one solve under `budget`'s atom cap, step cap and
/// deadline, enumerating at most `max_worlds` answer sets.
pub(crate) fn solve_program(
    program: &Program,
    max_worlds: usize,
    budget: &RunBudget,
) -> Result<Solved, WorldsError> {
    let options = GroundOptions::default()
        .with_max_atoms(budget.max_atoms)
        .with_deadline(budget.deadline);
    let (ground, stats) = ground_with_stats(program, options).map_err(WorldsError::Ground)?;
    let result = Solver::new()
        .max_models(max_worlds)
        .with_budget(budget)
        .solve(&ground);
    match result.exhausted() {
        Some(kind) => Err(WorldsError::Solve(kind)),
        None => Ok(Solved {
            complete: result.complete(),
            worlds: worlds_of(result),
            atoms: ground.atoms().len(),
            stats,
        }),
    }
}

/// A solve's answer sets as worlds, in order.
fn worlds_of(result: SolveResult) -> Vec<World> {
    result
        .into_models()
        .into_iter()
        .map(|m| World::from_atoms(m.into_atoms()))
        .collect()
}

/// Options for example compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Maximum parse trees per example.
    pub max_trees: usize,
    /// Maximum answer sets enumerated per tree (worlds).
    pub max_worlds: usize,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            max_trees: 16,
            max_worlds: 64,
        }
    }
}

impl CompileOptions {
    /// Sets the maximum parse trees per example.
    pub fn with_max_trees(mut self, max_trees: usize) -> CompileOptions {
        self.max_trees = max_trees;
        self
    }

    /// Sets the maximum answer sets enumerated per tree.
    pub fn with_max_worlds(mut self, max_worlds: usize) -> CompileOptions {
        self.max_worlds = max_worlds;
        self
    }
}

/// The parse trees of an example's text, at most `max_trees`.
pub(crate) fn parse_example(grammar: &Asg, text: &str, max_trees: usize) -> Vec<ParseTree> {
    EarleyParser::new(grammar.cfg()).parse_with(
        &agenp_grammar::Cfg::tokenize(text),
        ParseOptions { max_trees },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_asp::Term;

    fn world(atoms: &[&str]) -> World {
        World::from_atoms(atoms.iter().map(|s| s.parse().unwrap()).collect())
    }

    fn plan(rule: &str) -> CandidatePlan {
        CandidatePlan::new(ProdId::from_index(0), &rule.parse().unwrap()).unwrap()
    }

    fn holds(rule: &str, w: &World) -> bool {
        plan(rule).holds_at(w, &Trace::root())
    }

    #[test]
    fn plans_match_conjunctions() {
        let w = world(&["p(1)", "p(2)", "q(2)"]);
        assert!(holds(":- p(X), q(X).", &w));
        assert!(!holds(":- p(X), q(X), X < 2.", &w));
        assert!(holds(":- p(X), not q(X).", &w)); // p(1) with no q(1)
        assert!(!holds(":- p(X), X > 2.", &w));
        assert!(holds(":- p(X), p(Y), X < Y.", &w));
        assert!(!holds(":- r(X).", &w));
    }

    #[test]
    fn plans_respect_traces() {
        let w = world(&["size(2)@1", "size(3)@2"]);
        let r = ":- size(X)@1, size(X)@2.";
        assert!(!holds(r, &w));
        let w2 = world(&["size(2)@1", "size(2)@2"]);
        assert!(holds(r, &w2));
        // Instantiated at node 1, `size(X)@2` means `size(X)@1_2` and an
        // unannotated atom means the node's own.
        // (The parser reads one-level traces only.)
        let deep = Atom::new("size", vec![Term::Int(2)]).with_trace(Trace::from_indices([1, 2]));
        let mut atoms: Vec<Atom> = ["size(2)@1", "ok@1"].map(|a| a.parse().unwrap()).into();
        atoms.push(deep);
        let w3 = World::from_atoms(atoms);
        let p = plan(":- size(X), size(X)@2, ok.");
        assert!(p.holds_at(&w3, &Trace::from_indices([1])));
        assert!(!p.holds_at(&w3, &Trace::root()));
        assert!(!p.holds_at(&w3, &Trace::from_indices([2])));
        assert!(plan(":- not ok.").holds_at(&w3, &Trace::root()));
        assert!(!plan(":- not ok.").holds_at(&w3, &Trace::from_indices([1])));
    }

    #[test]
    fn plans_evaluate_binders() {
        let w = world(&["n(3)", "m(4)"]);
        assert!(holds(":- n(X), Y = X + 1, m(Y).", &w));
        assert!(!holds(":- n(X), Y = X + 2, m(Y).", &w));
        assert!(holds(":- n(X), X + 1 = Y, m(Y).", &w));
        assert!(!holds(":- n(X), X + 2 = Y, m(Y).", &w));
    }

    #[test]
    fn right_hand_binders_bind() {
        // `expr = V` binds V as `V = expr` does, the grounder's rule: the
        // engine finds `n(3).` plus either constraint unsatisfiable.
        let w = world(&["n(3)"]);
        assert!(holds(":- n(X), X + 1 = Y, Y > 3.", &w));
        assert!(holds(":- n(X), Y = X + 1, Y > 3.", &w));
        assert!(!holds(":- n(X), X + 1 = Y, Y > 4.", &w));
        for rule in [":- n(X), X + 1 = Y, Y > 3.", ":- n(X), Y = X + 1, Y > 3."] {
            let p: agenp_asp::Program = format!("n(3). {rule}").parse().unwrap();
            assert!(!Solver::new().solve_program(&p).unwrap().satisfiable());
        }
    }

    #[test]
    fn plans_decide_negation_and_arithmetic_as_the_engine() {
        let facts = ["n(3)", "n(a)", "m(4)", "f(g(1))", "k(2)@1"];
        let w = world(&facts);
        let cases = [
            // n(3) meets m(4); `a + 1` fails, which drops that instance.
            (":- n(X), not m(X + 1).", false),
            (":- n(X), not m(X + 2).", true),
            (":- n(3), not m(4).", false),
            (":- f(g(X)), X < 2.", true),
            (":- f(g(X)), not f(g(X)).", false),
            (":- f(g(X)), Y = g(X), f(Y).", true),
            (":- k(X)@1, not n(X + 1).", false),
            // Arithmetic never matches a world term structurally.
            (":- n(X), m(X + 1).", false),
        ];
        for (rule, expected) in cases {
            assert_eq!(holds(rule, &w), expected, "{rule}");
            let program: agenp_asp::Program =
                format!("{}. {rule}", facts.join(". ")).parse().unwrap();
            let sat = Solver::new().solve_program(&program).unwrap().satisfiable();
            assert_eq!(sat, !expected, "engine on {rule}");
        }
    }

    #[test]
    fn non_constraints_and_unsafe_bodies_have_no_plan() {
        let pid = ProdId::from_index(0);
        assert!(CandidatePlan::new(pid, &"ok :- p.".parse().unwrap()).is_none());
        assert!(CandidatePlan::new(pid, &":- p(X), Y > X.".parse().unwrap()).is_none());
    }

    #[test]
    fn world_contains_uses_full_atom() {
        let w = world(&["p(1)"]);
        assert!(w.contains(&"p(1)".parse().unwrap()));
        assert!(!w.contains(&"p(2)".parse().unwrap()));
        assert!(
            !w.contains(&Atom::new("p", vec![Term::Int(1)]).with_trace(Trace::from_indices([1])))
        );
    }
}
