//! Candidate plans and worlds: a constraint candidate compiled once for
//! evaluation, the trie of shared step prefixes a set of plans is
//! evaluated as ([`PlanTrie`], the one plan evaluator: the session's kill
//! sets, generation, screening and refsem all walk it), the answer sets
//! ("worlds") of a parse tree's program `G(C)[PT]` it is evaluated
//! against, and the one helper that grounds and solves a program for its
//! worlds. The learning session's world cache (`session.rs`) is the only
//! caller of that helper.
//!
//! Soundness of the world view: for any program `P` and set of constraints
//! `C`, the stable models of `P ∪ C` are exactly the stable models of `P`
//! that satisfy every constraint in `C`. A tree is therefore admitted by
//! `G(C):H` iff some world of its base program violates no chosen
//! constraint.

use crate::learner::LearnError;
use crate::search::Kills;
use crate::space::Candidate;
use agenp_asp::{
    ground_with_stats, schedule_body, ArithOp, Atom, BodyStep, CmpOp, Exhausted, GroundError,
    GroundOptions, GroundStats, Program, Rule, RunBudget, SolveResult, Solver, Symbol, Term, Trace,
};
use agenp_grammar::{Asg, AsgError, EarleyParser, ParseOptions, ParseTree, ProdId};
use std::borrow::Cow;
use std::ops::Range;

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

/// A constraint candidate compiled once for evaluation against worlds,
/// as a [`PlanTrie`] evaluates it.
///
/// The body is ordered by the grounder's own rules ([`schedule_body`]),
/// its variables are numbered into slots in the order they are bound, and
/// each atom keeps its trace as a suffix: instantiated at parse-tree node
/// `t`, it matches a world atom whose trace equals `t ++ suffix`. Two plans
/// whose bodies schedule to the same steps up to some point, variables
/// renamed, therefore agree step for step up to there.
#[derive(Clone, Debug)]
pub struct CandidatePlan {
    target: ProdId,
    steps: Vec<PlanStep>,
    slots: usize,
}

#[derive(Clone, Debug, PartialEq)]
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

#[derive(Clone, Debug, PartialEq)]
struct PlanAtom {
    pred: Symbol,
    args: Vec<Pattern>,
    /// The atom's own trace, appended to the node's.
    suffix: Trace,
}

/// A term of a plan.
#[derive(Clone, Debug, PartialEq)]
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
}

/// Candidate plans compiled into one trie of shared step prefixes: the one
/// evaluator of constraint candidates against worlds.
///
/// Plans on the same target production share the trie's path for as long
/// as their steps agree (slot numbers and trace suffixes included), and a
/// plan ends at the node its last step leads to; a plan with an empty body
/// ends at its target's root. A world's kill set is one depth-first walk
/// from the target's root per node trace of the target: reaching a node
/// means some binding makes every step on its path hold at that node, so
/// every plan ending there is violated. The walk skips every subtree whose
/// plans are all violated already, at this node or an earlier one.
///
/// The bindings are a fixed slot array: each step's mark is the number of
/// slots bound before it, so a failed match needs no undo — the slots at or
/// past the mark are dead and the next match overwrites them. A walk
/// instantiates no rule and clones no atom. It allocates the kill set, the
/// per-node counts of plans not yet violated, a heap slot array if some
/// plan has more than eight variables, and the compound term a comparison
/// or binder builds from a compound with variables inside.
#[derive(Clone, Debug, Default)]
pub struct PlanTrie {
    /// Each target production with a plan, ascending, and its root node.
    roots: Vec<(ProdId, u32)>,
    /// Breadth-first, roots first, so each node's children are contiguous.
    nodes: Vec<TrieNode>,
    /// The plans ending at each node, by index; [`TrieNode::ends`] ranges
    /// into it.
    ends: Vec<u32>,
    /// Per node, how many plans end in its subtree: what a walk starts
    /// counting down from.
    below: Vec<u32>,
    /// How many plans the trie was built from.
    plans: usize,
    /// The most slots any plan binds.
    slots: usize,
}

#[derive(Clone, Debug)]
struct TrieNode {
    /// The step from the parent; `None` at a root.
    step: Option<PlanStep>,
    /// The parent node; [`NO_PARENT`] at a root.
    parent: u32,
    children: Range<u32>,
    ends: Range<u32>,
}

const NO_PARENT: u32 = u32::MAX;

impl PlanTrie {
    /// The trie of `plans`; plan `i` of the iterator is plan `i` of every
    /// kill set the trie computes.
    pub fn new<'p>(plans: impl IntoIterator<Item = &'p CandidatePlan>) -> PlanTrie {
        /// A node of the trie as it is built, before the layout.
        struct Draft<'p> {
            step: Option<&'p PlanStep>,
            children: Vec<usize>,
            ends: Vec<u32>,
        }
        let draft = |step| Draft {
            step,
            children: Vec::new(),
            ends: Vec::new(),
        };
        let mut drafts: Vec<Draft<'p>> = Vec::new();
        let mut roots: Vec<(ProdId, usize)> = Vec::new();
        let (mut count, mut slots) = (0, 0);
        for (i, plan) in plans.into_iter().enumerate() {
            count = i + 1;
            slots = slots.max(plan.slots);
            let mut at = match roots.iter().find(|(target, _)| *target == plan.target) {
                Some(&(_, root)) => root,
                None => {
                    drafts.push(draft(None));
                    roots.push((plan.target, drafts.len() - 1));
                    drafts.len() - 1
                }
            };
            for step in &plan.steps {
                let shared = drafts[at]
                    .children
                    .iter()
                    .copied()
                    .find(|&child| drafts[child].step == Some(step));
                at = shared.unwrap_or_else(|| {
                    drafts.push(draft(Some(step)));
                    let child = drafts.len() - 1;
                    drafts[at].children.push(child);
                    child
                });
            }
            drafts[at].ends.push(i as u32);
        }
        roots.sort_unstable_by_key(|&(target, _)| target);
        // Breadth-first layout: `order[i]` is node i's draft and parent.
        let mut order: Vec<(usize, u32)> = roots.iter().map(|&(_, d)| (d, NO_PARENT)).collect();
        let (mut nodes, mut ends) = (Vec::with_capacity(drafts.len()), Vec::new());
        while let Some(&(d, parent)) = order.get(nodes.len()) {
            let id = nodes.len() as u32;
            let children = order.len() as u32..(order.len() + drafts[d].children.len()) as u32;
            order.extend(drafts[d].children.iter().map(|&child| (child, id)));
            let first = ends.len() as u32;
            ends.extend_from_slice(&drafts[d].ends);
            nodes.push(TrieNode {
                step: drafts[d].step.cloned(),
                parent,
                children,
                ends: first..ends.len() as u32,
            });
        }
        let mut below: Vec<u32> = nodes.iter().map(|n| n.ends.len() as u32).collect();
        for id in (0..nodes.len()).rev() {
            if nodes[id].parent != NO_PARENT {
                below[nodes[id].parent as usize] += below[id];
            }
        }
        PlanTrie {
            roots: roots
                .iter()
                .enumerate()
                .map(|(id, &(target, _))| (target, id as u32))
                .collect(),
            nodes,
            ends,
            below,
            plans: count,
            slots,
        }
    }

    /// The plans `world` violates at some node of their target production,
    /// each target's nodes being `traces`.
    pub(crate) fn kills(&self, traces: &NodeTraces, world: &World) -> Kills {
        let mut walk = Walk {
            trie: self,
            world,
            node: &[],
            kills: Kills::new(self.plans, []),
            alive: self.below.clone(),
        };
        if self.slots <= INLINE_SLOTS {
            let mut slots: [Cow<'_, Term>; INLINE_SLOTS] =
                std::array::from_fn(|_| Cow::Owned(Term::Int(0)));
            walk.roots(traces, &mut slots);
        } else {
            let mut slots = vec![Cow::Owned(Term::Int(0)); self.slots];
            walk.roots(traces, &mut slots);
        }
        walk.kills
    }
}

/// One world's walk of a [`PlanTrie`].
struct Walk<'a> {
    trie: &'a PlanTrie,
    world: &'a World,
    /// The trace of the parse-tree node the walk is at.
    node: &'a [u16],
    kills: Kills,
    /// Per trie node, how many plans ending in its subtree are not yet
    /// violated.
    alive: Vec<u32>,
}

impl<'a> Walk<'a> {
    /// Walks each target's plans from its root at each of its nodes.
    fn roots(&mut self, traces: &'a NodeTraces, slots: &mut [Cow<'a, Term>]) {
        for &(target, root) in &self.trie.roots {
            for node in traces.get(target) {
                if self.alive[root as usize] == 0 {
                    break;
                }
                self.node = node.indices();
                self.visit(root as usize, slots);
            }
        }
    }

    /// Some binding, the one in `slots`, makes every step from the root to
    /// trie node `at` hold: violates the plans ending there and walks on
    /// into the children with plans not yet violated.
    fn visit(&mut self, at: usize, slots: &mut [Cow<'a, Term>]) {
        let trie = self.trie;
        let node = &trie.nodes[at];
        let ends = &trie.ends[node.ends.start as usize..node.ends.end as usize];
        let violated = ends
            .iter()
            .filter(|&&plan| self.kills.insert(plan as usize))
            .count() as u32;
        if violated > 0 {
            let mut up = at as u32;
            while up != NO_PARENT {
                self.alive[up as usize] -= violated;
                up = trie.nodes[up as usize].parent;
            }
        }
        for child in node.children.clone() {
            let child = child as usize;
            if self.alive[at] == 0 {
                return;
            }
            if self.alive[child] == 0 {
                continue;
            }
            let step = trie.nodes[child].step.as_ref();
            match step.expect("only roots have no step") {
                PlanStep::Join(atom) => {
                    for w in self.world.with_signature(atom.pred, atom.args.len()) {
                        if atom.bind(w, self.node, slots) {
                            self.visit(child, slots);
                            if self.alive[child] == 0 {
                                break;
                            }
                        }
                    }
                }
                PlanStep::Filter(op, a, b) => {
                    let holds = match (a.eval(slots), b.eval(slots)) {
                        (Some(a), Some(b)) => op.eval(&a, &b),
                        _ => false,
                    };
                    if holds {
                        self.visit(child, slots);
                    }
                }
                PlanStep::Bind(slot, expr) => {
                    if let Some(value) = expr.eval(slots) {
                        slots[*slot] = value;
                        self.visit(child, slots);
                    }
                }
                PlanStep::Naf(atom) => {
                    // A negation whose arithmetic fails does not hold, as
                    // the grounder drops that instance.
                    let holds = atom.args.iter().all(|p| p.evaluates(slots))
                        && !self
                            .world
                            .with_signature(atom.pred, atom.args.len())
                            .iter()
                            .any(|w| atom.equals(w, self.node, slots));
                    if holds {
                        self.visit(child, slots);
                    }
                }
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

    /// The kill set of `world` (one of these worlds) over `plans`: the
    /// plans, by index, that hold at some node of their target production.
    pub fn kills(&self, world: &World, plans: &PlanTrie) -> Kills {
        plans.kills(&self.traces, world)
    }

    /// Does the tree's program stay satisfiable once the first `n` plans'
    /// constraints are added, i.e. does some world violate none of them?
    /// Exact only for [`complete`](TreeWorlds::complete) worlds.
    pub fn admits(&self, plans: &PlanTrie, n: usize) -> bool {
        self.worlds.iter().any(|world| {
            self.kills(world, plans)
                .iter()
                .all(|plan| plan as usize >= n)
        })
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

    fn pid(i: usize) -> ProdId {
        ProdId::from_index(i)
    }

    fn plan(rule: &str) -> CandidatePlan {
        CandidatePlan::new(pid(0), &rule.parse().unwrap()).unwrap()
    }

    /// Does the plan of `rule`, on production 0, hold at `node` of `w`? A
    /// walk of the trie of that plan alone, at that one node.
    fn holds_at(rule: &str, w: &World, node: Trace) -> bool {
        let nodes = NodeTraces(vec![(pid(0), vec![node])]);
        PlanTrie::new([&plan(rule)]).kills(&nodes, w).contains(0)
    }

    fn holds(rule: &str, w: &World) -> bool {
        holds_at(rule, w, Trace::root())
    }

    /// The kill set of `w` over one trie of `rules` (each on its
    /// production) at `nodes`, checked against the engine: candidate `i`
    /// is in it iff `w`'s atoms as facts, plus rule `i` instantiated at
    /// each node of its production, have no answer set. Also checks that
    /// every candidate's verdict is the one a trie of it alone gives.
    fn kills_as_the_engine(rules: &[(usize, Rule)], w: &World, nodes: &NodeTraces) -> Vec<bool> {
        let plans: Vec<CandidatePlan> = rules
            .iter()
            .map(|(target, rule)| CandidatePlan::new(pid(*target), rule).unwrap())
            .collect();
        let kills = PlanTrie::new(&plans).kills(nodes, w);
        let mut facts = Program::new();
        for atom in w.atoms() {
            facts.push(Rule::fact(atom.clone()));
        }
        rules
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(i, ((target, rule), plan))| {
                let mut program = facts.clone();
                for node in nodes.get(pid(*target)) {
                    program.push(rule.instantiate_at(node));
                }
                let sat = Solver::new().solve_program(&program).unwrap().satisfiable();
                assert_eq!(
                    kills.contains(i),
                    !sat,
                    "{rule} on {target} against the engine"
                );
                let alone = PlanTrie::new([plan]).kills(nodes, w).contains(0);
                assert_eq!(kills.contains(i), alone, "{rule} on {target} alone");
                kills.contains(i)
            })
            .collect()
    }

    fn rules(texts: &[(usize, &str)]) -> Vec<(usize, Rule)> {
        texts
            .iter()
            .map(|(target, text)| (*target, text.parse().unwrap()))
            .collect()
    }

    /// Production 0's nodes: the root alone.
    fn at_root() -> NodeTraces {
        NodeTraces(vec![(pid(0), vec![Trace::root()])])
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
        let p = ":- size(X), size(X)@2, ok.";
        assert!(holds_at(p, &w3, Trace::from_indices([1])));
        assert!(!holds_at(p, &w3, Trace::root()));
        assert!(!holds_at(p, &w3, Trace::from_indices([2])));
        assert!(holds_at(":- not ok.", &w3, Trace::root()));
        assert!(!holds_at(":- not ok.", &w3, Trace::from_indices([1])));
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
        // The same cases in one trie, sharing their first joins.
        let all: Vec<(usize, &str)> = cases.iter().map(|&(rule, _)| (0, rule)).collect();
        let together = kills_as_the_engine(&rules(&all), &w, &at_root());
        let expected: Vec<bool> = cases.iter().map(|&(_, e)| e).collect();
        assert_eq!(together, expected);
    }

    #[test]
    fn a_plan_that_is_a_prefix_of_another_keeps_both() {
        // `p(X)` ends the first plan and starts the second: the walk
        // violates the first at p(1) and must still try p(2) for the
        // second, whatever the order of the plans or of the atoms.
        let texts = [(0, ":- p(X)."), (0, ":- p(X), q(X).")];
        let reversed = [(0, ":- p(X), q(X)."), (0, ":- p(X).")];
        for atoms in [["p(1)", "p(2)", "q(2)"], ["q(2)", "p(2)", "p(1)"]] {
            let w = world(&atoms);
            assert_eq!(
                kills_as_the_engine(&rules(&texts), &w, &at_root()),
                [true, true]
            );
            assert_eq!(
                kills_as_the_engine(&rules(&reversed), &w, &at_root()),
                [true, true]
            );
        }
        let w = world(&["p(1)", "q(2)"]);
        assert_eq!(
            kills_as_the_engine(&rules(&texts), &w, &at_root()),
            [true, false]
        );
        let plans: Vec<CandidatePlan> = texts.iter().map(|(_, r)| plan(r)).collect();
        assert_eq!(PlanTrie::new(&plans).nodes.len(), 3, "root, p(X), q(X)");
    }

    #[test]
    fn candidates_with_the_same_target_and_rule_share_a_node() {
        let texts = [
            (0, ":- p(X), q(X)."),
            (0, ":- p(X), q(X)."),
            // The same steps under other variable names.
            (0, ":- p(Y), q(Y)."),
            // The same rule on another production.
            (1, ":- p(X), q(X)."),
        ];
        let nodes = NodeTraces(vec![(pid(0), vec![Trace::root()])]);
        let w = world(&["p(2)", "q(2)"]);
        assert_eq!(
            kills_as_the_engine(&rules(&texts), &w, &nodes),
            [true, true, true, false]
        );
        let w = world(&["p(1)", "q(2)"]);
        assert_eq!(kills_as_the_engine(&rules(&texts), &w, &nodes), [false; 4]);
        let plans: Vec<CandidatePlan> = rules(&texts)
            .iter()
            .map(|(t, r)| CandidatePlan::new(pid(*t), r).unwrap())
            .collect();
        let trie = PlanTrie::new(&plans);
        assert_eq!(trie.nodes.len(), 6, "two roots, each with p(X) and q(X)");
        assert_eq!(trie.plans, 4);
    }

    #[test]
    fn an_empty_body_holds_at_every_node_of_its_target() {
        let empty = Rule::constraint(Vec::new());
        let candidates = vec![
            (0, empty.clone()),
            (0, ":- p(X).".parse().unwrap()),
            (1, empty.clone()),
            (2, empty),
        ];
        // Production 0 has two nodes, production 1 none, production 2 one.
        let nodes = NodeTraces(vec![
            (pid(0), vec![Trace::root(), Trace::from_indices([1])]),
            (pid(2), vec![Trace::from_indices([2])]),
        ]);
        assert_eq!(
            kills_as_the_engine(&candidates, &world(&[]), &nodes),
            [true, false, false, true]
        );
        assert_eq!(
            kills_as_the_engine(&candidates, &world(&["p(1)@1"]), &nodes),
            [true, true, false, true]
        );
    }

    #[test]
    fn a_target_with_no_node_in_the_tree_is_never_violated() {
        let candidates = rules(&[(0, ":- p(X)."), (1, ":- p(X)."), (1, ":- not q.")]);
        let w = world(&["p(1)"]);
        assert_eq!(
            kills_as_the_engine(&candidates, &w, &at_root()),
            [true, false, false]
        );
        let none = NodeTraces(Vec::new());
        assert_eq!(kills_as_the_engine(&candidates, &w, &none), [false; 3]);
    }

    #[test]
    fn plans_of_more_than_eight_variables_bind_heap_slots() {
        let chain = ":- p(A), p(B), p(C), p(D), p(E), p(F), p(G), p(H), p(I), \
                     A < B, B < C, C < D, D < E, E < F, F < G, G < H, H < I.";
        // The short plan is the long one's first three steps.
        let texts = [(0, ":- p(A), p(B), A < B."), (0, chain)];
        let plans: Vec<CandidatePlan> = texts.iter().map(|(_, r)| plan(r)).collect();
        let trie = PlanTrie::new(&plans);
        assert!(trie.slots > INLINE_SLOTS);
        assert_eq!(trie.nodes.len(), 1 + 17, "the chain's 17 steps, 3 shared");
        let nine: Vec<String> = (1..=9).map(|i| format!("p({i})")).collect();
        let nine: Vec<&str> = nine.iter().map(String::as_str).collect();
        assert_eq!(
            kills_as_the_engine(&rules(&texts), &world(&nine), &at_root()),
            [true, true]
        );
        assert_eq!(
            kills_as_the_engine(&rules(&texts), &world(&nine[..8]), &at_root()),
            [true, false]
        );
    }

    #[test]
    fn negation_binders_and_comparisons_after_a_shared_join() {
        let texts = [
            (0, ":- p(X), not q(X)."),
            (0, ":- p(X), Y = X + 1, q(Y)."),
            (0, ":- p(X), X > 1."),
            (0, ":- p(X), Y = X + 1, not q(Y)."),
            (0, ":- p(X), X + 1 = Y, Y > 3."),
            (0, ":- p(X), q(X), X < 2."),
            (0, ":- p(X), not q(X + 2)."),
            (0, ":- p(X)@1, not q(X)."),
        ];
        let nodes = NodeTraces(vec![(
            pid(0),
            vec![Trace::root(), Trace::from_indices([2])],
        )]);
        for atoms in [
            vec!["p(1)", "p(2)", "q(2)", "q(3)"],
            vec!["p(2)", "q(1)", "q(2)", "q(3)", "q(4)"],
            vec!["p(1)", "q(1)", "p(1)@2", "p(3)@2_1", "q(3)@2"],
            vec!["p(a)", "q(2)"],
        ] {
            let atoms: Vec<Atom> = atoms
                .iter()
                .map(|a| match a.split_once("@2_1") {
                    Some((a, _)) => a
                        .parse::<Atom>()
                        .unwrap()
                        .with_trace(Trace::from_indices([2, 1])),
                    None => a.parse().unwrap(),
                })
                .collect();
            kills_as_the_engine(&rules(&texts), &World::from_atoms(atoms), &nodes);
        }
        let plans: Vec<CandidatePlan> = texts[..7].iter().map(|(_, r)| plan(r)).collect();
        let shared = PlanTrie::new(&plans).nodes[0].children.len();
        assert_eq!(shared, 1, "the first seven share their join p(X)");
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
