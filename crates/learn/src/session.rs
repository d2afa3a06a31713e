//! The learner's core: a session that owns a task's grammar, hypothesis
//! space and options, and takes examples as they arrive.
//!
//! * Each distinct example (same text, context and label) is compiled and
//!   its coverage computed once, on the first [`LearningSession::solve`]
//!   after it arrives. Repeats share that coverage; the search still sees
//!   every observation, so costs and `sacrificed` indices are those of the
//!   full example list.
//! * The session's world cache is the only code in the learner that
//!   computes the worlds of a (parse tree, context) pair, for examples and
//!   for the trees a generator asks about
//!   ([`LearningSession::worlds_within`]) alike. It builds a pair from two
//!   parts, each computed once per session: the tree's own program
//!   `G[PT]`, ground and solved, and the context at the tree's node
//!   traces, which is its own one world if it is ground facts alone and is
//!   ground and solved otherwise; a pair whose parts could interact is
//!   ground and solved whole, as one program `G(C)[PT]`.
//! * On the monotone path a session keeps, per distinct example, only the
//!   [`Example`] and the kill set of each of its worlds (one candidate
//!   bitset per world), computed from the cache's worlds by one walk of
//!   the space's [`PlanTrie`] per world. The generic path keeps, per parse
//!   tree, its node traces and its `G(C)[PT]` saturated in an
//!   [`IncrementalGrounder`] that hypotheses are grounded on as deltas;
//!   its world counts and world-cap check come from the cache too. The
//!   meta encoding ([`Learner::learn_meta`](crate::Learner::learn_meta))
//!   encodes the monotone path's kill sets.
//! * [`LearningSession::solve`] reuses the previous optimum without
//!   searching when that is provably safe: the previous search ran to the
//!   end, the options have not changed since, and the previous hypothesis
//!   satisfies every example added since (soft ones included). New examples
//!   can only raise every other hypothesis's score, so the previous optimum
//!   is still optimal, and a proven [`LearnError::Unsatisfiable`] stays
//!   unsatisfiable. A reused optimum may differ from the one a fresh search
//!   would pick among hypotheses of equal cost.
//!
//! [`IncrementalGrounder`]: agenp_asp::IncrementalGrounder

use crate::compile::{
    parse_example, plan_candidates, solve_program, CandidatePlan, PlanTrie, Solved, TreeWorlds,
    World, WorldsError,
};
use crate::example::Example;
use crate::learner::{Hypothesis, LearnError, LearnOptions, LearnStats, LearningTask};
use crate::search::{self, Examples, GroundedTree, Kills, Searched};
use crate::space::HypothesisSpace;
use agenp_asp::{
    Atom, Exhausted, GroundOptions, GroundStats, IncrementalGrounder, Literal, Program, Rule,
    RunBudget, Symbol, Trace,
};
use agenp_grammar::{Asg, AsgError, ParseTree, ProdId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::Instant;

/// An incremental learning session over one grammar and hypothesis space.
///
/// ```
/// use agenp_grammar::{Asg, ProdId};
/// use agenp_learn::{Example, HypothesisSpace, LearnOptions, LearningSession};
///
/// let g: Asg = r#"
///     policy -> "allow" { act(allow). }
///     policy -> "deny"  { act(deny). }
/// "#.parse()?;
/// let space = HypothesisSpace::from_texts(&[(ProdId::from_index(0), ":- alert.")]);
/// let mut session = LearningSession::new(g, space, LearnOptions::default());
/// let alert: agenp_asp::Program = "alert.".parse()?;
/// session.add_negative(Example::in_context("allow", alert.clone()));
/// let (h, stats) = session.solve()?;
/// assert_eq!(h.rules.len(), 1);
/// assert_eq!(stats.examples_compiled, 1);
/// // The learned constraint already satisfies the new example: no search.
/// session.add_positive(Example::in_context("deny", alert));
/// let (_, stats) = session.solve()?;
/// assert!(stats.search_skipped);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LearningSession {
    grammar: Asg,
    space: HypothesisSpace,
    options: LearnOptions,
    /// Why the space is malformed, if it is; found once, at construction.
    invalid: Option<LearnError>,
    /// The space's candidates compiled for world evaluation, one per
    /// candidate; built by the first solve that computes kill sets, or
    /// the first [`LearningSession::candidate_plan`] lookup.
    plans: Vec<Arc<CandidatePlan>>,
    /// `plans` as one trie of shared step prefixes, built with them: what
    /// kill sets are computed by.
    trie: PlanTrie,
    /// `(hash of target and rule, candidate id)`, sorted, built with
    /// `plans`: the candidate a lookup asks for.
    plan_ids: Vec<(u64, u32)>,
    /// Distinct examples with their cached coverage, in arrival order.
    entries: Vec<Entry>,
    /// Entry ids by a hash of their text, context and label, keyed per
    /// session so feedback cannot be crafted to collide.
    index: HashMap<u64, Vec<u32>>,
    hasher: RandomState,
    positives: Vec<Observation>,
    negatives: Vec<Observation>,
    /// Set once an example's world enumeration hit its cap, which makes the
    /// monotone path unsound until everything is recompiled.
    incomplete: bool,
    /// The last search that ran to the end.
    proven: Option<Proven>,
    /// The worlds of every (parse tree, context) pair evaluated so far.
    worlds: WorldCache,
}

/// How many (parse tree, context) pairs a session was asked for, how many
/// of those it computed rather than reused, and the parts and whole
/// programs that took: a pair is built from its two parts, each computed
/// once per session, or else ground and solved whole.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Pairs looked up, for examples and generated trees alike.
    pub lookups: u64,
    /// Lookups that computed the pair's worlds.
    pub computed: u64,
    /// Computed pairs ground and solved whole, as one program `G(C)[PT]`.
    pub whole: u64,
    /// Trees' own programs `G[PT]` ground and solved.
    pub tree_parts: u64,
    /// Contexts instantiated at the node traces of a tree: built directly
    /// for a context of ground facts, ground and solved otherwise.
    pub context_parts: u64,
}

/// A predicate and its arity.
type Signature = (Symbol, usize);

/// The worlds of (parse tree, context) pairs, and the parts they are built
/// from.
///
/// A pair's program `G(C)[PT]` is the union of two parts: the tree's own
/// program `G[PT]`, and the context instantiated at each of the tree's node
/// traces. When the parts share no predicate and arity, no rule of one
/// reads an atom of the other, so (by the splitting-set theorem) each
/// answer set of the union is one answer set of each part put together. A
/// missing pair is then built from the parts, each computed once and kept:
/// every world of the tree part merged with the context part's one world.
/// A context of ground facts alone, without weak constraints, is its own
/// one world at any node traces: the facts at every trace, sorted by
/// [`Atom::ground_cmp`] and deduplicated as a solve's answer set is, so
/// such a context part is built without grounding or solving. Any other
/// part is ground and solved. Grounding interns each part's atoms in the
/// same relative order alone as in the union, and the solver enumerates
/// models in the lexicographic order of their atom ids, so the worlds come
/// in the order one solve of the union finds them. The pair is ground and
/// solved whole instead, as one program, whenever that product could
/// differ from one solve of the union under the lookup's budget: the parts
/// share a signature, either has a weak constraint, the context part has
/// other than exactly one world, either part is incomplete or failed, the
/// product reaches the world cap, the budget has a step cap, or its atom
/// cap is below the default or below the two parts' atoms together.
#[derive(Debug, Default)]
struct WorldCache {
    /// The compile options' world cap: the most worlds a solve enumerates.
    max_worlds: usize,
    contexts: HashMap<Program, usize>,
    /// Per context id: its pairs and its parts.
    by_context: Vec<ContextEntry>,
    entries: Vec<Cached>,
    /// Every tree's own part.
    trees: HashMap<ParseTree, TreePart>,
    stats: WorldStats,
}

/// One context's pairs and parts.
#[derive(Debug)]
struct ContextEntry {
    /// The entry of each tree evaluated under the context.
    pairs: HashMap<ParseTree, usize>,
    /// The signatures of the context's atoms, sorted; `None` if it has
    /// weak constraints.
    signatures: Option<Vec<Signature>>,
    /// True if the context is ground facts alone ([`Rule::is_fact`]), so
    /// each of its parts is its own one world.
    facts: bool,
    /// The context instantiated at a tree's node traces, by those traces.
    parts: HashMap<Vec<Trace>, Solved>,
}

/// A tree's own program `G[PT]`.
#[derive(Debug)]
struct TreePart {
    /// The tree's node traces in [`Asg::tree_program_in`]'s node order,
    /// which key the context part that completes a pair.
    traces: Vec<Trace>,
    /// The signatures of the program's atoms, sorted; `None` if it has
    /// weak constraints.
    signatures: Option<Vec<Signature>>,
    /// Its worlds and ground atoms, once a pair needed them.
    solved: Option<(TreeWorlds, usize)>,
}

impl TreePart {
    fn new(grammar: &Asg, tree: &ParseTree) -> TreePart {
        let mut traces = Vec::new();
        let mut prods = Vec::new();
        tree.visit_nodes(|node, trace| {
            traces.push(trace.clone());
            prods.push(node.prod);
        });
        prods.sort_unstable();
        prods.dedup();
        let signatures = prods
            .iter()
            .map(|&prod| signatures(grammar.annotation(prod)))
            .collect::<Option<Vec<_>>>()
            .map(|each| sorted(each.concat()));
        TreePart {
            traces,
            signatures,
            solved: None,
        }
    }
}

/// The signatures of `program`'s atoms (an instantiation at any trace has
/// the same), sorted; `None` if it has weak constraints.
fn signatures(program: &Program) -> Option<Vec<Signature>> {
    if !program.weak_constraints().is_empty() {
        return None;
    }
    let atoms = program
        .rules()
        .iter()
        .flat_map(|r| r.head.iter().chain(r.body.iter().filter_map(Literal::atom)));
    Some(sorted(atoms.map(Atom::signature).collect()))
}

fn sorted(mut signatures: Vec<Signature>) -> Vec<Signature> {
    signatures.sort_unstable();
    signatures.dedup();
    signatures
}

/// A pair's worlds and the caps they were computed under.
#[derive(Debug)]
struct Cached {
    worlds: TreeWorlds,
    /// Grounding and solving under these caps ran to the end, so they
    /// would under any larger ones, with the same worlds.
    max_atoms: usize,
    max_steps: u64,
}

/// The grounding and solving one lookup did.
#[derive(Debug, Default)]
struct Work {
    ground: GroundStats,
    solves: u64,
}

impl Work {
    fn add(&mut self, solved: &Solved) {
        self.ground.absorb(solved.stats);
        self.solves += 1;
    }
}

impl WorldCache {
    /// An empty cache whose solves enumerate at most `max_worlds` worlds.
    fn new(max_worlds: usize) -> WorldCache {
        WorldCache {
            max_worlds,
            ..WorldCache::default()
        }
    }

    /// The worlds of `tree` under `context`: cached ones if they were
    /// computed under atom and step caps no larger than `budget`'s,
    /// otherwise computed under `budget`, with the work that took.
    fn get(
        &mut self,
        grammar: &Asg,
        tree: &ParseTree,
        context: &Program,
        budget: &RunBudget,
    ) -> Result<(&TreeWorlds, Work), WorldsError> {
        self.stats.lookups += 1;
        let id = match self.contexts.get(context) {
            Some(&id) => id,
            None => {
                self.contexts.insert(context.clone(), self.by_context.len());
                self.by_context.push(ContextEntry {
                    pairs: HashMap::new(),
                    signatures: signatures(context),
                    facts: context.weak_constraints().is_empty()
                        && context.rules().iter().all(Rule::is_fact),
                    parts: HashMap::new(),
                });
                self.by_context.len() - 1
            }
        };
        let found = self.by_context[id].pairs.get(tree).copied();
        if let Some(entry) = found {
            let cached = &self.entries[entry];
            if cached.max_atoms <= budget.max_atoms && cached.max_steps <= budget.max_steps {
                return Ok((&self.entries[entry].worlds, Work::default()));
            }
        }
        self.stats.computed += 1;
        let mut work = Work::default();
        let worlds = match self.product(grammar, tree, id, context, budget, &mut work) {
            Some(worlds) => worlds,
            None => {
                self.stats.whole += 1;
                let program = grammar.tree_program_in(tree, context);
                let solved = solve_program(&program, self.max_worlds, budget)?;
                work.add(&solved);
                TreeWorlds::from_worlds(tree, solved.worlds, solved.complete)
            }
        };
        let entry = match found {
            // Grounding needed no more atoms than either cap and solving
            // no more steps, so the same worlds hold under the smaller of
            // each.
            Some(entry) => {
                let old = &mut self.entries[entry];
                old.worlds = worlds;
                old.max_atoms = old.max_atoms.min(budget.max_atoms);
                old.max_steps = old.max_steps.min(budget.max_steps);
                entry
            }
            None => {
                self.entries.push(Cached {
                    worlds,
                    max_atoms: budget.max_atoms,
                    max_steps: budget.max_steps,
                });
                self.by_context[id]
                    .pairs
                    .insert(tree.clone(), self.entries.len() - 1);
                self.entries.len() - 1
            }
        };
        Ok((&self.entries[entry].worlds, work))
    }

    /// The worlds of an example's `tree` under its `context`:
    /// [`WorldCache::get`] under the default budget, with its work counted
    /// into `stats`.
    fn lookup(
        &mut self,
        grammar: &Asg,
        tree: &ParseTree,
        context: &Program,
        stats: &mut LearnStats,
    ) -> Result<&TreeWorlds, WorldsError> {
        let (worlds, work) = self.get(grammar, tree, context, &RunBudget::default())?;
        stats.absorb_ground(work.ground);
        stats.solver_calls += work.solves;
        Ok(worlds)
    }

    /// The worlds of `tree` under context `id` as the product of the two
    /// parts, solving whichever is not kept yet; `None` if the pair must be
    /// solved whole (see [`WorldCache`]).
    fn product(
        &mut self,
        grammar: &Asg,
        tree: &ParseTree,
        id: usize,
        context: &Program,
        budget: &RunBudget,
        work: &mut Work,
    ) -> Option<TreeWorlds> {
        if budget.max_steps != u64::MAX || budget.max_atoms < RunBudget::default().max_atoms {
            return None;
        }
        let max_worlds = self.max_worlds;
        let entry = &mut self.by_context[id];
        let context_signatures = entry.signatures.as_deref()?;
        if !self.trees.contains_key(tree) {
            self.trees
                .insert(tree.clone(), TreePart::new(grammar, tree));
        }
        let part = self.trees.get_mut(tree).expect("inserted above");
        let shared = |sig| context_signatures.binary_search(sig).is_ok();
        if part.signatures.as_deref()?.iter().any(shared) {
            return None;
        }
        if part.solved.is_none() {
            self.stats.tree_parts += 1;
            let solved = solve_program(&grammar.tree_program(tree), max_worlds, budget).ok()?;
            work.add(&solved);
            let worlds = TreeWorlds::from_worlds(tree, solved.worlds, solved.complete);
            part.solved = Some((worlds, solved.atoms));
        }
        let (tree_worlds, tree_atoms) = part.solved.as_ref().expect("solved above");
        if !tree_worlds.complete() || (max_worlds != 0 && tree_worlds.worlds().len() >= max_worlds)
        {
            return None;
        }
        if !entry.parts.contains_key(part.traces.as_slice()) {
            self.stats.context_parts += 1;
            let solved = if entry.facts {
                facts_at(context, &part.traces, budget)?
            } else {
                let mut program = Program::new();
                for trace in &part.traces {
                    program.extend(context.rules().iter().map(|r| r.instantiate_at(trace)));
                }
                let solved = solve_program(&program, max_worlds, budget).ok()?;
                work.add(&solved);
                solved
            };
            entry.parts.insert(part.traces.clone(), solved);
        }
        let context_part = &entry.parts[part.traces.as_slice()];
        match context_part.worlds.as_slice() {
            [world]
                if context_part.complete && tree_atoms + context_part.atoms <= budget.max_atoms =>
            {
                Some(tree_worlds.merged_with(world))
            }
            _ => None,
        }
    }

    /// Forgets every pair and part; later solves enumerate at most
    /// `max_worlds` worlds.
    fn reset(&mut self, max_worlds: usize) {
        *self = WorldCache {
            stats: self.stats,
            ..WorldCache::new(max_worlds)
        };
    }
}

/// The context part of a context of ground facts at `traces`: its one
/// world, every fact at every trace, deduplicated and in the order
/// [`World::from_atoms`] gives a solve's answer set (which is sorted by
/// [`Atom::ground_cmp`]): by signature, then by `ground_cmp`. That is the
/// world one ground and solve of the instantiated facts find, built
/// without grounding or solving. `None`, as that grounding fails, if there
/// is a fact and the deadline has passed.
fn facts_at(context: &Program, traces: &[Trace], budget: &RunBudget) -> Option<Solved> {
    if !context.rules().is_empty() && budget.deadline.expired() {
        return None;
    }
    let heads = context.rules().iter().filter_map(|rule| rule.head.as_ref());
    let mut atoms: Vec<Atom> = traces
        .iter()
        .flat_map(|trace| heads.clone().map(move |head| head.instantiate_at(trace)))
        .collect();
    atoms.sort_by(|a, b| {
        a.signature()
            .cmp(&b.signature())
            .then_with(|| a.ground_cmp(b))
    });
    atoms.dedup();
    Some(Solved {
        atoms: atoms.len(),
        worlds: vec![World::from_atoms(atoms)],
        complete: true,
        stats: GroundStats::default(),
    })
}

/// A distinct example and its cached coverage.
#[derive(Debug)]
struct Entry {
    example: Example,
    positive: bool,
    coverage: Coverage,
}

#[derive(Debug)]
enum Coverage {
    /// Not compiled yet (or its compilation failed and is retried).
    Pending,
    /// Monotone path: the kill set of each world, trees in parse order.
    Worlds(Vec<Kills>),
    /// Generic path: each parse tree grounded for hypothesis evaluation,
    /// and how many worlds the trees have together.
    Grounded {
        trees: Vec<GroundedTree>,
        worlds: usize,
    },
}

/// One observation of an entry, as the search sees it.
#[derive(Clone, Copy, Debug)]
struct Observation {
    entry: u32,
    penalty: Option<u32>,
}

/// A search that ran to the end, and what it proved.
#[derive(Debug)]
struct Proven {
    options: LearnOptions,
    /// Positives and negatives it (or a later reuse) covered.
    positives: usize,
    negatives: usize,
    /// The optimum with its candidate indices; `None` proves the examples
    /// unsatisfiable.
    best: Option<(Hypothesis, Vec<u32>)>,
}

impl LearningSession {
    /// A session with no examples.
    pub fn new(grammar: Asg, space: HypothesisSpace, options: LearnOptions) -> LearningSession {
        let invalid = validate(&grammar, &space);
        LearningSession {
            grammar,
            space,
            options,
            invalid,
            plans: Vec::new(),
            trie: PlanTrie::default(),
            plan_ids: Vec::new(),
            entries: Vec::new(),
            index: HashMap::new(),
            hasher: RandomState::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            incomplete: false,
            proven: None,
            worlds: WorldCache::new(options.compile.max_worlds),
        }
    }

    /// A session with the task's positives, then its negatives.
    pub(crate) fn for_task(task: &LearningTask, options: LearnOptions) -> LearningSession {
        let mut session = LearningSession::new(task.grammar.clone(), task.space.clone(), options);
        for e in &task.positive {
            session.add_positive(e.clone());
        }
        for e in &task.negative {
            session.add_negative(e.clone());
        }
        session
    }

    /// The grammar `G` hypotheses extend.
    pub fn grammar(&self) -> &Asg {
        &self.grammar
    }

    /// Replaces the options. The next solve searches afresh if they differ
    /// from those of the last completed search, and recompiles every
    /// example and forgets every pair's worlds and every part if the
    /// compile options differ.
    pub fn set_options(&mut self, options: LearnOptions) {
        if options.compile != self.options.compile {
            for entry in &mut self.entries {
                entry.coverage = Coverage::Pending;
            }
            self.incomplete = false;
            self.worlds.reset(options.compile.max_worlds);
        }
        self.options = options;
    }

    /// True if every hypothesis the space admits is constraints only.
    pub fn constraints_only(&self) -> bool {
        self.space.constraints_only()
    }

    /// The compiled plan of `rule` on `target` if that pair is a candidate
    /// of the session's space: the plan the searches' kill sets evaluate,
    /// shared, compiled with every candidate's plan on first use. `None`
    /// if the pair is no candidate, or the space is malformed or has a
    /// candidate without a plan (one that is not a safe constraint).
    pub fn candidate_plan(&mut self, target: ProdId, rule: &Rule) -> Option<Arc<CandidatePlan>> {
        if self.invalid.is_some() {
            return None;
        }
        self.compile_plans().ok()?;
        let key = self.hasher.hash_one((target, rule));
        let from = self.plan_ids.partition_point(|&(hash, _)| hash < key);
        let candidates = self.space.candidates();
        self.plan_ids[from..]
            .iter()
            .take_while(|&&(hash, _)| hash == key)
            .map(|&(_, id)| id as usize)
            .find(|&id| candidates[id].target == target && candidates[id].rule == *rule)
            .map(|id| Arc::clone(&self.plans[id]))
    }

    /// Compiles every candidate's plan, unless that is done.
    fn compile_plans(&mut self) -> Result<(), LearnError> {
        if self.plans.len() == self.space.len() {
            return Ok(());
        }
        let candidates = self.space.candidates();
        self.plans = plan_candidates(candidates)?
            .into_iter()
            .map(Arc::new)
            .collect();
        self.trie = PlanTrie::new(self.plans.iter().map(|plan| &**plan));
        self.plan_ids = candidates
            .iter()
            .enumerate()
            .map(|(id, c)| (self.hasher.hash_one((c.target, &c.rule)), id as u32))
            .collect();
        self.plan_ids.sort_unstable();
        Ok(())
    }

    /// The worlds of `tree`, a parse tree of the session's grammar, under
    /// `context`: the answer sets of `G(C)[PT]`, at most the compile
    /// options' `max_worlds` of them, in the order one ground and one solve
    /// of the program under `budget` finds them. The session keeps a pair's
    /// worlds for examples and generated trees alike, and builds a new
    /// pair from parts it keeps where that gives the same worlds (the
    /// tree's own program and the context at its nodes, each solved once),
    /// or else grounds and solves `G(C)[PT]` whole. It reuses a pair only
    /// under a budget whose atom and step caps are at least those it was
    /// computed under, and otherwise computes it again under `budget`.
    ///
    /// # Errors
    ///
    /// What the per-tree step of [`Asg::admitted_trees_within`] reports
    /// under the same budget: [`AsgError::Exhausted`] once the deadline
    /// has passed or grounding or solving runs out of budget,
    /// [`AsgError::Ground`] for other grounding failures. Enumerating every
    /// world can take more solver steps than finding one, so under a step
    /// cap a lookup can run out where that step finds a world. A failed
    /// pair is not kept.
    pub fn worlds_within(
        &mut self,
        tree: &ParseTree,
        context: &Program,
        budget: &RunBudget,
    ) -> Result<&TreeWorlds, AsgError> {
        if budget.deadline.expired() {
            return Err(AsgError::Exhausted(Exhausted::Deadline));
        }
        self.worlds
            .get(&self.grammar, tree, context, budget)
            .map(|(worlds, _)| worlds)
            .map_err(AsgError::from)
    }

    /// Pairs looked up and computed so far (see
    /// [`LearningSession::worlds_within`]).
    pub fn world_stats(&self) -> WorldStats {
        self.worlds.stats
    }

    /// Adds a positive example.
    pub fn add_positive(&mut self, example: Example) {
        let observation = self.observation(example, true);
        self.positives.push(observation);
    }

    /// Adds a negative example.
    pub fn add_negative(&mut self, example: Example) {
        let observation = self.observation(example, false);
        self.negatives.push(observation);
    }

    /// Examples added so far, repeats included.
    pub fn len(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    /// True if no example has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finds a minimal-cost hypothesis for every example added so far,
    /// compiling only the examples that are new since the last call.
    ///
    /// # Errors
    ///
    /// The failure modes of [`Learner::learn`](crate::Learner::learn). An
    /// example that fails to compile stays pending, so every later call
    /// fails on it again.
    pub fn solve(&mut self) -> Result<(Hypothesis, LearnStats), LearnError> {
        let mut span = agenp_obs::span!(
            "learn.run",
            candidates = self.space.len(),
            positives = self.positives.len(),
            negatives = self.negatives.len(),
        );
        let result = self.solve_inner();
        if span.is_live() {
            match &result {
                Ok((hypothesis, stats)) => {
                    span.record("hypothesis_rules", hypothesis.rules.len());
                    span.record("monotone", stats.used_monotone);
                    span.record("search_nodes", stats.search_nodes);
                    span.record("search_skipped", stats.search_skipped);
                    span.record("examples_compiled", stats.examples_compiled);
                    span.record("compile_ns", stats.compile_ns);
                    span.record("coverage_ns", stats.coverage_ns);
                    span.record("search_ns", stats.search_ns);
                    crate::obs::LearnMetrics::publish(stats);
                }
                Err(_) => span.record("error", true),
            }
        }
        result
    }

    fn solve_inner(&mut self) -> Result<(Hypothesis, LearnStats), LearnError> {
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        let mut stats = LearnStats {
            candidates: self.space.len(),
            ..LearnStats::default()
        };
        let started = Instant::now();
        self.compile_pending(&mut stats)?;
        stats.compile_ns = elapsed_ns(started);
        stats.used_monotone = self.monotone();
        stats.worlds = self
            .positives
            .iter()
            .chain(&self.negatives)
            .map(|o| match &self.entries[o.entry as usize].coverage {
                Coverage::Worlds(kills) => kills.len(),
                Coverage::Grounded { worlds, .. } => *worlds,
                Coverage::Pending => unreachable!("compiled above"),
            })
            .sum();
        let started = Instant::now();
        let result = self.search(&mut stats);
        stats.search_ns = elapsed_ns(started);
        result.map(|hypothesis| (hypothesis, stats))
    }

    /// Can the monotone path run on the examples so far?
    fn monotone(&self) -> bool {
        !self.options.force_generic && self.space.constraints_only() && !self.incomplete
    }

    /// Compiles every pending entry, then brings each entry into the form
    /// the current path needs.
    fn compile_pending(&mut self, stats: &mut LearnStats) -> Result<(), LearnError> {
        let worlds_usable = !self.options.force_generic && self.space.constraints_only();
        if worlds_usable && self.plans.len() != self.space.len() {
            let started = Instant::now();
            self.compile_plans()?;
            stats.coverage_ns += elapsed_ns(started);
        }
        for id in 0..self.entries.len() {
            if !matches!(self.entries[id].coverage, Coverage::Pending) {
                continue;
            }
            let kills = if worlds_usable {
                self.example_kills(id, stats)?
            } else {
                None
            };
            self.entries[id].coverage = match kills {
                Some(kills) => Coverage::Worlds(kills),
                None => self.grounded(id, stats)?,
            };
            stats.examples_compiled += 1;
        }
        let monotone = self.monotone();
        for id in 0..self.entries.len() {
            self.entries[id].coverage = match self.entries[id].coverage {
                Coverage::Grounded { .. } if monotone => {
                    let kills = self.example_kills(id, stats)?;
                    Coverage::Worlds(kills.expect("a monotone session's worlds are complete"))
                }
                Coverage::Worlds(_) if !monotone => {
                    stats.examples_compiled += 1;
                    self.grounded(id, stats)?
                }
                _ => continue,
            };
        }
        Ok(())
    }

    /// The kill sets of an entry's worlds, trees in parse order, from the
    /// session's (parse tree, context) worlds. `None`, marking the session
    /// incomplete, if a tree has more worlds than the cap.
    fn example_kills(
        &mut self,
        id: usize,
        stats: &mut LearnStats,
    ) -> Result<Option<Vec<Kills>>, LearnError> {
        let example = &self.entries[id].example;
        let mut kills = Vec::new();
        for tree in parse_example(&self.grammar, &example.text, self.options.compile.max_trees) {
            let worlds = self
                .worlds
                .lookup(&self.grammar, &tree, &example.context, stats)?;
            if !worlds.complete() {
                self.incomplete = true;
                return Ok(None);
            }
            kills.extend(kill_sets(worlds, &self.trie, stats));
        }
        Ok(Some(kills))
    }

    /// The generic path's coverage of an entry: each parse tree's node
    /// traces and its `G(C)[PT]` saturated in an [`IncrementalGrounder`],
    /// with the trees' world count from the session's worlds. Marks the
    /// session incomplete if a tree has more worlds than the cap.
    fn grounded(&mut self, id: usize, stats: &mut LearnStats) -> Result<Coverage, LearnError> {
        let example = &self.entries[id].example;
        let mut trees = Vec::new();
        let mut worlds = 0;
        for tree in parse_example(&self.grammar, &example.text, self.options.compile.max_trees) {
            let tree_worlds = self
                .worlds
                .lookup(&self.grammar, &tree, &example.context, stats)?;
            worlds += tree_worlds.worlds().len();
            self.incomplete |= !tree_worlds.complete();
            let traces = tree_worlds.node_traces().clone();
            let base = self.grammar.tree_program_in(&tree, &example.context);
            let grounder = IncrementalGrounder::new(&base, GroundOptions::default())?;
            stats.absorb_ground(grounder.base_stats());
            trees.push(GroundedTree { traces, grounder });
        }
        Ok(Coverage::Grounded { trees, worlds })
    }

    /// Compiles every pending example for the monotone search and returns
    /// the examples as it sees them: per observation, positives first, the
    /// kill set of each world of its parse trees. `None` if the monotone
    /// search cannot run on them: the options force the generic path, the
    /// space has normal rules (then nothing is compiled), or a tree has
    /// more worlds than the cap.
    ///
    /// # Errors
    ///
    /// The space's validation error, and compile failures.
    pub(crate) fn monotone_examples(
        &mut self,
    ) -> Result<Option<Examples<'_, [Kills]>>, LearnError> {
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        if !self.monotone() {
            return Ok(None);
        }
        self.compile_pending(&mut LearnStats::default())?;
        Ok(self.monotone().then(|| {
            self.examples(|coverage| match coverage {
                Coverage::Worlds(kills) => kills.as_slice(),
                _ => unreachable!("monotone entries hold kill sets"),
            })
        }))
    }

    /// Every observation with its entry's coverage, as `coverage` views it.
    fn examples<'a, C: ?Sized>(
        &'a self,
        coverage: impl Fn(&'a Coverage) -> &'a C,
    ) -> Examples<'a, C> {
        Examples {
            positives: self.positives.len(),
            penalties: self
                .positives
                .iter()
                .chain(&self.negatives)
                .map(|o| o.penalty)
                .collect(),
            coverage: self
                .observed()
                .map(|entry| coverage(&entry.coverage))
                .collect(),
        }
    }

    /// Reuses the last proven outcome if every new example keeps it
    /// optimal; otherwise searches over all examples.
    fn search(&mut self, stats: &mut LearnStats) -> Result<Hypothesis, LearnError> {
        let (positives, negatives) = (self.positives.len(), self.negatives.len());
        if let Some(proven) = &self.proven {
            if proven.options == self.options {
                let holds = match &proven.best {
                    None => true,
                    Some((_, chosen)) => self.satisfies_new(proven, chosen, stats)?,
                };
                if holds {
                    stats.search_skipped = true;
                    let proven = self.proven.as_mut().expect("checked above");
                    proven.positives = positives;
                    proven.negatives = negatives;
                    return match &proven.best {
                        Some((hypothesis, _)) => Ok(hypothesis.clone()),
                        None => Err(LearnError::Unsatisfiable),
                    };
                }
            }
        }
        let candidates = self.space.candidates();
        let Searched { best, cut } = if self.monotone() {
            let examples = self.examples(|coverage| match coverage {
                Coverage::Worlds(kills) => kills.as_slice(),
                _ => unreachable!("monotone entries hold kill sets"),
            });
            search::monotone(
                candidates,
                &self.options,
                &examples,
                &mut stats.search_nodes,
            )
        } else {
            let examples = self.examples(|coverage| match coverage {
                Coverage::Grounded { trees, .. } => trees.as_slice(),
                _ => unreachable!("generic entries hold grounded trees"),
            });
            search::generic(candidates, &self.options, &examples, stats)?
        };
        let complete = cut.is_none();
        let best = best.map(|(cost, chosen, sacrificed)| {
            let hypothesis = Hypothesis {
                rules: chosen
                    .iter()
                    .map(|&ci| {
                        let c = &candidates[ci as usize];
                        (c.target, c.rule.clone())
                    })
                    .collect(),
                cost,
                sacrificed,
            };
            (hypothesis, chosen)
        });
        let result = match &best {
            Some((hypothesis, _)) => Ok(hypothesis.clone()),
            None => Err(cut.unwrap_or(LearnError::Unsatisfiable)),
        };
        self.proven = complete.then_some(Proven {
            options: self.options,
            positives,
            negatives,
            best,
        });
        result
    }

    /// The entry of every observation, positives first.
    fn observed(&self) -> impl Iterator<Item = &Entry> {
        self.positives
            .iter()
            .chain(&self.negatives)
            .map(|o| &self.entries[o.entry as usize])
    }

    /// Does the hypothesis `chosen` satisfy every example added after
    /// `proven` was last brought up to date?
    fn satisfies_new(
        &self,
        proven: &Proven,
        chosen: &[u32],
        stats: &mut LearnStats,
    ) -> Result<bool, LearnError> {
        let candidates = self.space.candidates();
        let chosen_set = Kills::new(candidates.len(), chosen.iter().map(|&c| c as usize));
        let new = self.positives[proven.positives..]
            .iter()
            .chain(&self.negatives[proven.negatives..]);
        for observation in new {
            let entry = &self.entries[observation.entry as usize];
            let accepted = match &entry.coverage {
                Coverage::Worlds(kills) => kills.iter().any(|w| w.disjoint(&chosen_set)),
                Coverage::Grounded { trees, .. } => {
                    let mut accepted = false;
                    for tree in trees {
                        let relevant = search::relevant(tree, candidates, chosen);
                        if search::tree_accepts(tree, candidates, &relevant, stats)? {
                            accepted = true;
                            break;
                        }
                    }
                    accepted
                }
                Coverage::Pending => unreachable!("compiled before searching"),
            };
            if accepted != entry.positive {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// An observation of `example` with this label, creating a pending
    /// entry for a new example.
    fn observation(&mut self, example: Example, positive: bool) -> Observation {
        let penalty = example.penalty;
        let key = self
            .hasher
            .hash_one((&example.text, &example.context, positive));
        let ids = self.index.entry(key).or_default();
        let entries = &mut self.entries;
        let existing = ids.iter().copied().find(|&id| {
            let e = &entries[id as usize];
            e.positive == positive
                && e.example.text == example.text
                && e.example.context == example.context
        });
        let entry = existing.unwrap_or_else(|| {
            let id = entries.len() as u32;
            entries.push(Entry {
                example,
                positive,
                coverage: Coverage::Pending,
            });
            ids.push(id);
            id
        });
        Observation { entry, penalty }
    }
}

/// Rejects unsafe candidates and candidates targeting unknown productions.
fn validate(grammar: &Asg, space: &HypothesisSpace) -> Option<LearnError> {
    space.candidates().iter().find_map(|c| {
        if let Some(v) = c.rule.unsafe_var() {
            Some(LearnError::UnsafeCandidate(format!(
                "{} ({v} unbound)",
                c.rule
            )))
        } else if c.target.index() >= grammar.cfg().production_count() {
            Some(LearnError::BadTarget(c.target.index()))
        } else {
            None
        }
    })
}

/// The kill set of each world of `tree` over the plans of a
/// constraint-only space: one walk of their trie per world. Adds its time
/// to `stats.coverage_ns`.
fn kill_sets(tree: &TreeWorlds, trie: &PlanTrie, stats: &mut LearnStats) -> Vec<Kills> {
    let started = Instant::now();
    let kills = tree
        .worlds()
        .iter()
        .map(|world| tree.kills(world, trie))
        .collect();
    stats.coverage_ns += elapsed_ns(started);
    kills
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
