//! Stable-model (answer set) computation for ground normal programs with
//! constraints.
//!
//! Two evaluation paths:
//!
//! * **Stratified fast path** — if no cycle through negation exists, the
//!   program has at most one answer set (its perfect model), computed
//!   stratum by stratum in linear-ish time. A program of facts alone is
//!   answered with its heads, without building the dependency graph.
//! * **DPLL search** — otherwise the Clark completion (with one auxiliary
//!   variable per rule body) is searched with unit propagation and
//!   chronological backtracking; every total model is verified against the
//!   Gelfond–Lifschitz reduct unless the program is *tight* (positive
//!   dependency graph acyclic), in which case completion models are exactly
//!   the answer sets (Fages' theorem).

use crate::atom::Atom;
use crate::budget::{Deadline, Exhausted, RunBudget};
use crate::ground::{AtomId, GroundProgram, GroundRule};
use std::collections::HashSet;
use std::fmt;

/// One answer set: a set of ground atoms, sorted for deterministic display.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnswerSet {
    atoms: Vec<Atom>,
}

impl AnswerSet {
    fn from_ids(ids: &[AtomId], program: &GroundProgram) -> AnswerSet {
        let mut atoms: Vec<Atom> = ids
            .iter()
            .map(|&id| program.atoms().resolve(id).clone())
            .collect();
        // Structural order: no per-comparison String allocation, and it
        // backs the binary search in `contains`.
        atoms.sort_by(|a, b| a.ground_cmp(b));
        AnswerSet { atoms }
    }

    /// The atoms of the answer set, sorted by [`Atom::ground_cmp`]
    /// (predicate name, arity, arguments, trace).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// True if the answer set contains `atom` (binary search over the
    /// sorted atoms).
    pub fn contains(&self, atom: &Atom) -> bool {
        self.atoms.binary_search_by(|a| a.ground_cmp(atom)).is_ok()
    }

    /// Atoms with the given predicate name.
    pub fn with_predicate<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a Atom> {
        self.atoms
            .iter()
            .filter(move |a| a.pred.with_name(|n| n == pred))
    }

    /// Consumes the answer set, returning its atoms in the same order.
    pub fn into_atoms(self) -> Vec<Atom> {
        self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

impl fmt::Display for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

/// Counters describing a solve run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Decisions made by the DPLL search.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered (including failed stability checks).
    pub conflicts: u64,
    /// Gelfond–Lifschitz stability verifications performed.
    pub stability_checks: u64,
    /// True if the stratified fast path was used.
    pub used_stratified: bool,
    /// True if the program was detected to be tight.
    pub tight: bool,
}

/// The outcome of a solve: zero or more answer sets plus statistics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    models: Vec<AnswerSet>,
    complete: bool,
    exhausted: Option<Exhausted>,
    stats: SolveStats,
}

impl SolveResult {
    /// The answer sets found.
    pub fn models(&self) -> &[AnswerSet] {
        &self.models
    }

    /// True if the search space was exhausted (so `models()` is *all* answer
    /// sets, subject to the `max_models` cap).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Which resource budget cut the search short, if any. `None` for
    /// complete results and for searches stopped by `max_models`.
    pub fn exhausted(&self) -> Option<Exhausted> {
        self.exhausted
    }

    /// True if at least one answer set was found.
    pub fn satisfiable(&self) -> bool {
        !self.models.is_empty()
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Consumes the result, returning the models.
    pub fn into_models(self) -> Vec<AnswerSet> {
        self.models
    }
}

/// Configurable answer-set solver.
///
/// A `Solver` is a small `Copy` configuration value with no interior state:
/// every `solve*` call takes `&self` and allocates its working set locally.
/// It is therefore `Send + Sync` and can live inside a shared, immutable
/// decision snapshot queried from many threads at once (the serving tier's
/// requirement; see `docs/SERVING.md`), or be cheaply copied per worker.
///
/// ```
/// use agenp_asp::{Program, Solver};
/// let p: Program = "p :- not q. q :- not p.".parse()?;
/// let result = Solver::new().solve_program(&p)?;
/// assert_eq!(result.models().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    max_models: usize,
    max_steps: u64,
    deadline: Deadline,
    force_search: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver {
            max_models: 0,
            max_steps: u64::MAX,
            deadline: Deadline::none(),
            force_search: false,
        }
    }
}

impl Solver {
    /// A solver that enumerates all answer sets with no step budget.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Stop after `n` models (0 = enumerate all).
    pub fn max_models(mut self, n: usize) -> Solver {
        self.max_models = n;
        self
    }

    /// Abort the search after `n` decisions+conflicts, returning an
    /// incomplete result.
    pub fn max_steps(mut self, n: u64) -> Solver {
        self.max_steps = n;
        self
    }

    /// Abort the search once `deadline` passes, returning an incomplete
    /// result. The stratified fast path is not interrupted: it runs in
    /// (near-)linear time and finishes regardless.
    pub fn deadline(mut self, deadline: Deadline) -> Solver {
        self.deadline = deadline;
        self
    }

    /// Applies the solver-relevant bounds of a [`RunBudget`] (`max_steps`
    /// and `deadline`).
    pub fn with_budget(self, budget: &RunBudget) -> Solver {
        self.max_steps(budget.max_steps).deadline(budget.deadline)
    }

    /// Disable the stratified fast path (used by the ablation benches).
    pub fn force_search(mut self, yes: bool) -> Solver {
        self.force_search = yes;
        self
    }

    /// Grounds and solves a non-ground program.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures (unsafe rules, budget).
    pub fn solve_program(
        &self,
        program: &crate::program::Program,
    ) -> Result<SolveResult, crate::ground::GroundError> {
        Ok(self.solve(&crate::ground::ground(program)?))
    }

    /// Solves a ground program.
    pub fn solve(&self, program: &GroundProgram) -> SolveResult {
        let mut span = agenp_obs::span!(
            "asp.solve",
            atoms = program.atoms().len(),
            rules = program.rules().len(),
        );
        let result = self.solve_inner(program);
        if span.is_live() {
            span.record("models", result.models.len());
            span.record("decisions", result.stats.decisions);
            span.record("conflicts", result.stats.conflicts);
            span.record("stratified", result.stats.used_stratified);
            crate::obs::SolveMetrics::publish(&result.stats);
        }
        result
    }

    fn solve_inner(&self, program: &GroundProgram) -> SolveResult {
        let mut stats = SolveStats::default();
        if program.proven_inconsistent() {
            return SolveResult {
                models: Vec::new(),
                complete: true,
                exhausted: None,
                stats,
            };
        }
        if !self.force_search
            && program.weak_constraints().is_empty()
            && program.rules().iter().all(GroundRule::is_fact)
        {
            // Facts alone are stratified and tight, and their perfect model
            // is their heads.
            let mut heads: Vec<AtomId> = program.rules().iter().filter_map(|r| r.head).collect();
            heads.sort_unstable();
            heads.dedup();
            stats.tight = true;
            stats.used_stratified = true;
            return SolveResult {
                models: vec![AnswerSet::from_ids(&heads, program)],
                complete: true,
                exhausted: None,
                stats,
            };
        }
        let n_atoms = program.atoms().len();
        let deps = Dependencies::build(program, n_atoms);
        stats.tight = deps.tight;
        if !self.force_search && deps.stratified {
            stats.used_stratified = true;
            let models = stratified_model(program, &deps)
                .map(|ids| vec![AnswerSet::from_ids(&ids, program)])
                .unwrap_or_default();
            return SolveResult {
                models,
                complete: true,
                exhausted: None,
                stats,
            };
        }
        self.search(program, &deps, stats)
    }

    /// Convenience: is there at least one answer set?
    pub fn has_answer_set(&self, program: &GroundProgram) -> bool {
        Solver {
            max_models: 1,
            ..*self
        }
        .solve(program)
        .satisfiable()
    }

    // --- DPLL over the Clark completion ---------------------------------

    fn search(
        &self,
        program: &GroundProgram,
        deps: &Dependencies,
        mut stats: SolveStats,
    ) -> SolveResult {
        self.search_with(program, deps, &mut stats, None)
    }

    fn search_with(
        &self,
        program: &GroundProgram,
        deps: &Dependencies,
        stats: &mut SolveStats,
        mut bnb: Option<&mut Bnb>,
    ) -> SolveResult {
        let n_atoms = program.atoms().len();
        let n_rules = program.rules().len();
        let n_vars = n_atoms + n_rules;
        let mut cnf = Cnf::new(n_vars);
        let body_var = |r: usize| n_atoms + r;

        for (ri, rule) in program.rules().iter().enumerate() {
            let beta = body_var(ri);
            // β → each body literal
            let mut defn = Vec::with_capacity(rule.pos.len() + rule.neg.len() + 1);
            defn.push(Lit::pos(beta));
            for &p in &rule.pos {
                cnf.add(vec![Lit::neg(beta), Lit::pos(p as usize)]);
                defn.push(Lit::neg(p as usize));
            }
            for &n in &rule.neg {
                cnf.add(vec![Lit::neg(beta), Lit::neg(n as usize)]);
                defn.push(Lit::pos(n as usize));
            }
            // body literals → β
            cnf.add(defn);
            match rule.head {
                Some(h) => cnf.add(vec![Lit::neg(beta), Lit::pos(h as usize)]),
                None => cnf.add(vec![Lit::neg(beta)]),
            }
        }
        // Support: an atom implies one of its rule bodies.
        let mut rules_for_atom: Vec<Vec<usize>> = vec![Vec::new(); n_atoms];
        for (ri, rule) in program.rules().iter().enumerate() {
            if let Some(h) = rule.head {
                rules_for_atom[h as usize].push(ri);
            }
        }
        for (a, rules) in rules_for_atom.iter().enumerate() {
            let mut clause = Vec::with_capacity(rules.len() + 1);
            clause.push(Lit::neg(a));
            for &ri in rules {
                clause.push(Lit::pos(body_var(ri)));
            }
            cnf.add(clause);
        }

        let mut dpll = Dpll::new(cnf, n_atoms);
        let mut models = Vec::new();
        let mut complete = true;
        let mut exhausted = None;
        loop {
            if stats.decisions + stats.conflicts > self.max_steps {
                complete = false;
                exhausted = Some(Exhausted::Steps);
                break;
            }
            if self.deadline.expired() {
                complete = false;
                exhausted = Some(Exhausted::Deadline);
                break;
            }
            let event = match bnb.as_deref_mut() {
                Some(b) => {
                    let mut pruner = |assign: &[u8]| b.prune_assignment(program, assign);
                    dpll.step(stats, self.max_steps, self.deadline, &mut pruner)
                }
                None => dpll.step(stats, self.max_steps, self.deadline, &mut |_| false),
            };
            match event {
                DpllEvent::Model => {
                    let candidate: Vec<AtomId> = (0..n_atoms)
                        .filter(|&a| dpll.value(a) == Some(true))
                        .map(|a| a as AtomId)
                        .collect();
                    let stable = if deps.tight {
                        true
                    } else {
                        stats.stability_checks += 1;
                        is_stable(program, &candidate)
                    };
                    if stable {
                        match bnb.as_deref_mut() {
                            Some(b) => {
                                b.record(program, AnswerSet::from_ids(&candidate, program));
                            }
                            None => {
                                models.push(AnswerSet::from_ids(&candidate, program));
                                if self.max_models != 0 && models.len() >= self.max_models {
                                    // The search stopped early: more models
                                    // may exist.
                                    complete = false;
                                    break;
                                }
                            }
                        }
                    }
                    if !dpll.backtrack_after_model(stats) {
                        break;
                    }
                }
                DpllEvent::Done => break,
                DpllEvent::Interrupted(why) => {
                    complete = false;
                    exhausted = Some(why);
                    break;
                }
            }
        }
        SolveResult {
            models,
            complete,
            exhausted,
            stats: *stats,
        }
    }
}

/// Gelfond–Lifschitz check: is `candidate` (a set of atom ids, assumed to
/// satisfy the completion) the least model of the reduct?
pub fn is_stable(program: &GroundProgram, candidate: &[AtomId]) -> bool {
    let in_m: HashSet<AtomId> = candidate.iter().copied().collect();
    // Least model of the reduct via counter-based forward chaining.
    let n = program.atoms().len();
    let mut derived = vec![false; n];
    let mut counts: Vec<usize> = Vec::with_capacity(program.rules().len());
    let mut watchers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queue: Vec<AtomId> = Vec::new();
    for (ri, rule) in program.rules().iter().enumerate() {
        let Some(h) = rule.head else {
            counts.push(usize::MAX);
            continue;
        };
        if rule.neg.iter().any(|n| in_m.contains(n)) {
            counts.push(usize::MAX); // removed by the reduct
            continue;
        }
        counts.push(rule.pos.len());
        if rule.pos.is_empty() {
            if !derived[h as usize] {
                derived[h as usize] = true;
                queue.push(h);
            }
        } else {
            for &p in &rule.pos {
                watchers[p as usize].push(ri);
            }
        }
    }
    while let Some(a) = queue.pop() {
        for &ri in &watchers[a as usize] {
            if counts[ri] == usize::MAX {
                continue;
            }
            counts[ri] -= 1;
            if counts[ri] == 0 {
                let h = program.rules()[ri]
                    .head
                    .expect("constraints have MAX count");
                if !derived[h as usize] {
                    derived[h as usize] = true;
                    queue.push(h);
                }
            }
        }
        // NOTE: an atom may watch the same rule twice if duplicated; the
        // grounder dedups positive bodies, so each watcher fires once.
    }
    let least: usize = derived.iter().filter(|&&d| d).count();
    least == in_m.len() && candidate.iter().all(|&a| derived[a as usize])
}

// --- Optimization (weak constraints) ---------------------------------------

/// A prioritized cost: per-level penalty totals, compared lexicographically
/// from the highest level down (clingo-style).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CostVector {
    /// `(level, total)` pairs, sorted by level descending; zero totals are
    /// omitted.
    entries: Vec<(i64, i64)>,
}

impl CostVector {
    /// Builds a cost vector from raw `(level, weight)` contributions.
    pub fn from_contributions(contributions: impl IntoIterator<Item = (i64, i64)>) -> CostVector {
        let mut totals: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        for (level, w) in contributions {
            *totals.entry(level).or_insert(0) += w;
        }
        CostVector {
            entries: totals.into_iter().rev().filter(|&(_, t)| t != 0).collect(),
        }
    }

    /// The `(level, total)` entries, highest level first.
    pub fn entries(&self) -> &[(i64, i64)] {
        &self.entries
    }

    /// The total at a level (0 if absent).
    pub fn at_level(&self, level: i64) -> i64 {
        self.entries
            .iter()
            .find(|(l, _)| *l == level)
            .map_or(0, |(_, t)| *t)
    }

    /// True if no penalties were incurred.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }
}

impl PartialOrd for CostVector {
    fn partial_cmp(&self, other: &CostVector) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CostVector {
    fn cmp(&self, other: &CostVector) -> std::cmp::Ordering {
        // Compare level by level, highest first; missing level = 0.
        let mut levels: Vec<i64> = self
            .entries
            .iter()
            .chain(other.entries.iter())
            .map(|(l, _)| *l)
            .collect();
        levels.sort_unstable_by(|a, b| b.cmp(a));
        levels.dedup();
        for l in levels {
            match self.at_level(l).cmp(&other.at_level(l)) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "0");
        }
        for (i, (l, t)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}@{l}")?;
        }
        Ok(())
    }
}

/// The penalty a model incurs under the program's weak constraints.
pub fn model_cost(program: &GroundProgram, model: &AnswerSet) -> CostVector {
    let holds = |id: AtomId| model.contains(program.atoms().resolve(id));
    CostVector::from_contributions(
        program
            .weak_constraints()
            .iter()
            .filter(|w| w.pos.iter().all(|&p| holds(p)) && w.neg.iter().all(|&n| !holds(n)))
            .map(|w| (w.level, w.weight)),
    )
}

/// The outcome of an optimization: the optimal models and their cost.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    optima: Vec<AnswerSet>,
    cost: Option<CostVector>,
    complete: bool,
}

impl OptimizeResult {
    /// The optimal answer sets (all ties).
    pub fn optima(&self) -> &[AnswerSet] {
        &self.optima
    }

    /// The optimal cost, if any model exists.
    pub fn cost(&self) -> Option<&CostVector> {
        self.cost.as_ref()
    }

    /// True if optimality is proven (the model enumeration was exhaustive).
    pub fn proven_optimal(&self) -> bool {
        self.complete
    }
}

impl Solver {
    /// Finds the answer sets minimizing the weak-constraint penalty.
    ///
    /// ```
    /// use agenp_asp::{ground, Program, Solver};
    /// let p: Program = "
    ///     a :- not b.  b :- not a.
    ///     :~ a. [3]
    ///     :~ b. [1]
    /// ".parse()?;
    /// let result = Solver::new().optimize(&ground(&p)?);
    /// assert!(result.optima()[0].contains(&"b".parse()?));
    /// assert_eq!(result.cost().unwrap().at_level(0), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// Stratified programs have at most one answer set, so their optimum is
    /// immediate; otherwise a branch-and-bound DPLL enumeration prunes any
    /// branch whose *already-incurred* penalty reaches the incumbent's cost
    /// (weak-constraint bodies are monotone in the assignment, so the
    /// incurred penalty is a valid lower bound).
    pub fn optimize(&self, program: &GroundProgram) -> OptimizeResult {
        let mut stats = SolveStats::default();
        if program.proven_inconsistent() {
            return OptimizeResult {
                optima: Vec::new(),
                cost: None,
                complete: true,
            };
        }
        let n_atoms = program.atoms().len();
        let deps = Dependencies::build(program, n_atoms);
        if !self.force_search && deps.stratified {
            let result = self.solve(program);
            let best = result.models().first().map(|m| model_cost(program, m));
            return OptimizeResult {
                optima: result.models().to_vec(),
                cost: best,
                complete: result.complete(),
            };
        }
        let mut bnb = Bnb::new(program);
        let result = self.search_with(program, &deps, &mut stats, Some(&mut bnb));
        OptimizeResult {
            optima: bnb.optima,
            cost: bnb.best,
            complete: result.complete(),
        }
    }
}

/// Branch-and-bound state for [`Solver::optimize`].
struct Bnb {
    best: Option<CostVector>,
    optima: Vec<AnswerSet>,
    /// Incurred-cost pruning is only sound when all weights are
    /// non-negative.
    can_prune: bool,
}

impl Bnb {
    fn new(program: &GroundProgram) -> Bnb {
        let can_prune = program.weak_constraints().iter().all(|w| w.weight >= 0);
        Bnb {
            best: None,
            optima: Vec::new(),
            can_prune,
        }
    }

    /// Penalty already incurred by the partial assignment (0 = unassigned,
    /// 1 = true, 2 = false): weak constraints whose positive body is
    /// entirely true and negative body entirely false. Further assignments
    /// can only add penalties (bodies are monotone), so this is a valid
    /// lower bound — assuming non-negative weights; negative weights
    /// disable pruning via [`Bnb::can_prune`].
    fn incurred(program: &GroundProgram, assign: &[u8]) -> CostVector {
        CostVector::from_contributions(
            program
                .weak_constraints()
                .iter()
                .filter(|w| {
                    w.pos.iter().all(|&p| assign[p as usize] == 1)
                        && w.neg.iter().all(|&n| assign[n as usize] == 2)
                })
                .map(|w| (w.level, w.weight)),
        )
    }

    /// Should the current branch be pruned?
    fn prune_assignment(&self, program: &GroundProgram, assign: &[u8]) -> bool {
        match &self.best {
            // NOTE: pruning at `incurred > best` (not >=) keeps all ties.
            Some(best) if self.can_prune => Bnb::incurred(program, assign) > *best,
            _ => false,
        }
    }

    /// Records a total model; returns true if it is at least tied-optimal.
    fn record(&mut self, program: &GroundProgram, model: AnswerSet) {
        let cost = model_cost(program, &model);
        match &self.best {
            None => {
                self.best = Some(cost);
                self.optima = vec![model];
            }
            Some(b) => match cost.cmp(b) {
                std::cmp::Ordering::Less => {
                    self.best = Some(cost);
                    self.optima = vec![model];
                }
                std::cmp::Ordering::Equal => self.optima.push(model),
                std::cmp::Ordering::Greater => {}
            },
        }
    }
}

// --- Dependency analysis --------------------------------------------------

struct Dependencies {
    stratified: bool,
    tight: bool,
    /// SCCs in dependency order (dependencies first), for stratified eval.
    scc_order: Vec<Vec<AtomId>>,
}

impl Dependencies {
    fn build(program: &GroundProgram, n_atoms: usize) -> Dependencies {
        // Edges: head -> body atom (pos and neg separately).
        let mut pos_edges: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
        let mut all_edges: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
        let mut neg_pairs: Vec<(u32, u32)> = Vec::new();
        for rule in program.rules() {
            let Some(h) = rule.head else { continue };
            for &p in &rule.pos {
                pos_edges[h as usize].push(p);
                all_edges[h as usize].push(p);
            }
            for &n in &rule.neg {
                all_edges[h as usize].push(n);
                neg_pairs.push((h, n));
            }
        }
        let scc_all = tarjan(&all_edges, n_atoms);
        // Stratified iff no negative edge stays within one SCC of the full
        // dependency graph.
        let stratified = neg_pairs
            .iter()
            .all(|&(h, b)| scc_all.component[h as usize] != scc_all.component[b as usize]);
        // Tight iff every SCC of the positive graph is trivial and acyclic.
        let scc_pos = tarjan(&pos_edges, n_atoms);
        let mut comp_size = vec![0usize; scc_pos.count];
        for &c in &scc_pos.component {
            comp_size[c] += 1;
        }
        let self_loop = (0..n_atoms).any(|a| pos_edges[a].iter().any(|&b| b as usize == a));
        let tight = !self_loop && comp_size.iter().all(|&s| s <= 1);

        // Group atoms by SCC in emission order (Tarjan emits dependencies
        // first given head -> body edges).
        let mut scc_order: Vec<Vec<AtomId>> = vec![Vec::new(); scc_all.count];
        for a in 0..n_atoms {
            scc_order[scc_all.component[a]].push(a as AtomId);
        }
        Dependencies {
            stratified,
            tight,
            scc_order,
        }
    }
}

struct SccResult {
    component: Vec<usize>,
    count: usize,
}

/// Iterative Tarjan SCC. Components are numbered in emission order, which —
/// with edges pointing from dependent to dependency — lists dependencies
/// before dependents.
fn tarjan(edges: &[Vec<u32>], n: usize) -> SccResult {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut component = vec![UNSEEN; n];
    let mut next_index = 0usize;
    let mut count = 0usize;
    // Explicit DFS stack: (node, edge cursor).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNSEEN {
            continue;
        }
        call.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor < edges[v as usize].len() {
                let w = edges[v as usize][*cursor];
                *cursor += 1;
                if index[w as usize] == UNSEEN {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component[w as usize] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }
    SccResult { component, count }
}

/// Perfect-model evaluation for stratified programs. Returns `None` if a
/// constraint is violated.
fn stratified_model(program: &GroundProgram, deps: &Dependencies) -> Option<Vec<AtomId>> {
    let n = program.atoms().len();
    let mut truth = vec![false; n];
    let mut scc_of = vec![usize::MAX; n];
    for (ci, comp) in deps.scc_order.iter().enumerate() {
        for &a in comp {
            scc_of[a as usize] = ci;
        }
    }
    // Rules grouped by the SCC of their head.
    let mut rules_by_scc: Vec<Vec<&GroundRule>> = vec![Vec::new(); deps.scc_order.len()];
    let mut constraints: Vec<&GroundRule> = Vec::new();
    for rule in program.rules() {
        match rule.head {
            Some(h) => rules_by_scc[scc_of[h as usize]].push(rule),
            None => constraints.push(rule),
        }
    }
    for (ci, _) in deps.scc_order.iter().enumerate() {
        // Fixpoint within the stratum. Negative literals refer to strictly
        // lower SCCs (stratified), so their truth is already final.
        loop {
            let mut changed = false;
            for rule in &rules_by_scc[ci] {
                let h = rule.head.expect("constraints filtered out");
                if truth[h as usize] {
                    continue;
                }
                if rule.pos.iter().all(|&p| truth[p as usize])
                    && rule.neg.iter().all(|&n| !truth[n as usize])
                {
                    truth[h as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    for c in constraints {
        if c.pos.iter().all(|&p| truth[p as usize]) && c.neg.iter().all(|&n| !truth[n as usize]) {
            return None;
        }
    }
    Some((0..n as u32).filter(|&a| truth[a as usize]).collect())
}

// --- DPLL -----------------------------------------------------------------

/// A literal encoded as `var << 1 | sign` (sign 1 = negated).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Lit(u32);

impl Lit {
    fn pos(var: usize) -> Lit {
        Lit((var as u32) << 1)
    }

    fn neg(var: usize) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
}

struct Cnf {
    clauses: Vec<Vec<Lit>>,
    n_vars: usize,
}

impl Cnf {
    fn new(n_vars: usize) -> Cnf {
        Cnf {
            clauses: Vec::new(),
            n_vars,
        }
    }

    fn add(&mut self, mut clause: Vec<Lit>) {
        clause.sort_by_key(|l| l.0);
        clause.dedup();
        // Tautology?
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        self.clauses.push(clause);
    }
}

enum DpllEvent {
    /// A total model of the completion was reached.
    Model,
    /// The search space is exhausted.
    Done,
    /// A resource budget fired mid-search.
    Interrupted(Exhausted),
}

/// Trail-based DPLL with counter-based propagation and chronological
/// backtracking; supports model enumeration via `backtrack_after_model`.
struct Dpll {
    /// Clause literals; positions 0 and 1 are the watched literals.
    clauses: Vec<Vec<Lit>>,
    /// Two-watched-literal scheme: for each literal code, the clauses
    /// currently watching it. Watches never need restoration on
    /// chronological backtracking.
    watches: Vec<Vec<u32>>,
    /// Assignment: 0 unassigned, 1 true, 2 false.
    assign: Vec<u8>,
    /// Trail of assigned variables in order.
    trail: Vec<u32>,
    /// (trail length before decision, decided var, tried_both) per level.
    decisions: Vec<(usize, u32, bool)>,
    /// Queue cursor into the trail for propagation.
    prop_head: usize,
    n_atoms: usize,
    exhausted: bool,
    units: Vec<Lit>,
}

impl Dpll {
    fn new(cnf: Cnf, n_atoms: usize) -> Dpll {
        let mut watches = vec![Vec::new(); cnf.n_vars * 2];
        let mut units = Vec::new();
        let mut clauses = Vec::with_capacity(cnf.clauses.len());
        for clause in cnf.clauses {
            match clause.len() {
                0 => {
                    // Empty clause: immediately unsatisfiable.
                    units.push(Lit::pos(0));
                    units.push(Lit::neg(0));
                }
                1 => units.push(clause[0]),
                _ => {
                    let ci = clauses.len() as u32;
                    watches[clause[0].0 as usize].push(ci);
                    watches[clause[1].0 as usize].push(ci);
                    clauses.push(clause);
                }
            }
        }
        Dpll {
            clauses,
            watches,
            assign: vec![0; cnf.n_vars],
            trail: Vec::new(),
            decisions: Vec::new(),
            prop_head: 0,
            n_atoms,
            exhausted: false,
            units,
        }
    }

    fn value(&self, var: usize) -> Option<bool> {
        match self.assign[var] {
            0 => None,
            1 => Some(true),
            _ => Some(false),
        }
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|v| v != l.is_neg())
    }

    fn enqueue(&mut self, l: Lit) -> bool {
        match self.lit_value(l) {
            Some(v) => v,
            None => {
                self.assign[l.var()] = if l.is_neg() { 2 } else { 1 };
                self.trail.push(l.var() as u32);
                true
            }
        }
    }

    fn propagate(&mut self, stats: &mut SolveStats) -> bool {
        // Seed units once at the root.
        if self.decisions.is_empty() && self.prop_head == 0 {
            let units = std::mem::take(&mut self.units);
            for u in &units {
                if !self.enqueue(*u) {
                    self.units = units;
                    return false;
                }
            }
            self.units = units;
        }
        while self.prop_head < self.trail.len() {
            let var = self.trail[self.prop_head] as usize;
            self.prop_head += 1;
            stats.propagations += 1;
            let assigned_true = self.assign[var] == 1;
            // Clauses watching the falsified literal need attention.
            let falsified = if assigned_true {
                Lit::neg(var)
            } else {
                Lit::pos(var)
            };
            let key = falsified.0 as usize;
            let mut i = 0;
            'watchlist: while i < self.watches[key].len() {
                let ci = self.watches[key][i] as usize;
                // Normalize: watched literals sit at positions 0 and 1;
                // put the falsified one at position 1.
                if self.clauses[ci][0] == falsified {
                    self.clauses[ci].swap(0, 1);
                }
                let other = self.clauses[ci][0];
                if self.lit_value(other) == Some(true) {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a replacement watch among the tail literals.
                for k in 2..self.clauses[ci].len() {
                    let l = self.clauses[ci][k];
                    if self.lit_value(l) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        // Move the watch: swap-remove from this list, add to
                        // the new literal's list.
                        self.watches[key].swap_remove(i);
                        self.watches[l.0 as usize].push(ci as u32);
                        continue 'watchlist;
                    }
                }
                // No replacement: the other watch is unit or conflicting.
                if !self.enqueue(other) {
                    return false;
                }
                i += 1;
            }
        }
        true
    }

    /// Runs propagation/decision until a total model, exhaustion, or a
    /// budget interruption. After every successful propagation, `pruner`
    /// may cut the branch (used for branch-and-bound optimization); it
    /// receives the raw assignment (0 = unassigned, 1 = true, 2 = false).
    fn step(
        &mut self,
        stats: &mut SolveStats,
        max_steps: u64,
        deadline: Deadline,
        pruner: &mut dyn FnMut(&[u8]) -> bool,
    ) -> DpllEvent {
        if self.exhausted {
            return DpllEvent::Done;
        }
        loop {
            if stats.decisions + stats.conflicts > max_steps {
                return DpllEvent::Interrupted(Exhausted::Steps);
            }
            if deadline.expired() {
                return DpllEvent::Interrupted(Exhausted::Deadline);
            }
            if !self.propagate(stats) {
                stats.conflicts += 1;
                if !self.backtrack() {
                    self.exhausted = true;
                    return DpllEvent::Done;
                }
                continue;
            }
            if pruner(&self.assign) {
                stats.conflicts += 1;
                if !self.backtrack() {
                    self.exhausted = true;
                    return DpllEvent::Done;
                }
                continue;
            }
            // Pick an unassigned variable: atoms first (minimality bias:
            // try false first).
            let next = (0..self.assign.len()).find(|&v| self.assign[v] == 0);
            match next {
                None => return DpllEvent::Model,
                Some(v) => {
                    stats.decisions += 1;
                    self.decisions.push((self.trail.len(), v as u32, false));
                    let ok = self.enqueue(Lit::neg(v));
                    debug_assert!(ok, "deciding an unassigned var cannot conflict");
                    let _ = self.n_atoms;
                }
            }
        }
    }

    /// Chronological backtracking: undo to the most recent decision whose
    /// second polarity is untried, and flip it. Returns false if exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some((mark, var, tried_both)) = self.decisions.pop() {
            for &v in &self.trail[mark..] {
                self.assign[v as usize] = 0;
            }
            self.trail.truncate(mark);
            self.prop_head = mark;
            if !tried_both {
                self.decisions.push((mark, var, true));
                let ok = self.enqueue(Lit::pos(var as usize));
                debug_assert!(ok, "flipping an undone decision cannot conflict");
                return true;
            }
        }
        false
    }

    /// After reporting a model, force the search onward.
    fn backtrack_after_model(&mut self, stats: &mut SolveStats) -> bool {
        stats.conflicts += 1;
        if self.backtrack() {
            true
        } else {
            self.exhausted = true;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::program::Program;

    fn solve_text(src: &str) -> SolveResult {
        let p: Program = src.parse().expect("test program parses");
        Solver::new().solve(&ground(&p).expect("test program grounds"))
    }

    fn model_strings(r: &SolveResult) -> Vec<String> {
        let mut v: Vec<String> = r.models().iter().map(|m| m.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn solver_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Solver>();
        assert_send_sync::<SolveResult>();
        assert_send_sync::<AnswerSet>();
        // One shared solver, queried concurrently.
        let solver = Solver::new();
        let g = ground(&"p :- not q. q :- not p.".parse::<Program>().unwrap()).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert_eq!(solver.solve(&g).models().len(), 2));
            }
        });
    }

    #[test]
    fn definite_program_has_single_model() {
        let r = solve_text("a. b :- a. c :- b, a.");
        assert!(r.stats().used_stratified);
        assert_eq!(model_strings(&r), vec!["{a, b, c}"]);
    }

    #[test]
    fn even_loop_has_two_models() {
        let r = solve_text("p :- not q. q :- not p.");
        assert_eq!(model_strings(&r), vec!["{p}", "{q}"]);
        assert!(!r.stats().used_stratified);
    }

    #[test]
    fn odd_loop_has_no_model() {
        let r = solve_text("p :- not p.");
        assert!(!r.satisfiable());
        assert!(r.complete());
    }

    #[test]
    fn constraint_filters_models() {
        let r = solve_text("p :- not q. q :- not p. :- p.");
        assert_eq!(model_strings(&r), vec!["{q}"]);
    }

    #[test]
    fn positive_loop_is_unfounded() {
        // {a, b} satisfies the completion but is not stable.
        let r = solve_text("a :- b. b :- a.");
        assert_eq!(model_strings(&r), vec!["{}"]);
    }

    #[test]
    fn positive_loop_with_choice() {
        let r = solve_text("a :- b. b :- a. a :- not c. c :- not a.");
        assert_eq!(model_strings(&r), vec!["{a, b}", "{c}"]);
    }

    #[test]
    fn stratified_negation_single_model() {
        let r = solve_text("bird(tweety). flies(X) :- bird(X), not abnormal(X).");
        assert!(r.stats().used_stratified);
        assert_eq!(model_strings(&r), vec!["{bird(tweety), flies(tweety)}"]);
    }

    #[test]
    fn stratified_constraint_violation_gives_no_model() {
        let r = solve_text("a. :- a, not b.");
        assert!(!r.satisfiable());
        assert!(r.complete());
    }

    #[test]
    fn force_search_matches_stratified() {
        let src = "bird(tweety). bird(sam). abnormal(sam).
                   flies(X) :- bird(X), not abnormal(X).";
        let p: Program = src.parse().unwrap();
        let g = ground(&p).unwrap();
        let fast = Solver::new().solve(&g);
        let slow = Solver::new().force_search(true).solve(&g);
        assert_eq!(model_strings(&fast), model_strings(&slow));
        assert!(fast.stats().used_stratified);
        assert!(!slow.stats().used_stratified);
    }

    #[test]
    fn three_way_choice_enumerates_all() {
        let r = solve_text("a :- not b, not c. b :- not a, not c. c :- not a, not b.");
        assert_eq!(model_strings(&r), vec!["{a}", "{b}", "{c}"]);
    }

    #[test]
    fn max_models_caps_enumeration() {
        let p: Program = "p :- not q. q :- not p.".parse().unwrap();
        let g = ground(&p).unwrap();
        let r = Solver::new().max_models(1).solve(&g);
        assert_eq!(r.models().len(), 1);
    }

    #[test]
    fn tightness_detected() {
        let tight = "p :- not q. q :- not p.";
        let p: Program = tight.parse().unwrap();
        let r = Solver::new().solve(&ground(&p).unwrap());
        assert!(r.stats().tight);
        let loopy: Program = "a :- b. b :- a. a :- not c. c :- not a.".parse().unwrap();
        let r2 = Solver::new().solve(&ground(&loopy).unwrap());
        assert!(!r2.stats().tight);
    }

    #[test]
    fn empty_program_has_empty_model() {
        let r = solve_text("");
        assert_eq!(model_strings(&r), vec!["{}"]);
    }

    #[test]
    fn unsatisfiable_fact_constraint() {
        let r = solve_text("a. :- a.");
        assert!(!r.satisfiable());
    }

    #[test]
    fn step_budget_reports_incomplete() {
        // A program with many models and a tiny budget.
        let src = "
            a1 :- not b1. b1 :- not a1.
            a2 :- not b2. b2 :- not a2.
            a3 :- not b3. b3 :- not a3.
            a4 :- not b4. b4 :- not a4.
        ";
        let p: Program = src.parse().unwrap();
        let g = ground(&p).unwrap();
        let r = Solver::new().max_steps(3).solve(&g);
        assert!(!r.complete());
        assert_eq!(r.exhausted(), Some(Exhausted::Steps));
    }

    #[test]
    fn expired_deadline_reports_incomplete() {
        let p: Program = "p :- not q. q :- not p.".parse().unwrap();
        let g = ground(&p).unwrap();
        let r = Solver::new()
            .deadline(Deadline::after(std::time::Duration::ZERO))
            .solve(&g);
        assert!(!r.complete());
        assert_eq!(r.exhausted(), Some(Exhausted::Deadline));
        assert!(r.models().is_empty());
    }

    #[test]
    fn unset_deadline_leaves_search_complete() {
        let p: Program = "p :- not q. q :- not p.".parse().unwrap();
        let g = ground(&p).unwrap();
        let r = Solver::new().deadline(Deadline::none()).solve(&g);
        assert!(r.complete());
        assert_eq!(r.exhausted(), None);
        assert_eq!(r.models().len(), 2);
    }

    #[test]
    fn run_budget_configures_solver() {
        let budget = RunBudget::new()
            .with_max_steps(3)
            .with_deadline(Deadline::none());
        let p: Program = "
            a1 :- not b1. b1 :- not a1.
            a2 :- not b2. b2 :- not a2.
            a3 :- not b3. b3 :- not a3.
        "
        .parse()
        .unwrap();
        let g = ground(&p).unwrap();
        let r = Solver::new().with_budget(&budget).solve(&g);
        assert!(!r.complete());
        assert_eq!(r.exhausted(), Some(Exhausted::Steps));
    }

    #[test]
    fn grounded_variables_then_solved() {
        let r = solve_text(
            "
            node(1..3).
            colored(X, red) :- node(X), not colored(X, blue).
            colored(X, blue) :- node(X), not colored(X, red).
            :- colored(1, red).
        ",
        );
        // 2^3 colorings minus those with node 1 red = 4.
        assert_eq!(r.models().len(), 4);
    }

    /// What the stratified path returns for `g`: its perfect model, with
    /// the dependency graph's stratification and tightness.
    fn stratified_reference(g: &GroundProgram) -> (Vec<AnswerSet>, SolveStats) {
        let deps = Dependencies::build(g, g.atoms().len());
        assert!(deps.stratified);
        let models = stratified_model(g, &deps)
            .map(|ids| vec![AnswerSet::from_ids(&ids, g)])
            .unwrap_or_default();
        let stats = SolveStats {
            used_stratified: true,
            tight: deps.tight,
            ..SolveStats::default()
        };
        (models, stats)
    }

    #[test]
    fn facts_only_programs_match_the_stratified_path() {
        for src in [
            "",
            "a.",
            "a. a. b. a.",
            "p(2). p(1). q(1)@1. p(2). p(X) :- X = 1.",
            "a. b :- a. c :- not d.",
        ] {
            let g = ground(&src.parse::<Program>().unwrap()).unwrap();
            assert!(g.rules().iter().all(GroundRule::is_fact), "{src}");
            let (models, stats) = stratified_reference(&g);
            for solver in [Solver::new(), Solver::new().max_models(1)] {
                let r = solver.solve(&g);
                assert_eq!(r.models(), models.as_slice(), "{src}");
                assert_eq!(*r.stats(), stats, "{src}");
                assert!(r.complete());
                assert_eq!(r.exhausted(), None);
            }
        }
        assert_eq!(model_strings(&solve_text("")), ["{}"]);
        assert_eq!(model_strings(&solve_text("b. a. b.")), ["{a, b}"]);
    }

    #[test]
    fn facts_only_programs_still_search_when_forced() {
        let g = ground(&"a. b. c(1).".parse::<Program>().unwrap()).unwrap();
        let fast = Solver::new().solve(&g);
        let slow = Solver::new().force_search(true).solve(&g);
        assert_eq!(model_strings(&fast), model_strings(&slow));
        assert!(fast.stats().used_stratified);
        assert!(!slow.stats().used_stratified);
        assert!(slow.stats().tight);
        assert!(slow.stats().propagations > 0);
        // Weak constraints keep the program off the facts-only path; the
        // stratified path answers it as before.
        let weak = ground(&"a. :~ a. [1@0]".parse::<Program>().unwrap()).unwrap();
        assert!(weak.rules().iter().all(GroundRule::is_fact));
        let (models, stats) = stratified_reference(&weak);
        let r = Solver::new().solve(&weak);
        assert_eq!(r.models(), models.as_slice());
        assert_eq!(*r.stats(), stats);
    }

    #[test]
    fn answer_set_accessors() {
        let r = solve_text("p(1). p(2). q :- p(1).");
        let m = &r.models()[0];
        assert_eq!(m.len(), 3);
        assert!(m.contains(&"q".parse().unwrap()));
        assert_eq!(m.with_predicate("p").count(), 2);
        assert!(!m.is_empty());
    }
}
