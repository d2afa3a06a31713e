//! The two hypothesis searches, run over the coverage a
//! [`LearningSession`](crate::LearningSession) caches per example.
//!
//! * **Monotone** (constraint-only spaces, completely enumerated worlds): a
//!   candidate constraint behaves as a pure filter on each example's
//!   worlds, so optimal learning is a weighted hitting-set problem solved
//!   by branch and bound.
//! * **Generic** (spaces with normal rules): iterative-deepening search over
//!   hypothesis subsets, checking each subset's full answer-set coverage
//!   by grounding it as a delta over each tree's saturated base and
//!   solving. It reads neither worlds nor plans, so it checks the monotone
//!   search and the meta encoding independently of them.
//!
//! Both see the examples as one flat list: positives first, then
//! negatives, each in arrival order.

use crate::compile::NodeTraces;
use crate::learner::{Branching, LearnError, LearnOptions, LearnStats};
use crate::space::Candidate;
use agenp_asp::{Deadline, Exhausted, IncrementalGrounder, Rule, Solver};

/// A solution: (total cost, chosen candidate indices, sacrificed examples).
pub(crate) type BestSolution = (u64, Vec<u32>, Vec<(bool, usize)>);

/// What a search found, and whether it ran to the end.
pub(crate) struct Searched {
    /// The cheapest solution found.
    pub best: Option<BestSolution>,
    /// Why the search stopped early ([`LearnError::Budget`] or
    /// [`LearnError::Exhausted`]). `None` means it ran to the end: `best`
    /// is then optimal, and no `best` proves the task unsatisfiable.
    pub cut: Option<LearnError>,
}

/// The examples one search sees, with each example's cached coverage.
pub(crate) struct Examples<'a, C: ?Sized> {
    /// How many examples are positive; they come first.
    pub positives: usize,
    /// Per example: the violation penalty (`None` = hard).
    pub penalties: Vec<Option<u32>>,
    /// Per example: its coverage.
    pub coverage: Vec<&'a C>,
}

impl<C: ?Sized> Examples<'_, C> {
    /// Is example `ei` positive?
    pub fn is_pos(&self, ei: usize) -> bool {
        ei < self.positives
    }

    /// The example's index within its own (positive or negative) list.
    pub fn local(&self, ei: usize) -> usize {
        if self.is_pos(ei) {
            ei
        } else {
            ei - self.positives
        }
    }
}

/// The candidates (or plans of a [`PlanTrie`](crate::PlanTrie)) that
/// violate one world: a bitset over their indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kills(Box<[u64]>);

impl Kills {
    /// The set of `ones` among `n` candidates.
    pub(crate) fn new(n: usize, ones: impl IntoIterator<Item = usize>) -> Kills {
        let mut words = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        for c in ones {
            words[c / 64] |= 1 << (c % 64);
        }
        Kills(words)
    }

    /// Adds candidate `c`; false if it was a member already.
    pub(crate) fn insert(&mut self, c: usize) -> bool {
        let (word, bit) = (&mut self.0[c / 64], 1 << (c % 64));
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Is candidate `c` a member?
    pub fn contains(&self, c: usize) -> bool {
        self.0
            .get(c / 64)
            .is_some_and(|word| word & (1 << (c % 64)) != 0)
    }

    /// The members, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        ones(self.0.iter().copied()).map(|c| c as u32)
    }

    /// The set's words, candidate `c` at bit `c % 64` of word `c / 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.0
    }

    /// True if no candidate is in both sets.
    pub(crate) fn disjoint(&self, other: &Kills) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & b == 0)
    }
}

// --- Monotone (constraint-only) path ---------------------------------------

/// Branch and bound over the examples' world kill sets. Sets `nodes_out`
/// to the nodes explored.
///
/// Worlds are numbered across examples, in example order. A world's
/// killers are its [`Kills`] row, read in place; a candidate's kill set is
/// a bitset over worlds, transposed from the rows once per search. A
/// branch's state is three bitsets, one frame of a stack indexed by
/// depth: the candidates chosen or forbidden, the surviving worlds of the
/// positive examples, and the unhit worlds of the required negative
/// examples.
pub(crate) fn monotone(
    candidates: &[Candidate],
    options: &LearnOptions,
    examples: &Examples<'_, [Kills]>,
    nodes_out: &mut u64,
) -> Searched {
    let mut first = Vec::with_capacity(examples.coverage.len() + 1);
    let mut killers: Vec<&Kills> = Vec::new();
    first.push(0);
    for worlds in &examples.coverage {
        killers.extend(worlds.iter());
        first.push(killers.len());
    }
    let candidate_words = candidates.len().div_ceil(64);
    let world_words = killers.len().div_ceil(64);

    // The root frame. Positives with no worlds can never be covered (must
    // be sacrificed or the task fails).
    let mut frames = vec![0u64; candidate_words + 2 * world_words];
    let mut cost: u64 = 0;
    let mut sacrificed: Vec<(bool, usize)> = Vec::new();
    let mut owner = Vec::with_capacity(killers.len());
    for ei in 0..examples.coverage.len() {
        let worlds = first[ei]..first[ei + 1];
        let set = if examples.is_pos(ei) {
            if worlds.is_empty() {
                match examples.penalties[ei] {
                    Some(p) => {
                        cost += u64::from(p);
                        sacrificed.push((true, ei));
                    }
                    None => {
                        return Searched {
                            best: None,
                            cut: None,
                        }
                    }
                }
            }
            candidate_words
        } else {
            candidate_words + world_words
        };
        for w in worlds {
            frames[set + w / 64] |= 1 << (w % 64);
            owner.push(ei);
        }
    }

    // Transpose the rows: kills[c * world_words..][..world_words] holds the
    // worlds candidate c violates. Discrimination statistics for guided
    // branching (§V-C): how many positive and negative worlds each
    // candidate kills.
    let mut kills = vec![0u64; candidates.len() * world_words];
    let mut pos_kills = vec![0u32; candidates.len()];
    let mut neg_kills = vec![0u32; candidates.len()];
    for (w, row) in killers.iter().enumerate() {
        let counts = if examples.is_pos(owner[w]) {
            &mut pos_kills
        } else {
            &mut neg_kills
        };
        for c in row.iter() {
            let c = c as usize;
            kills[c * world_words + w / 64] |= 1 << (w % 64);
            counts[c] += 1;
        }
    }

    let mut search = MonotoneSearch {
        candidates,
        positives: examples.positives,
        penalties: &examples.penalties,
        killers,
        owner,
        first,
        kills,
        neg_kills,
        pos_kills,
        candidate_words,
        world_words,
        frames,
        order: Vec::new(),
        chosen: Vec::new(),
        sacrificed,
        branching: options.branching,
        best: None,
        max_cost: options.max_cost,
        nodes: 0,
        max_nodes: options.max_nodes,
        deadline: options.deadline,
        interrupted: false,
    };
    search.dfs(0, cost);
    *nodes_out = search.nodes;
    // In example order, as the generic search and the meta encoding list
    // them; the search sacrifices in branching order.
    let mut best = search.best;
    if let Some((_, _, sacrificed)) = &mut best {
        sacrificed.sort_unstable_by_key(|&(is_pos, i)| (!is_pos, i));
    }
    // NOTE: if the node budget ran out after a solution was found, the
    // solution is returned even though minimality is no longer proven.
    let cut = if search.interrupted {
        Some(LearnError::Exhausted(Exhausted::Deadline))
    } else if search.nodes >= search.max_nodes {
        Some(LearnError::Budget)
    } else {
        None
    };
    Searched { best, cut }
}

struct MonotoneSearch<'a> {
    candidates: &'a [Candidate],
    positives: usize,
    penalties: &'a [Option<u32>],
    /// Per world, the candidates that violate it.
    killers: Vec<&'a Kills>,
    /// Per world, its example.
    owner: Vec<usize>,
    /// Example `ei` owns worlds `first[ei]..first[ei + 1]`.
    first: Vec<usize>,
    /// Per candidate, the worlds it violates: `world_words` words each.
    kills: Vec<u64>,
    neg_kills: Vec<u32>,
    pos_kills: Vec<u32>,
    candidate_words: usize,
    world_words: usize,
    /// The frame of the branch at each depth: the chosen or forbidden
    /// candidates (`candidate_words` words), then the surviving positive
    /// worlds and the unhit negative worlds (`world_words` words each).
    frames: Vec<u64>,
    /// The killers each open branch chooses from, in branching order.
    order: Vec<u32>,
    /// The current branch's chosen candidates and sacrificed examples.
    chosen: Vec<u32>,
    sacrificed: Vec<(bool, usize)>,
    branching: Branching,
    best: Option<BestSolution>,
    max_cost: u64,
    nodes: u64,
    max_nodes: u64,
    deadline: Deadline,
    interrupted: bool,
}

impl MonotoneSearch<'_> {
    fn stride(&self) -> usize {
        self.candidate_words + 2 * self.world_words
    }

    fn dfs(&mut self, depth: usize, cost: u64) {
        if self.interrupted {
            return;
        }
        self.nodes += 1;
        if self.nodes >= self.max_nodes {
            return;
        }
        if self.deadline.expired() {
            self.interrupted = true;
            return;
        }
        if cost >= self.best.as_ref().map_or(self.max_cost + 1, |(c, _, _)| *c) {
            return;
        }
        let at = depth * self.stride();
        let blocked = &self.frames[at..at + self.candidate_words];
        let unhit =
            &self.frames[at + self.candidate_words + self.world_words..][..self.world_words];
        // Pick the unhit negative world with the fewest usable (neither
        // chosen nor forbidden) killers, the first in world order on a tie.
        let usable = |w: usize| {
            let row = self.killers[w].words().iter().zip(blocked);
            row.map(|(k, b)| k & !b)
        };
        let mut pick = None;
        let mut fewest = u32::MAX;
        for w in ones(unhit.iter().copied()) {
            let n = usable(w).map(u64::count_ones).sum();
            if n < fewest {
                fewest = n;
                pick = Some(w);
                if n == 0 {
                    break;
                }
            }
        }
        let Some(w) = pick else {
            // All negative requirements met: record.
            let better = self.best.as_ref().is_none_or(|(c, _, _)| cost < *c);
            if better && cost <= self.max_cost {
                self.best = Some((cost, self.chosen.clone(), self.sacrificed.clone()));
            }
            return;
        };
        // Branch 1..k: choose each usable killer of w, best-scored first;
        // each branch forbids the killers tried before it, to avoid
        // permutation blowup.
        let start = self.order.len();
        self.order.extend(ones(usable(w)).map(|c| c as u32));
        let order = &mut self.order[start..];
        match self.branching {
            Branching::CostFirst => {
                order.sort_by_key(|&c| self.candidates[c as usize].cost);
            }
            Branching::Guided => {
                order.sort_by_key(|&c| {
                    let ci = c as usize;
                    (
                        self.candidates[ci].cost,
                        std::cmp::Reverse(self.neg_kills[ci]),
                        self.pos_kills[ci],
                    )
                });
            }
        }
        for i in start..self.order.len() {
            let c = self.order[i] as usize;
            self.frames[at + c / 64] |= 1 << (c % 64);
            self.choose(depth, c, cost);
        }
        self.order.truncate(start);
        // Final branch: sacrifice the negative example (soft only). It
        // takes over this branch's frame, all the killers tried forbidden.
        let ei = self.owner[w];
        if let Some(p) = self.penalties[ei] {
            let unhit = at + self.candidate_words + self.world_words;
            for v in self.first[ei]..self.first[ei + 1] {
                self.frames[unhit + v / 64] &= !(1 << (v % 64));
            }
            self.sacrificed.push((false, ei - self.positives));
            self.dfs(depth, cost + u64::from(p));
            self.sacrificed.pop();
        }
    }

    /// Explores the child of the branch at `depth` that chooses `c`
    /// (already blocked in its frame), unless `c` kills the last world of
    /// a hard positive. Positives whose last worlds it kills are
    /// sacrificed, in example order.
    fn choose(&mut self, depth: usize, c: usize, mut cost: u64) {
        let (cw, ww, stride) = (self.candidate_words, self.world_words, self.stride());
        let at = depth * stride;
        let kill = &self.kills[c * ww..][..ww];
        let alive = &self.frames[at + cw..][..ww];
        let mark = self.sacrificed.len();
        let mut next = 0;
        for w in ones(alive.iter().zip(kill).map(|(a, k)| a & k)) {
            if w < next {
                continue;
            }
            let ei = self.owner[w];
            next = self.first[ei + 1];
            let survives = (self.first[ei]..next)
                .any(|v| (alive[v / 64] & !kill[v / 64]) >> (v % 64) & 1 != 0);
            if survives {
                continue;
            }
            match self.penalties[ei] {
                Some(p) => {
                    cost += u64::from(p);
                    self.sacrificed.push((true, ei));
                }
                None => {
                    self.sacrificed.truncate(mark);
                    return;
                }
            }
        }
        if self.frames.len() < at + 2 * stride {
            self.frames.resize(at + 2 * stride, 0);
        }
        let (parent, child) = self.frames.split_at_mut(at + stride);
        let parent = &parent[at..];
        child[..cw].copy_from_slice(&parent[..cw]);
        for j in 0..ww {
            child[cw + j] = parent[cw + j] & !kill[j];
            child[cw + ww + j] = parent[cw + ww + j] & !kill[j];
        }
        self.chosen.push(c as u32);
        self.dfs(depth + 1, cost + u64::from(self.candidates[c].cost));
        self.chosen.pop();
        self.sacrificed.truncate(mark);
    }
}

/// The members of the bitset with these words, in ascending order.
fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(i, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

// --- Generic path ------------------------------------------------------------

/// One parse tree of an example, as the generic search evaluates hypotheses
/// on it.
#[derive(Debug)]
pub(crate) struct GroundedTree {
    /// Where each candidate is instantiated.
    pub traces: NodeTraces,
    /// The tree's `G(C)[PT]`, saturated once; a hypothesis is grounded as
    /// a delta on top of it.
    pub grounder: IncrementalGrounder,
}

/// Iterative deepening over rule cost, evaluating each subset against every
/// example's grounded trees. Counts nodes, grounding and solver work into
/// `stats`.
///
/// # Errors
///
/// Propagates grounding failures from hypothesis evaluation.
pub(crate) fn generic(
    candidates: &[Candidate],
    options: &LearnOptions,
    examples: &Examples<'_, [GroundedTree]>,
    stats: &mut LearnStats,
) -> Result<Searched, LearnError> {
    let max_rule_cost: u64 = candidates
        .iter()
        .map(|c| u64::from(c.cost))
        .sum::<u64>()
        .min(options.max_cost);
    let mut search = GenericSearch {
        candidates,
        options,
        examples,
        stats,
        deadline_hit: false,
        best: None,
    };
    for budget in 0..=max_rule_cost {
        if search.best.as_ref().is_some_and(|(c, _, _)| *c <= budget) {
            break;
        }
        search.dfs(0, budget, &mut Vec::new())?;
        if search.deadline_hit {
            return Ok(Searched {
                best: search.best,
                cut: Some(LearnError::Exhausted(Exhausted::Deadline)),
            });
        }
        if search.stats.search_nodes >= options.max_nodes {
            return Ok(Searched {
                best: search.best,
                cut: Some(LearnError::Budget),
            });
        }
    }
    Ok(Searched {
        best: search.best,
        cut: None,
    })
}

struct GenericSearch<'a, 's> {
    candidates: &'a [Candidate],
    options: &'a LearnOptions,
    examples: &'a Examples<'a, [GroundedTree]>,
    stats: &'s mut LearnStats,
    deadline_hit: bool,
    best: Option<BestSolution>,
}

impl GenericSearch<'_, '_> {
    fn dfs(&mut self, next: usize, budget: u64, chosen: &mut Vec<u32>) -> Result<(), LearnError> {
        self.stats.search_nodes += 1;
        if self.deadline_hit || self.stats.search_nodes >= self.options.max_nodes {
            return Ok(());
        }
        if self.options.deadline.expired() {
            self.deadline_hit = true;
            return Ok(());
        }
        // Evaluate the current subset exactly at its own cost level.
        let rule_cost = self.rule_cost(chosen);
        if rule_cost == budget {
            return self.evaluate(chosen);
        }
        if next >= self.candidates.len() || rule_cost > budget {
            return Ok(());
        }
        // Include candidates[next] (if it fits), then exclude it.
        let c_cost = u64::from(self.candidates[next].cost);
        if rule_cost + c_cost <= budget {
            chosen.push(next as u32);
            self.dfs(next + 1, budget, chosen)?;
            chosen.pop();
        }
        self.dfs(next + 1, budget, chosen)
    }

    fn rule_cost(&self, chosen: &[u32]) -> u64 {
        chosen
            .iter()
            .map(|&c| u64::from(self.candidates[c as usize].cost))
            .sum()
    }

    fn evaluate(&mut self, chosen: &[u32]) -> Result<(), LearnError> {
        let mut total = self.rule_cost(chosen);
        let mut sacrificed = Vec::new();
        for (ei, trees) in self.examples.coverage.iter().enumerate() {
            let mut accepted = false;
            for tree in trees.iter() {
                self.stats.eval_cache_misses += 1;
                let relevant = relevant(tree, self.candidates, chosen);
                if tree_accepts(tree, self.candidates, &relevant, self.stats)? {
                    accepted = true;
                    break;
                }
            }
            let is_pos = self.examples.is_pos(ei);
            if accepted != is_pos {
                match self.examples.penalties[ei] {
                    Some(p) => {
                        total += u64::from(p);
                        sacrificed.push((is_pos, self.examples.local(ei)));
                    }
                    None => return Ok(()), // hard violation: subset invalid
                }
            }
            if self.best.as_ref().is_some_and(|(c, _, _)| *c <= total) {
                return Ok(());
            }
        }
        if total <= self.options.max_cost && self.best.as_ref().is_none_or(|(c, _, _)| total < *c) {
            self.best = Some((total, chosen.to_vec(), sacrificed));
        }
        Ok(())
    }
}

/// The chosen candidates whose target production occurs in `tree`; only
/// they can change whether the tree is admitted.
pub(crate) fn relevant(tree: &GroundedTree, candidates: &[Candidate], chosen: &[u32]) -> Vec<u32> {
    chosen
        .iter()
        .copied()
        .filter(|&ci| !tree.traces.get(candidates[ci as usize].target).is_empty())
        .collect()
}

/// Does `tree` admit its string once the `relevant` candidates are added?
/// Their instantiations are grounded as a delta over the tree's saturated
/// base grounding.
///
/// # Errors
///
/// Propagates grounding failures.
pub(crate) fn tree_accepts(
    tree: &GroundedTree,
    candidates: &[Candidate],
    relevant: &[u32],
    stats: &mut LearnStats,
) -> Result<bool, LearnError> {
    let mut delta: Vec<Rule> = Vec::new();
    for &ci in relevant {
        let candidate = &candidates[ci as usize];
        let traces = tree.traces.get(candidate.target);
        delta.extend(traces.iter().map(|t| candidate.rule.instantiate_at(t)));
    }
    let (g, st) = tree.grounder.ground_delta_with_stats(&delta)?;
    stats.absorb_ground(st);
    stats.solver_calls += 1;
    Ok(Solver::new().max_models(1).solve(&g).satisfiable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_grammar::ProdId;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::time::Duration;

    /// Optimized builds check thousands of tasks, debug builds a few
    /// hundred.
    const FULL: bool = !cfg!(debug_assertions);

    /// A monotone task as the search sees it: candidate costs, and per
    /// example (positives first) its penalty and its worlds' kill sets.
    struct Task {
        costs: Vec<u32>,
        positives: usize,
        penalties: Vec<Option<u32>>,
        worlds: Vec<Vec<Kills>>,
        max_cost: u64,
    }

    fn random_task(seed: u64) -> Task {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=10usize);
        let costs = (0..n).map(|_| rng.gen_range(1..=3u32)).collect();
        let examples = rng.gen_range(0..=12usize);
        let positives = rng.gen_range(0..=examples);
        let penalties = (0..examples)
            .map(|_| rng.gen_bool(0.6).then(|| rng.gen_range(1..=4u32)))
            .collect();
        let density = rng.gen_range(0.1..0.6);
        let worlds = (0..examples)
            .map(|_| {
                (0..rng.gen_range(0..=3))
                    .map(|_| Kills::new(n, (0..n).filter(|_| rng.gen_bool(density))))
                    .collect()
            })
            .collect();
        let max_cost = if rng.gen_bool(0.2) {
            rng.gen_range(0..=8)
        } else {
            64
        };
        Task {
            costs,
            positives,
            penalties,
            worlds,
            max_cost,
        }
    }

    /// The examples `subset` (a bitmask of candidates) violates, as
    /// `(is_pos, local index)` in example order: a positive when every one
    /// of its worlds is killed, a negative when one of them is not.
    fn violated(task: &Task, subset: u32) -> Vec<(bool, usize)> {
        (0..task.worlds.len())
            .filter(|&ei| {
                let survives = task.worlds[ei]
                    .iter()
                    .any(|k| k.iter().all(|c| subset >> c & 1 == 0));
                survives != (ei < task.positives)
            })
            .map(|ei| {
                if ei < task.positives {
                    (true, ei)
                } else {
                    (false, ei - task.positives)
                }
            })
            .collect()
    }

    /// The score of a subset and the sacrifices it forces: its rules' cost
    /// plus each violated example's penalty. `None` if it violates a hard
    /// example or costs more than `max_cost`.
    fn score(task: &Task, subset: u32, sacrificed: &[(bool, usize)]) -> Option<u64> {
        let mut cost: u64 = (0..task.costs.len())
            .filter(|&c| subset >> c & 1 != 0)
            .map(|c| u64::from(task.costs[c]))
            .sum();
        for &(is_pos, i) in sacrificed {
            let ei = if is_pos { i } else { task.positives + i };
            cost += u64::from(task.penalties[ei]?);
        }
        (cost <= task.max_cost).then_some(cost)
    }

    fn search(task: &Task, options: LearnOptions) -> (Searched, u64) {
        let rule: Rule = ":- a.".parse().unwrap();
        let candidates: Vec<Candidate> = task
            .costs
            .iter()
            .map(|&cost| Candidate {
                rule: rule.clone(),
                target: ProdId::from_index(0),
                cost,
            })
            .collect();
        let examples = Examples {
            positives: task.positives,
            penalties: task.penalties.clone(),
            coverage: task.worlds.iter().map(Vec::as_slice).collect(),
        };
        let mut nodes = 0;
        let searched = monotone(
            &candidates,
            &options.with_max_cost(task.max_cost),
            &examples,
            &mut nodes,
        );
        (searched, nodes)
    }

    /// `best` chooses distinct candidates, sacrifices exactly the examples
    /// they violate (in example order), and costs what it says.
    fn check_solution(task: &Task, best: &BestSolution, at: &str) {
        let (cost, chosen, sacrificed) = best;
        let subset = chosen.iter().fold(0u32, |s, &c| s | 1 << c);
        assert_eq!(subset.count_ones() as usize, chosen.len(), "{at}: {best:?}");
        assert_eq!(*sacrificed, violated(task, subset), "{at}: {best:?}");
        assert_eq!(
            score(task, subset, sacrificed),
            Some(*cost),
            "{at}: {best:?}"
        );
    }

    #[test]
    fn the_monotone_search_finds_the_brute_force_optimum() {
        let seeds = if FULL { 10_000 } else { 500 };
        let (mut solved, mut unsatisfiable) = (0, 0);
        for seed in 0..seeds {
            let task = random_task(seed);
            let optimum = (0..1u32 << task.costs.len())
                .filter_map(|s| score(&task, s, &violated(&task, s)))
                .min();
            match optimum {
                Some(_) => solved += 1,
                None => unsatisfiable += 1,
            }
            for branching in [Branching::Guided, Branching::CostFirst] {
                let at = format!("seed {seed} {branching:?}");
                let options = LearnOptions::default().with_branching(branching);
                let (Searched { best, cut }, nodes) = search(&task, options);
                assert!(cut.is_none(), "{at}: {cut:?}");
                match (&best, optimum) {
                    (None, None) => {}
                    (Some(best), Some(optimum)) => {
                        assert_eq!(best.0, optimum, "{at}: {best:?}");
                        check_solution(&task, best, &at);
                    }
                    _ => panic!("{at}: found {best:?}, brute force {optimum:?}"),
                }
                // A budget of k nodes cuts the search exactly when it
                // explores k nodes or more; a cut search's solution is
                // still a solution.
                let k = 1 + seed % 4;
                let (cut_short, _) = search(&task, options.with_max_nodes(k));
                if nodes >= k {
                    assert!(matches!(cut_short.cut, Some(LearnError::Budget)), "{at}");
                    if let Some(found) = &cut_short.best {
                        assert!(optimum.is_some_and(|o| found.0 >= o), "{at}: {found:?}");
                        check_solution(&task, found, &at);
                    }
                } else {
                    assert!(cut_short.cut.is_none(), "{at}");
                    assert_eq!(cut_short.best, best, "{at}");
                }
                if seed % 16 == 0 && nodes > 0 {
                    let expired = LearnOptions {
                        deadline: Deadline::after(Duration::ZERO),
                        ..options
                    };
                    let (late, _) = search(&task, expired);
                    assert!(
                        matches!(late.cut, Some(LearnError::Exhausted(Exhausted::Deadline))),
                        "{at}"
                    );
                }
            }
        }
        // The generator draws both kinds of task.
        assert!(
            solved > seeds / 4 && unsatisfiable > seeds / 20,
            "{solved} {unsatisfiable}"
        );
    }

    #[test]
    fn kills_iterate_in_ascending_order_across_words() {
        let k = Kills::new(130, [129, 3, 64, 0]);
        assert_eq!(k.iter().collect::<Vec<_>>(), vec![0, 3, 64, 129]);
        assert!(k.disjoint(&Kills::new(130, [1, 65])));
        assert!(!k.disjoint(&Kills::new(130, [1, 129])));
        assert_eq!(Kills::new(0, []).iter().count(), 0);
    }
}
