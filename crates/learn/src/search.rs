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
use std::collections::HashMap;

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
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    i as u32 * 64 + bit
                })
            })
        })
    }

    /// True if no candidate is in both sets.
    pub(crate) fn disjoint(&self, other: &Kills) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & b == 0)
    }
}

// --- Monotone (constraint-only) path ---------------------------------------

/// Branch and bound over the examples' world kill sets. Sets `nodes_out`
/// to the nodes explored.
pub(crate) fn monotone(
    candidates: &[Candidate],
    options: &LearnOptions,
    examples: &Examples<'_, [Kills]>,
    nodes_out: &mut u64,
) -> Searched {
    // Flatten worlds across examples. kill[c] lists the worlds candidate c
    // violates and killers_of_world[w] the candidates violating world w,
    // both in ascending order.
    let mut kill: Vec<Vec<u32>> = vec![Vec::new(); candidates.len()];
    let mut killers_of_world: Vec<Vec<u32>> = Vec::new();
    let mut worlds_of_ex: Vec<Vec<u32>> = Vec::with_capacity(examples.coverage.len());
    // Discrimination statistics for guided branching (§V-C): how many
    // positive and negative worlds each candidate kills.
    let mut neg_kills = vec![0u32; candidates.len()];
    let mut pos_kills = vec![0u32; candidates.len()];
    for (ei, worlds) in examples.coverage.iter().enumerate() {
        let owner_kills = if examples.is_pos(ei) {
            &mut pos_kills
        } else {
            &mut neg_kills
        };
        let mut ids = Vec::with_capacity(worlds.len());
        for world in worlds.iter() {
            let wi = killers_of_world.len() as u32;
            let killers: Vec<u32> = world.iter().collect();
            for &c in &killers {
                kill[c as usize].push(wi);
                owner_kills[c as usize] += 1;
            }
            killers_of_world.push(killers);
            ids.push(wi);
        }
        worlds_of_ex.push(ids);
    }

    // Feasibility of the empty requirement set: positives with no worlds
    // can never be covered (must be sacrificed or the task fails).
    let mut base_cost: u64 = 0;
    let mut base_sacrificed: Vec<(bool, usize)> = Vec::new();
    let mut pos_alive: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut neg_pending: Vec<usize> = Vec::new();
    for (ei, worlds) in worlds_of_ex.iter().enumerate() {
        if examples.is_pos(ei) {
            if worlds.is_empty() {
                match examples.penalties[ei] {
                    Some(p) => {
                        base_cost += u64::from(p);
                        base_sacrificed.push((true, ei));
                    }
                    None => {
                        return Searched {
                            best: None,
                            cut: None,
                        }
                    }
                }
            } else {
                pos_alive.insert(ei, worlds.clone());
            }
        } else if !worlds.is_empty() {
            neg_pending.push(ei);
        }
    }

    let mut search = MonotoneSearch {
        candidates,
        positives: examples.positives,
        penalties: &examples.penalties,
        killers_of_world: &killers_of_world,
        kill: &kill,
        neg_kills: &neg_kills,
        pos_kills: &pos_kills,
        branching: options.branching,
        best: None,
        max_cost: options.max_cost,
        nodes: 0,
        max_nodes: options.max_nodes,
        deadline: options.deadline,
        interrupted: false,
    };
    let state = MonoState {
        chosen: Vec::new(),
        forbidden: vec![false; candidates.len()],
        cost: base_cost,
        pos_alive,
        neg_unhit: neg_pending
            .iter()
            .map(|&ei| (ei, worlds_of_ex[ei].clone()))
            .collect(),
        sacrificed: base_sacrificed,
    };
    search.dfs(state);
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
    killers_of_world: &'a [Vec<u32>],
    kill: &'a [Vec<u32>],
    neg_kills: &'a [u32],
    pos_kills: &'a [u32],
    branching: Branching,
    best: Option<BestSolution>,
    max_cost: u64,
    nodes: u64,
    max_nodes: u64,
    deadline: Deadline,
    interrupted: bool,
}

#[derive(Clone)]
struct MonoState {
    chosen: Vec<u32>,
    forbidden: Vec<bool>,
    cost: u64,
    /// Surviving worlds per still-satisfiable positive example.
    pos_alive: HashMap<usize, Vec<u32>>,
    /// Unhit worlds per still-required negative example.
    neg_unhit: Vec<(usize, Vec<u32>)>,
    sacrificed: Vec<(bool, usize)>,
}

impl MonotoneSearch<'_> {
    fn dfs(&mut self, state: MonoState) {
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
        if state.cost >= self.best.as_ref().map_or(self.max_cost + 1, |(c, _, _)| *c) {
            return;
        }
        // Pick the unhit negative world with the fewest remaining killers.
        let mut pick: Option<(usize, u32)> = None; // (neg list index, world)
        let mut fewest = usize::MAX;
        for (ni, (_, unhit)) in state.neg_unhit.iter().enumerate() {
            for &w in unhit {
                let n = self.killers_of_world[w as usize]
                    .iter()
                    .filter(|&&c| !state.forbidden[c as usize] && !state.chosen.contains(&c))
                    .count();
                if n < fewest {
                    fewest = n;
                    pick = Some((ni, w));
                }
            }
        }
        let Some((ni, w)) = pick else {
            // All negative requirements met: record.
            let better = self.best.as_ref().is_none_or(|(c, _, _)| state.cost < *c);
            if better && state.cost <= self.max_cost {
                self.best = Some((state.cost, state.chosen.clone(), state.sacrificed.clone()));
            }
            return;
        };
        // Branch 1..k: choose each usable killer of w (excluding previously
        // tried ones to avoid permutation blowup), best-scored first.
        let mut killers: Vec<u32> = self.killers_of_world[w as usize]
            .iter()
            .copied()
            .filter(|&c| !state.forbidden[c as usize] && !state.chosen.contains(&c))
            .collect();
        match self.branching {
            Branching::CostFirst => {
                killers.sort_by_key(|&c| self.candidates[c as usize].cost);
            }
            Branching::Guided => {
                killers.sort_by_key(|&c| {
                    let ci = c as usize;
                    (
                        self.candidates[ci].cost,
                        std::cmp::Reverse(self.neg_kills[ci]),
                        self.pos_kills[ci],
                    )
                });
            }
        }
        let mut tried: Vec<u32> = Vec::new();
        for &c in &killers {
            let mut child = state.clone();
            for &t in &tried {
                child.forbidden[t as usize] = true;
            }
            tried.push(c);
            child.chosen.push(c);
            child.cost += u64::from(self.candidates[c as usize].cost);
            // Update negative requirements: remove all worlds killed by c.
            let killed: &[u32] = &self.kill[c as usize];
            for (_, unhit) in &mut child.neg_unhit {
                unhit.retain(|x| !killed.contains(x));
            }
            child.neg_unhit.retain(|(_, unhit)| !unhit.is_empty());
            // Update positives: drop killed worlds; dead positives must be
            // sacrificed (or the branch is infeasible).
            let mut feasible = true;
            let mut newly_dead: Vec<usize> = Vec::new();
            for (&ei, alive) in &mut child.pos_alive {
                alive.retain(|x| !killed.contains(x));
                if alive.is_empty() {
                    newly_dead.push(ei);
                }
            }
            // In example order, so `sacrificed` does not depend on the
            // map's iteration order.
            newly_dead.sort_unstable();
            for ei in newly_dead {
                child.pos_alive.remove(&ei);
                match self.penalties[ei] {
                    Some(p) => {
                        child.cost += u64::from(p);
                        child.sacrificed.push((true, ei));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                self.dfs(child);
            }
        }
        // Final branch: sacrifice the negative example (soft only).
        let (ei, _) = state.neg_unhit[ni];
        if let Some(p) = self.penalties[ei] {
            let mut child = state;
            for &t in &tried {
                child.forbidden[t as usize] = true;
            }
            child.cost += u64::from(p);
            child.sacrificed.push((false, ei - self.positives));
            child.neg_unhit.retain(|&(e, _)| e != ei);
            self.dfs(child);
        }
    }
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

    #[test]
    fn kills_iterate_in_ascending_order_across_words() {
        let k = Kills::new(130, [129, 3, 64, 0]);
        assert_eq!(k.iter().collect::<Vec<_>>(), vec![0, 3, 64, 129]);
        assert!(k.disjoint(&Kills::new(130, [1, 65])));
        assert!(!k.disjoint(&Kills::new(130, [1, 129])));
        assert_eq!(Kills::new(0, []).iter().count(), 0);
    }
}
