//! The learner's core: a session that owns a task's grammar, hypothesis
//! space and options, and takes examples as they arrive.
//!
//! * Each distinct example (same text, context and label) is compiled and
//!   its coverage computed once, on the first [`LearningSession::solve`]
//!   after it arrives. Repeats share that coverage; the search still sees
//!   every observation, so costs and `sacrificed` indices are those of the
//!   full example list.
//! * On the monotone path a session keeps, per distinct example, only the
//!   [`Example`] and one candidate bitset per world; the compiled trees and
//!   their grounders are dropped. The generic path keeps the
//!   [`CompiledExample`]s it evaluates hypotheses on.
//! * [`LearningSession::solve`] reuses the previous optimum without
//!   searching when that is provably safe: the previous search ran to the
//!   end, the options have not changed since, and the previous hypothesis
//!   satisfies every example added since (soft ones included). New examples
//!   can only raise every other hypothesis's score, so the previous optimum
//!   is still optimal, and a proven [`LearnError::Unsatisfiable`] stays
//!   unsatisfiable. A reused optimum may differ from the one a fresh search
//!   would pick among hypotheses of equal cost.

use crate::compile::{compile_example, plan_candidates, CandidatePlan, CompiledExample};
use crate::example::Example;
use crate::learner::{Hypothesis, LearnError, LearnOptions, LearnStats};
use crate::search::{self, Examples, Kills, Searched};
use crate::space::HypothesisSpace;
use agenp_grammar::Asg;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
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
    /// candidate; built by the first solve that computes kill sets.
    plans: Vec<CandidatePlan>,
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
    /// Generic path: the compiled example itself.
    Compiled(CompiledExample),
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
            entries: Vec::new(),
            index: HashMap::new(),
            hasher: RandomState::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            incomplete: false,
            proven: None,
        }
    }

    /// The grammar `G` hypotheses extend.
    pub fn grammar(&self) -> &Asg {
        &self.grammar
    }

    /// Replaces the options. The next solve searches afresh if they differ
    /// from those of the last completed search, and recompiles every
    /// example if the compile options differ.
    pub fn set_options(&mut self, options: LearnOptions) {
        if options.compile != self.options.compile {
            for entry in &mut self.entries {
                entry.coverage = Coverage::Pending;
            }
            self.incomplete = false;
        }
        self.options = options;
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
                Coverage::Worlds(worlds) => worlds.len(),
                Coverage::Compiled(ex) => ex.trees.iter().map(|t| t.worlds.len()).sum(),
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
            self.plans = plan_candidates(self.space.candidates())?;
            stats.coverage_ns += elapsed_ns(started);
        }
        for entry in &mut self.entries {
            if !matches!(entry.coverage, Coverage::Pending) {
                continue;
            }
            let compiled = compile(&self.grammar, entry, &self.options, stats)?;
            let complete = compiled.trees.iter().all(|t| t.worlds_complete);
            self.incomplete |= !complete;
            entry.coverage = if worlds_usable && complete {
                Coverage::Worlds(kill_sets(&compiled, &self.plans, stats))
            } else {
                Coverage::Compiled(compiled)
            };
        }
        let monotone = self.monotone();
        for entry in &mut self.entries {
            match &entry.coverage {
                Coverage::Compiled(compiled) if monotone => {
                    entry.coverage = Coverage::Worlds(kill_sets(compiled, &self.plans, stats));
                }
                Coverage::Worlds(_) if !monotone => {
                    let compiled = compile(&self.grammar, entry, &self.options, stats)?;
                    entry.coverage = Coverage::Compiled(compiled);
                }
                _ => {}
            }
        }
        Ok(())
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
        let penalties = self
            .positives
            .iter()
            .chain(&self.negatives)
            .map(|o| o.penalty)
            .collect();
        let Searched { best, cut } = if self.monotone() {
            let examples = Examples {
                positives,
                penalties,
                coverage: self
                    .observed()
                    .map(|entry| match &entry.coverage {
                        Coverage::Worlds(worlds) => worlds.as_slice(),
                        _ => unreachable!("monotone entries hold worlds"),
                    })
                    .collect(),
            };
            search::monotone(
                candidates,
                &self.options,
                &examples,
                &mut stats.search_nodes,
            )
        } else {
            let examples = Examples {
                positives,
                penalties,
                coverage: self
                    .observed()
                    .map(|entry| match &entry.coverage {
                        Coverage::Compiled(compiled) => compiled,
                        _ => unreachable!("generic entries hold compiled examples"),
                    })
                    .collect(),
            };
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
                Coverage::Worlds(worlds) => worlds.iter().any(|w| w.disjoint(&chosen_set)),
                Coverage::Compiled(compiled) => {
                    let mut accepted = false;
                    for tree in &compiled.trees {
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

/// Compiles one entry, counting the work into `stats`.
fn compile(
    grammar: &Asg,
    entry: &Entry,
    options: &LearnOptions,
    stats: &mut LearnStats,
) -> Result<CompiledExample, LearnError> {
    let compiled = compile_example(grammar, &entry.example, entry.positive, options.compile)?;
    stats.examples_compiled += 1;
    stats.absorb_ground(compiled.ground_stats);
    stats.solver_calls += compiled.solver_calls;
    Ok(compiled)
}

/// The kill set of each world of a compiled example over the plans of a
/// constraint-only space, trees in parse order. Adds its time to
/// `stats.coverage_ns`.
fn kill_sets(
    compiled: &CompiledExample,
    plans: &[CandidatePlan],
    stats: &mut LearnStats,
) -> Vec<Kills> {
    let started = Instant::now();
    let kills = compiled
        .trees
        .iter()
        .flat_map(|tree| {
            tree.worlds.iter().map(move |world| {
                Kills::new(
                    plans.len(),
                    plans
                        .iter()
                        .enumerate()
                        .filter(|(_, plan)| tree.world_violates(world, plan))
                        .map(|(ci, _)| ci),
                )
            })
        })
        .collect();
    stats.coverage_ns += elapsed_ns(started);
    kills
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
