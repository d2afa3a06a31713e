//! The Policy Refinement Point (paper §III-A): takes the PBMS-provided
//! characterization of the policy space (a CFG plus high-level constraints,
//! i.e. an ASG) and the current context, and *generates* the concrete
//! policies the AMS will operate with.

use crate::arch::pcp::{Pcp, ScreenWorlds, Verdict};
use agenp_asp::{Program, Rule, RunBudget};
use agenp_grammar::{Asg, AsgError, GenOptions, ParseTree, ProdId};
use agenp_learn::{CandidatePlan, LearningSession, PlanTrie};
use agenp_policy::{rule_from_text, PolicyRule};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Translates generated policy strings into enforceable [`PolicyRule`]s.
///
/// The canonical translator understands the `agenp-policy` textual form;
/// scenarios provide their own translators for domain-specific languages.
///
/// `Send + Sync` so the AMS embedding the translator stays shareable
/// across the serving tier's threads.
pub trait PolicyTranslator: fmt::Debug + Send + Sync {
    /// Translates one generated string; `None` if the string is
    /// informational only (not directly enforceable).
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule>;
}

/// Translator for the canonical `permit/deny if …` textual form.
#[derive(Clone, Copy, Debug, Default)]
pub struct CanonicalTranslator;

impl PolicyTranslator for CanonicalTranslator {
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule> {
        rule_from_text(id, text).ok()
    }
}

/// Adapter turning a plain function into a [`PolicyTranslator`], for
/// scenario-specific policy languages.
///
/// ```
/// use agenp_core::arch::{FnTranslator, PolicyTranslator};
/// use agenp_policy::{Cond, Category, Effect, PolicyRule};
///
/// let t = FnTranslator(|text, id| {
///     let task = text.strip_prefix("accept ")?;
///     Some(PolicyRule::new(
///         id,
///         Effect::Permit,
///         Cond::eq(Category::Action, "task", task),
///     ))
/// });
/// assert!(t.translate("accept park", "r0").is_some());
/// assert!(t.translate("reject park", "r0").is_none());
/// ```
pub struct FnTranslator(pub fn(&str, &str) -> Option<PolicyRule>);

impl std::fmt::Debug for FnTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnTranslator(..)")
    }
}

impl PolicyTranslator for FnTranslator {
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule> {
        (self.0)(text, id)
    }
}

/// The Policy Refinement Point.
#[derive(Clone, Copy, Debug)]
pub struct Prep {
    /// Generation bounds used when enumerating the GPM's language.
    pub gen_options: GenOptions,
    /// Resource budget (atoms, steps, deadline) applied to every
    /// generation run.
    pub budget: RunBudget,
}

impl Default for Prep {
    fn default() -> Prep {
        Prep {
            gen_options: GenOptions {
                max_depth: 10,
                max_trees: 20_000,
            },
            budget: RunBudget::default(),
        }
    }
}

impl Prep {
    /// A PReP with default bounds.
    pub fn new() -> Prep {
        Prep::default()
    }

    /// Generates the policy strings admitted by `gpm` under `context` —
    /// the language `L(G(C))` up to the generation bounds.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures from annotation programs, and
    /// [`AsgError::Exhausted`] when the configured budget runs out.
    pub fn generate(&self, gpm: &Asg, context: &Program) -> Result<Vec<String>, AsgError> {
        gpm.with_context(context)
            .language_within(self.gen_options, &self.budget)
    }

    /// Generates `gpm`'s policy strings under `context` and screens them
    /// through `pcp`: [`Prep::generate`], then [`Pcp::screen_within`] under
    /// this PReP's budget, with the same strings in the same order, the
    /// same verdicts and the same errors. The stats carry the path and
    /// the two stages' times.
    ///
    /// Both stages read `learned`'s worlds instead of grounding every tree
    /// and string when all of these hold (otherwise they take the trees
    /// path, [`RefreshPath::Trees`]):
    ///
    /// * `gpm` is the session's grammar plus `learned.hypothesis`, and the
    ///   session's space has constraints only;
    /// * every hypothesis rule and PCP restriction is a safe constraint on
    ///   a production of the grammar ([`CandidatePlan::new`]). A
    ///   hypothesis rule that is a candidate of the session's space takes
    ///   the session's plan ([`LearningSession::candidate_plan`]) instead
    ///   of a new one;
    /// * the budget leaves solver steps unlimited and grounding at least
    ///   the default atom cap: a tighter cap can fall between a tree's
    ///   program and the same program with the constraints added, which
    ///   only the trees path grounds;
    /// * every tree's worlds are complete (within the compile options'
    ///   world cap) and computable within the budget. A string whose
    ///   parse trees fail this sends screening alone to the trees path.
    ///
    /// # Errors
    ///
    /// What [`Prep::generate`] and [`Pcp::screen_within`] return.
    pub fn generate_screened(
        &self,
        gpm: &Asg,
        context: &Program,
        pcp: &Pcp,
        learned: Option<Learned<'_>>,
    ) -> Result<(Vec<(String, Verdict)>, RefreshStats), AsgError> {
        let mut stats = RefreshStats::default();
        let started = Instant::now();
        let mut worlds = learned.and_then(|mut learned| {
            let plans = self.plans(&mut learned, pcp)?;
            Some((learned, plans))
        });
        let generated = worlds.as_mut().and_then(|(learned, plans)| {
            let hypothesis = learned.hypothesis.len();
            generate_on_worlds(learned, plans, hypothesis, context, &self.budget)
        });
        let strings = match generated {
            Some(strings) => strings,
            None => {
                worlds = None;
                self.generate(gpm, context)?
            }
        };
        stats.generate_ns = elapsed_ns(started);
        let started = Instant::now();
        let (screened, on_worlds) = match &mut worlds {
            Some((learned, plans)) => {
                let worlds = ScreenWorlds {
                    session: learned.session,
                    plans,
                    hypothesis: learned.hypothesis.len(),
                };
                pcp.screen_on(gpm, context, &strings, &self.budget, Some(worlds))?
            }
            None => pcp.screen_on(gpm, context, &strings, &self.budget, None)?,
        };
        stats.screen_ns = elapsed_ns(started);
        if on_worlds {
            stats.path = RefreshPath::Worlds;
        }
        Ok((screened, stats))
    }

    /// One trie of the plans of `learned`'s hypothesis (the session's, for
    /// its candidates), then of `pcp`'s restrictions, if the worlds path
    /// applies to them under this PReP's budget.
    fn plans(&self, learned: &mut Learned<'_>, pcp: &Pcp) -> Option<PlanTrie> {
        let caps = RunBudget::default();
        if self.budget.max_steps != caps.max_steps
            || self.budget.max_atoms < caps.max_atoms
            || !learned.session.constraints_only()
        {
            return None;
        }
        let productions = learned.session.grammar().cfg().production_count();
        let plan = |(target, rule): &(ProdId, Rule)| {
            (target.index() < productions)
                .then(|| CandidatePlan::new(*target, rule))
                .flatten()
        };
        let session = &mut *learned.session;
        let hypothesis: Vec<Arc<CandidatePlan>> = learned
            .hypothesis
            .iter()
            .map(|pair| {
                session
                    .candidate_plan(pair.0, &pair.1)
                    .or_else(|| plan(pair).map(Arc::new))
            })
            .collect::<Option<_>>()?;
        let restrictions: Vec<CandidatePlan> =
            pcp.restrictions().iter().map(plan).collect::<Option<_>>()?;
        Some(PlanTrie::new(
            hypothesis.iter().map(|p| &**p).chain(&restrictions),
        ))
    }
}

/// A learning session whose grammar plus `hypothesis` is the GPM being
/// generated from (see [`Prep::generate_screened`]).
#[derive(Debug)]
pub struct Learned<'a> {
    /// The session, whose worlds both stages read and extend.
    pub session: &'a mut LearningSession,
    /// The learned rules, each with its target production.
    pub hypothesis: &'a [(ProdId, Rule)],
    /// The trees of the session grammar's CFG within the PReP's
    /// generation bounds, in [`Generator::trees`] order.
    ///
    /// [`Generator::trees`]: agenp_grammar::Generator::trees
    pub trees: &'a [ParseTree],
}

/// Which evaluation a refresh generated and screened on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefreshPath {
    /// Both stages read the learning session's worlds.
    Worlds,
    /// A stage ran [`Prep::generate`] or [`Pcp::screen_within`], which
    /// ground and solve every tree and string.
    #[default]
    Trees,
}

impl RefreshPath {
    /// `"worlds"` or `"trees"`, as telemetry records it.
    pub fn name(self) -> &'static str {
        match self {
            RefreshPath::Worlds => "worlds",
            RefreshPath::Trees => "trees",
        }
    }
}

/// What regenerating the policies from a GPM cost, stage by stage, in
/// nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// The evaluation generation and screening ran on.
    pub path: RefreshPath,
    /// Generating the admitted strings.
    pub generate_ns: u64,
    /// Screening them through the PCP.
    pub screen_ns: u64,
    /// Translating the accepted strings into policy rules.
    pub translate_ns: u64,
    /// Committing the result and publishing the snapshot: the new GPM
    /// (and, in [`Ams::adapt`], its stored version) and the policy.
    ///
    /// [`Ams::adapt`]: crate::arch::Ams::adapt
    pub publish_ns: u64,
}

/// The texts of the trees with a world none of the first `hypothesis`
/// plans of `plans` holds on, sorted and deduplicated as
/// [`Asg::language_within`] returns them. `None` if a tree's worlds cannot
/// decide it: over the world cap, or not computable within `budget`.
fn generate_on_worlds(
    learned: &mut Learned<'_>,
    plans: &PlanTrie,
    hypothesis: usize,
    context: &Program,
    budget: &RunBudget,
) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for tree in learned.trees {
        let worlds = learned.session.worlds_within(tree, context, budget).ok()?;
        if !worlds.complete() {
            return None;
        }
        if worlds.admits(plans, hypothesis) {
            out.push(tree.text());
        }
    }
    out.sort();
    out.dedup();
    Some(out)
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_grammar() -> Asg {
        r#"
            policy -> effect "if" "subject" "role" "=" role
            effect -> "permit" { e(permit). }
            effect -> "deny"   { e(deny). }
            role -> "dba"    { :- blocked(dba). }
            role -> "intern" { :- blocked(intern). }
        "#
        .parse()
        .unwrap()
    }

    #[test]
    fn generates_contextual_language() {
        let g = gate_grammar();
        let prep = Prep::new();
        let open: Program = Program::new();
        let all = prep.generate(&g, &open).unwrap();
        assert_eq!(all.len(), 4); // 2 effects × 2 roles
        let blocked: Program = "blocked(intern).".parse().unwrap();
        let some = prep.generate(&g, &blocked).unwrap();
        assert_eq!(some.len(), 2);
        assert!(some.iter().all(|s| s.contains("dba")));
    }

    #[test]
    fn canonical_translator_skips_garbage() {
        assert!(CanonicalTranslator.translate("not a policy", "x").is_none());
        assert!(CanonicalTranslator
            .translate("permit if subject role = dba", "x")
            .is_some());
    }
}
