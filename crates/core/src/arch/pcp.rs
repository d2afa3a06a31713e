//! The Policy Checking Point (paper §III-A-2): the Quality Checker assesses
//! generated policies against the four quality requirements; the Violation
//! Detector screens generated (or externally shared) policy strings against
//! pre-defined restriction constraints before they reach the repository.

use agenp_asp::{Program, Rule, RunBudget};
use agenp_grammar::{Asg, AsgError, Cfg, EarleyParser, ParseOptions, ProdId};
use agenp_learn::{LearningSession, PlanTrie};
use agenp_policy::{Policy, QualityChecker, QualityReport, Request};

/// The verdict on one checked policy string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The policy passes all restrictions.
    Accepted,
    /// The policy violates the restrictions (it is not in the restricted
    /// language under the current context).
    Violation,
    /// The policy is not even in the underlying policy language.
    Malformed,
}

/// The Policy Checking Point.
#[derive(Clone, Debug, Default)]
pub struct Pcp {
    checker: QualityChecker,
    /// Restriction rules added on top of any GPM being checked — the
    /// "pre-defined restrictions" of §IV-C (domain-based and target-based).
    restrictions: Vec<(ProdId, Rule)>,
}

impl Pcp {
    /// A PCP with no restrictions.
    pub fn new() -> Pcp {
        Pcp::default()
    }

    /// Adds a restriction rule to screen policies with.
    pub fn add_restriction(&mut self, target: ProdId, rule: Rule) {
        self.restrictions.push((target, rule));
    }

    /// The registered restrictions.
    pub fn restrictions(&self) -> &[(ProdId, Rule)] {
        &self.restrictions
    }

    /// Screens policy strings against the GPM plus restrictions under a
    /// context (the Violation Detector).
    ///
    /// # Errors
    ///
    /// Propagates grounding failures.
    pub fn screen(
        &self,
        gpm: &Asg,
        context: &Program,
        policies: &[String],
    ) -> Result<Vec<(String, Verdict)>, AsgError> {
        self.screen_within(gpm, context, policies, &RunBudget::default())
    }

    /// [`Pcp::screen`] under an explicit [`RunBudget`]: every membership
    /// check (restricted and unrestricted) runs with the budget's atom,
    /// step, and deadline caps, so a pathological candidate cannot stall
    /// the screening pass.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures, including budget exhaustion.
    pub fn screen_within(
        &self,
        gpm: &Asg,
        context: &Program,
        policies: &[String],
        budget: &RunBudget,
    ) -> Result<Vec<(String, Verdict)>, AsgError> {
        self.screen_on(gpm, context, policies, budget, None)
            .map(|(screened, _)| screened)
    }

    /// [`Pcp::screen_within`], taking the verdicts from `worlds` when they
    /// decide every string. Also returns whether they did.
    pub(crate) fn screen_on(
        &self,
        gpm: &Asg,
        context: &Program,
        policies: &[String],
        budget: &RunBudget,
        worlds: Option<ScreenWorlds<'_>>,
    ) -> Result<(Vec<(String, Verdict)>, bool), AsgError> {
        let mut span = agenp_obs::span!(
            "core.pcp.screen",
            candidates = policies.len(),
            restrictions = self.restrictions.len(),
        );
        let from_worlds = worlds.and_then(|w| w.verdicts(gpm.cfg(), context, policies, budget));
        let on_worlds = from_worlds.is_some();
        let verdicts = match from_worlds {
            Some(verdicts) => verdicts,
            None => self.tree_verdicts(gpm, context, policies, budget)?,
        };
        let (mut accepted, mut violations, mut malformed) = (0u64, 0u64, 0u64);
        let out: Vec<(String, Verdict)> = policies
            .iter()
            .zip(verdicts)
            .map(|(p, verdict)| {
                *match verdict {
                    Verdict::Accepted => &mut accepted,
                    Verdict::Violation => &mut violations,
                    Verdict::Malformed => &mut malformed,
                } += 1;
                (p.clone(), verdict)
            })
            .collect();
        if span.is_live() {
            span.record("accepted", accepted);
            span.record("violations", violations);
            span.record("malformed", malformed);
            let r = agenp_obs::registry();
            r.counter("core.pcp.accepted").add(accepted);
            r.counter("core.pcp.violations").add(violations);
            r.counter("core.pcp.malformed").add(malformed);
        }
        Ok((out, on_worlds))
    }

    /// Each string's verdict by membership checks: grounding and solving
    /// its parse trees against the GPM plus restrictions, then against the
    /// GPM alone.
    fn tree_verdicts(
        &self,
        gpm: &Asg,
        context: &Program,
        policies: &[String],
        budget: &RunBudget,
    ) -> Result<Vec<Verdict>, AsgError> {
        let restricted = gpm
            .with_added_rules(&self.restrictions)?
            .with_context(context);
        let unrestricted = gpm.with_context(context);
        policies
            .iter()
            .map(|p| {
                Ok(if restricted.accepts_within(p, budget)? {
                    Verdict::Accepted
                } else if unrestricted.accepts_within(p, budget)? {
                    Verdict::Violation
                } else {
                    Verdict::Malformed
                })
            })
            .collect()
    }

    /// Assesses enforceable policies against a request space (the Quality
    /// Checker; see [`QualityChecker::assess`]).
    pub fn assess(&self, policies: &[Policy], space: &[Request]) -> QualityReport {
        self.checker.assess(policies, space)
    }
}

/// Verdicts read from the worlds of a learning session whose grammar plus
/// the hypothesis's constraints is the GPM being screened.
pub(crate) struct ScreenWorlds<'a> {
    pub session: &'a mut LearningSession,
    /// The plans of the hypothesis's constraints, then the restrictions'.
    pub plans: &'a PlanTrie,
    /// How many of `plans` are the hypothesis's.
    pub hypothesis: usize,
}

impl ScreenWorlds<'_> {
    /// Each string's verdict: accepted if a parse tree has a world that no
    /// plan holds on, a violation if it has one only the restrictions hold
    /// on, malformed otherwise. `None` if a parse tree's worlds cannot
    /// decide it: over the world cap, or not computable within `budget`.
    fn verdicts(
        self,
        cfg: &Cfg,
        context: &Program,
        policies: &[String],
        budget: &RunBudget,
    ) -> Option<Vec<Verdict>> {
        let parser = EarleyParser::new(cfg);
        policies
            .iter()
            .map(|p| {
                let mut verdict = Verdict::Malformed;
                for tree in parser.parse_with(&Cfg::tokenize(p), ParseOptions::default()) {
                    let worlds = self.session.worlds_within(&tree, context, budget).ok()?;
                    if !worlds.complete() {
                        return None;
                    }
                    for world in worlds.worlds() {
                        match worlds.kills(world, self.plans).iter().next() {
                            None => return Some(Verdict::Accepted),
                            Some(first) if first as usize >= self.hypothesis => {
                                verdict = Verdict::Violation;
                            }
                            Some(_) => {}
                        }
                    }
                }
                Some(verdict)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screening_verdicts() {
        let gpm: Asg = r#"
            policy -> "share" level
            level -> "public" { lvl(0). }
            level -> "secret" { lvl(2). }
        "#
        .parse()
        .unwrap();
        let mut pcp = Pcp::new();
        // Restriction: never share anything above level 1.
        pcp.add_restriction(
            ProdId::from_index(0),
            ":- lvl(X)@2, X > 1.".parse().unwrap(),
        );
        let ctx = Program::new();
        let verdicts = pcp
            .screen(
                &gpm,
                &ctx,
                &[
                    "share public".to_owned(),
                    "share secret".to_owned(),
                    "share everything".to_owned(),
                ],
            )
            .unwrap();
        assert_eq!(verdicts[0].1, Verdict::Accepted);
        assert_eq!(verdicts[1].1, Verdict::Violation);
        assert_eq!(verdicts[2].1, Verdict::Malformed);
        assert_eq!(pcp.restrictions().len(), 1);
    }

    #[test]
    fn screening_respects_the_run_budget() {
        let gpm: Asg = r#"
            policy -> "share" level
            level -> "public" { lvl(0). }
            level -> "secret" { lvl(2). }
        "#
        .parse()
        .unwrap();
        let pcp = Pcp::new();
        let ctx = Program::new();
        let err = pcp
            .screen_within(
                &gpm,
                &ctx,
                &["share public".to_owned()],
                &RunBudget::default().with_max_atoms(0),
            )
            .unwrap_err();
        assert!(
            matches!(err, AsgError::Exhausted(_) | AsgError::Ground(_)),
            "expected a budget error, got {err:?}"
        );
    }
}
