//! The Autonomous Management System: one coalition party wiring together
//! PReP, PAdaP, PCP, PIP, the repositories, and the shared-snapshot
//! PDP/PEP decision path (paper Fig. 2; `docs/SERVING.md`).
//!
//! Decision-making is split out of the mutable AMS: every control-plane
//! mutation ([`Ams::adopt_gpm`], [`Ams::set_context`],
//! [`Ams::refresh_policies`], [`Ams::adapt`]) publishes an immutable
//! [`DecisionSnapshot`] through the AMS's [`Lifecycle`], which applies the
//! [`DegradedMode`] rule, and [`Ams::decide`] — a `&self` method — serves
//! against whatever snapshot is current. Worker
//! threads can clone [`Ams::serving_handle`] and decide concurrently while
//! the control loop builds the next snapshot.

use crate::arch::goals::{GoalMonitor, GoalPolicy, GoalViolation};
use crate::arch::lifecycle::{DegradedMode, Lifecycle, Trigger};
use crate::arch::padap::{Adaptation, Feedback, Padap};
use crate::arch::pcp::{Pcp, Verdict};
use crate::arch::prep::{
    elapsed_ns, CanonicalTranslator, Learned, PolicyTranslator, Prep, RefreshStats,
};
use crate::arch::repr::RepresentationsRepository;
use crate::arch::serve::{DecisionOutcome, DecisionSnapshot, PdpHandle};
use agenp_asp::{Exhausted, Program, Rule, RunBudget};
use agenp_grammar::{Asg, AsgError, Generator, ParseTree, ProdId};
use agenp_learn::{HypothesisSpace, LearnError, LearnOptions};
use agenp_policy::{CombiningAlg, Decision, Policy, PolicyRepository, QualityReport, Request};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Generated policy strings with their PCP verdicts.
type Screened = Vec<(String, Verdict)>;

/// A learned GPM with the hypothesis it adds to the session's grammar.
type LearnedGpm<'a> = (&'a Arc<Asg>, &'a [(ProdId, Rule)]);

/// Errors surfaced by the AMS control loop.
///
/// `Clone` because a degraded [`DecisionSnapshot`] carries the error that
/// degraded it, and every [`DecisionOutcome`] served from that snapshot
/// hands the caller its own copy.
#[derive(Clone, Debug)]
pub enum AmsError {
    /// Policy generation failed.
    Generation(AsgError),
    /// Adaptation (learning) failed.
    Learning(LearnError),
    /// The party cannot serve at all: no valid snapshot exists (fresh
    /// start, state lost in a crash-restart, or the shared repository is
    /// unreachable). Decisions deny by default until a refresh succeeds.
    Unavailable(String),
}

impl fmt::Display for AmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmsError::Generation(e) => write!(f, "policy generation failed: {e}"),
            AmsError::Learning(e) => write!(f, "policy adaptation failed: {e}"),
            AmsError::Unavailable(why) => write!(f, "party unavailable: {why}"),
        }
    }
}

impl AmsError {
    /// The resource-exhaustion kind behind this error, if any. Lets callers
    /// distinguish recoverable budget/deadline overruns (degrade, retry
    /// later) from structural failures (bad grammar, unsatisfiable
    /// feedback).
    pub fn exhaustion(&self) -> Option<Exhausted> {
        match self {
            AmsError::Generation(AsgError::Exhausted(kind)) => Some(*kind),
            AmsError::Generation(AsgError::Ground(g)) => g.exhausted(),
            AmsError::Generation(AsgError::BadProduction(_)) => None,
            AmsError::Learning(LearnError::Exhausted(kind)) => Some(*kind),
            AmsError::Learning(LearnError::Budget) => Some(Exhausted::Nodes),
            AmsError::Learning(LearnError::Ground(g)) => g.exhausted(),
            AmsError::Learning(_) => None,
            AmsError::Unavailable(_) => None,
        }
    }
}

impl std::error::Error for AmsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AmsError::Generation(e) => Some(e),
            AmsError::Learning(e) => Some(e),
            AmsError::Unavailable(_) => None,
        }
    }
}

impl From<AsgError> for AmsError {
    fn from(e: AsgError) -> AmsError {
        AmsError::Generation(e)
    }
}

impl From<LearnError> for AmsError {
    fn from(e: LearnError) -> AmsError {
        AmsError::Learning(e)
    }
}

/// An Autonomous Management System instance.
#[derive(Debug)]
pub struct Ams {
    /// Party name (for coalition interactions and diagnostics).
    pub name: String,
    /// The current (possibly learned) GPM, shared with the served snapshot
    /// and the representations repository.
    gpm: Arc<Asg>,
    /// `H` while `gpm` is the PAdaP session's grammar plus `H`, so a
    /// refresh can read the session's worlds; `None` after
    /// [`Ams::adopt_gpm`].
    learned: Option<Vec<(ProdId, Rule)>>,
    /// The session grammar's CFG trees within the PReP's bounds,
    /// enumerated by the first refresh that needs them.
    trees: Option<Vec<ParseTree>>,
    repr_repo: RepresentationsRepository,
    policy_repo: PolicyRepository,
    lifecycle: Lifecycle,
    combining: CombiningAlg,
    prep: Prep,
    /// Learns from the PBMS-provided initial GPM (CFG + high-level
    /// constraints), kept pristine in its session, plus every observation.
    padap: Padap,
    pcp: Pcp,
    translator: Box<dyn PolicyTranslator>,
    context: Program,
    /// Behind a `Mutex` so `decide(&self)` can feed the monitor from any
    /// serving thread; the lock is held only for two counter bumps.
    goals: Mutex<GoalMonitor>,
    budget: RunBudget,
}

impl Ams {
    /// Creates an AMS from the PBMS characterization: the initial grammar
    /// and the hypothesis space the PAdaP may learn within.
    pub fn new(name: &str, initial_gpm: Asg, space: HypothesisSpace) -> Ams {
        let gpm = Arc::new(initial_gpm.clone());
        let mut repr_repo = RepresentationsRepository::new();
        repr_repo.store(Arc::clone(&gpm), "initial");
        let mut ams = Ams {
            name: name.to_owned(),
            gpm,
            learned: Some(Vec::new()),
            trees: None,
            repr_repo,
            policy_repo: PolicyRepository::new(),
            lifecycle: Lifecycle::default(),
            combining: CombiningAlg::DenyOverrides,
            prep: Prep::new(),
            padap: Padap::new(initial_gpm, space),
            pcp: Pcp::new(),
            translator: Box::new(CanonicalTranslator),
            context: Program::new(),
            goals: Mutex::new(GoalMonitor::new(Vec::new(), 32)),
            budget: RunBudget::default(),
        };
        ams.publish(Trigger::Changed);
        ams
    }

    /// Applies a [`RunBudget`] to every long-running call the AMS makes:
    /// policy generation (grounding + solving per candidate tree), PCP
    /// screening, membership checks, and adaptation (the learner's node
    /// budget and deadline).
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
        self.prep.budget = budget;
        self.padap.set_options(
            LearnOptions::default()
                .with_deadline(budget.deadline)
                .with_max_nodes(budget.max_nodes),
        );
    }

    /// The currently configured run budget.
    pub fn run_budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Sets what happens to the serving tier when a refresh fails (see
    /// [`DegradedMode`]). Switching to [`DegradedMode::ServeLastGood`]
    /// drops a held deny-by-default refresh error, so the next publish
    /// serves the last good policy set.
    pub fn set_degraded_mode(&mut self, mode: DegradedMode) {
        self.lifecycle.set_mode(mode);
    }

    /// The configured degraded-mode behavior.
    pub fn degraded_mode(&self) -> DegradedMode {
        self.lifecycle.mode()
    }

    /// A cheap-to-clone, `Send + Sync` handle onto this AMS's serving
    /// tier. Worker threads decide through the handle while the AMS
    /// mutates and republishes; a clone stays wired to this AMS for its
    /// whole life.
    pub fn serving_handle(&self) -> PdpHandle {
        self.lifecycle.handle().clone()
    }

    /// The snapshot currently being served (diagnostics; deciding through
    /// [`Ams::decide`] or a [`PdpHandle`] is the normal path).
    pub fn current_snapshot(&self) -> std::sync::Arc<DecisionSnapshot> {
        self.lifecycle.handle().snapshot()
    }

    /// Installs the PBMS-provided goal policies (paper policy type (ii)),
    /// assessed over a sliding window of `window` decisions.
    pub fn set_goals(&mut self, goals: Vec<GoalPolicy>, window: usize) {
        self.goals = Mutex::new(GoalMonitor::new(goals, window));
    }

    /// The goal monitor (metrics can be fed externally too).
    pub fn goals_mut(&mut self) -> &mut GoalMonitor {
        self.goals.get_mut().expect("goal monitor poisoned")
    }

    /// Unmet goals right now.
    pub fn goal_violations(&self) -> Vec<GoalViolation> {
        self.goals
            .lock()
            .expect("goal monitor poisoned")
            .violations()
    }

    /// The Fig. 2 trigger: adapt only when the system is not meeting its
    /// goals. Returns `None` when all goals are met (no adaptation ran).
    ///
    /// # Errors
    ///
    /// Propagates adaptation failures.
    pub fn adapt_if_off_goal(&mut self) -> Result<Option<Adaptation>, AmsError> {
        if !self.goals_mut().adaptation_needed() {
            return Ok(None);
        }
        let adaptation = self.adapt()?;
        self.goals_mut().reset();
        Ok(Some(adaptation))
    }

    /// Replaces the policy-string translator.
    pub fn set_translator(&mut self, t: Box<dyn PolicyTranslator>) {
        self.translator = t;
    }

    /// The PCP, for registering restrictions.
    pub fn pcp_mut(&mut self) -> &mut Pcp {
        &mut self.pcp
    }

    /// Updates the current context (normally fed by the PIP) and publishes
    /// a snapshot so in-flight deciders see the policies and context move
    /// together. The snapshot stays degraded while a deny-by-default
    /// refresh failure is unrecovered.
    pub fn set_context(&mut self, context: Program) {
        self.context = context;
        self.publish(Trigger::Changed);
    }

    /// The current context.
    pub fn context(&self) -> &Program {
        &self.context
    }

    /// The current GPM.
    pub fn gpm(&self) -> &Asg {
        &self.gpm
    }

    /// Replaces the current GPM directly (e.g. when adopting a model shared
    /// by a trusted coalition partner), records it, and publishes a
    /// snapshot — degraded while a deny-by-default refresh failure is
    /// unrecovered. An `Arc<Asg>` (say, a stored version rolled back to)
    /// is shared, not copied.
    pub fn adopt_gpm(&mut self, gpm: impl Into<Arc<Asg>>, note: &str) {
        let gpm = gpm.into();
        self.repr_repo.store(Arc::clone(&gpm), note);
        self.gpm = gpm;
        self.learned = None;
        self.publish(Trigger::Changed);
    }

    /// The representations repository (GPM versions).
    pub fn representations(&self) -> &RepresentationsRepository {
        &self.repr_repo
    }

    /// The policy repository.
    pub fn policies(&self) -> &PolicyRepository {
        &self.policy_repo
    }

    /// Publishes a snapshot of the current policies, GPM and context for
    /// `trigger`, as the lifecycle decides (see [`Lifecycle::publish`]).
    fn publish(&mut self, trigger: Trigger<'_>) {
        self.lifecycle.publish(trigger, || {
            DecisionSnapshot::new(self.policy_repo.policies().to_vec(), self.combining)
                .with_gpm(Arc::clone(&self.gpm))
                .with_context(self.context.clone())
        });
    }

    /// PReP step: regenerates the policy repository from the current GPM
    /// and context, screening candidates through the PCP under the run
    /// budget, and publishes the result as a new snapshot. Returns the
    /// generated strings with their verdicts.
    ///
    /// While the GPM is the learned one (the initial GPM plus what
    /// [`Ams::adapt`] learned, not an adopted one), generation and
    /// screening read the worlds of the PAdaP's learning session where
    /// [`Prep::generate_screened`] allows, with the same outcome.
    ///
    /// On failure the serving tier degrades per [`DegradedMode`]:
    /// deny-by-default publishes a denying snapshot carrying the error;
    /// serve-last-good leaves the previous snapshot in place.
    ///
    /// # Errors
    ///
    /// [`AmsError::Generation`] on grounding failures.
    pub fn refresh_policies(&mut self) -> Result<Vec<(String, Verdict)>, AmsError> {
        self.refresh(None).map(|(screened, _)| screened)
    }

    /// [`Ams::refresh_policies`] from `candidate`, a GPM with the
    /// hypothesis it adds to the session's grammar (or the current GPM).
    /// A candidate becomes the current GPM only if the refresh succeeds,
    /// so the GPM and the policies served from it never part.
    fn refresh(
        &mut self,
        candidate: Option<LearnedGpm<'_>>,
    ) -> Result<(Screened, RefreshStats), AmsError> {
        let mut span = agenp_obs::span!("ams.refresh");
        let pairs_before = self.padap.session().world_stats();
        match self.generate_policies(candidate) {
            Ok((screened, policy, mut stats)) => {
                if span.is_live() {
                    let pairs = self.padap.session().world_stats();
                    span.record("screened", screened.len());
                    span.record("path", stats.path.name());
                    span.record("pairs", pairs.lookups - pairs_before.lookups);
                    span.record("pairs_computed", pairs.computed - pairs_before.computed);
                }
                let started = Instant::now();
                if let Some((gpm, hypothesis)) = candidate {
                    self.gpm = Arc::clone(gpm);
                    self.learned = Some(hypothesis.to_vec());
                }
                self.policy_repo.replace_all(vec![policy]);
                self.publish(Trigger::Refreshed);
                stats.publish_ns = elapsed_ns(started);
                Ok((screened, stats))
            }
            Err(e) => {
                span.record("error", true);
                span.record(
                    "degraded_mode",
                    match self.lifecycle.mode() {
                        DegradedMode::DenyByDefault => "deny_by_default",
                        DegradedMode::ServeLastGood => "serve_last_good",
                    },
                );
                self.publish(Trigger::RefreshFailed(&e));
                // A degraded-mode transition is exactly when an operator
                // wants the telemetry that led up to it: flush the flight
                // recorder through the installed exporter, if any.
                drop(span);
                agenp_obs::dump_if_enabled("degraded");
                Err(e)
            }
        }
    }

    /// Generates the policy strings of `candidate` (or the current GPM)
    /// under the current context, screens them through the PCP, and
    /// translates the accepted ones into one policy. Changes no state but
    /// the session's worlds and the enumerated trees.
    fn generate_policies(
        &mut self,
        candidate: Option<LearnedGpm<'_>>,
    ) -> Result<(Screened, Policy, RefreshStats), AmsError> {
        let (gpm, hypothesis) = match candidate {
            Some((gpm, hypothesis)) => (&**gpm, Some(hypothesis)),
            None => (&*self.gpm, self.learned.as_deref()),
        };
        let learned = hypothesis.map(|hypothesis| {
            let (prep, padap) = (&self.prep, &mut self.padap);
            let trees = self.trees.get_or_insert_with(|| {
                Generator::new(padap.session().grammar().cfg()).trees(prep.gen_options)
            });
            Learned {
                session: padap.session_mut(),
                hypothesis,
                trees,
            }
        });
        let (screened, mut stats) =
            self.prep
                .generate_screened(gpm, &self.context, &self.pcp, learned)?;
        let started = Instant::now();
        let rules = screened
            .iter()
            .filter(|(_, v)| *v == Verdict::Accepted)
            .enumerate()
            .filter_map(|(i, (s, _))| {
                self.translator
                    .translate(s, &format!("{}-r{}", self.name, i))
            })
            .collect();
        stats.translate_ns = elapsed_ns(started);
        let policy = Policy {
            id: format!("{}-generated", self.name),
            rules,
            combining: CombiningAlg::DenyOverrides,
            obligations: Vec::new(),
        };
        Ok((screened, policy, stats))
    }

    /// PDP + PEP step: decides a request against the currently served
    /// snapshot — policies, enforcement, degradation error, and epoch in
    /// one [`DecisionOutcome`]. A `&self` method: any
    /// number of threads may call it (or [`PdpHandle::decide`] on a cloned
    /// handle) concurrently with control-plane mutations. The outcome
    /// feeds the goal monitor (`grant_rate`, `gap_rate`).
    pub fn decide(&self, request: &Request) -> DecisionOutcome {
        let outcome = self.lifecycle.handle().decide(request);
        let mut goals = self.goals.lock().expect("goal monitor poisoned");
        goals.observe_bool("grant_rate", outcome.decision == Decision::Permit);
        goals.observe_bool(
            "gap_rate",
            matches!(
                outcome.decision,
                Decision::NotApplicable | Decision::Indeterminate
            ),
        );
        outcome
    }

    /// Batched PDP + PEP step: every request in the slice is decided
    /// against **one** snapshot (see [`PdpHandle::decide_batch`] for the
    /// consistency contract), and the goal monitor fed under a single lock
    /// acquisition instead of one per request.
    pub fn decide_batch(&self, requests: &[Request]) -> Vec<DecisionOutcome> {
        let outcomes = self.lifecycle.handle().decide_batch(requests);
        let mut goals = self.goals.lock().expect("goal monitor poisoned");
        for outcome in &outcomes {
            goals.observe_bool("grant_rate", outcome.decision == Decision::Permit);
            goals.observe_bool(
                "gap_rate",
                matches!(
                    outcome.decision,
                    Decision::NotApplicable | Decision::Indeterminate
                ),
            );
        }
        outcomes
    }

    /// Records observed feedback for the next adaptation round. Nothing is
    /// compiled until [`Ams::adapt`].
    pub fn observe(&mut self, feedback: Feedback) {
        self.padap.observe(feedback);
    }

    /// Number of feedback observations so far.
    pub fn feedback_len(&self) -> usize {
        self.padap.observations()
    }

    /// PAdaP step: re-learns the GPM from the initial grammar plus all
    /// accumulated feedback, regenerates (and republishes) policies from
    /// it, and stores the new version. The PAdaP's learning session
    /// compiles only the feedback observed since the last round and skips
    /// the search while the last optimum still covers it. A failed
    /// regeneration degrades per [`DegradedMode`] like any refresh and
    /// commits nothing: the current GPM and the representations repository
    /// stay as they were.
    ///
    /// # Errors
    ///
    /// [`AmsError::Learning`] if the feedback admits no hypothesis;
    /// [`AmsError::Generation`] if regeneration fails.
    pub fn adapt(&mut self) -> Result<Adaptation, AmsError> {
        let started = Instant::now();
        let mut span = agenp_obs::span!("ams.adapt", observations = self.padap.observations());
        let mut adaptation = match self.padap.adapt() {
            Ok(a) => a,
            Err(e) => {
                span.record("error", true);
                return Err(e.into());
            }
        };
        let stats = &adaptation.stats;
        span.record("constraints", adaptation.hypothesis.rules.len());
        span.record("examples_compiled", stats.examples_compiled);
        span.record("compile_ns", stats.compile_ns);
        span.record("coverage_ns", stats.coverage_ns);
        span.record("search_ns", stats.search_ns);
        span.record("search_skipped", stats.search_skipped);
        span.record("learn_ns", adaptation.learn_ns);
        match self.refresh(Some((&adaptation.gpm, &adaptation.hypothesis.rules))) {
            Ok((_, refresh)) => adaptation.refresh = refresh,
            Err(e) => {
                span.record("error", true);
                return Err(e);
            }
        }
        let stored = Instant::now();
        self.repr_repo.store(
            Arc::clone(&adaptation.gpm),
            &format!("adapted from {} observations", adaptation.examples_used),
        );
        let refresh = &mut adaptation.refresh;
        refresh.publish_ns += elapsed_ns(stored);
        span.record("path", refresh.path.name());
        span.record("generate_ns", refresh.generate_ns);
        span.record("screen_ns", refresh.screen_ns);
        span.record("translate_ns", refresh.translate_ns);
        span.record("publish_ns", refresh.publish_ns);
        adaptation.adapt_ns = elapsed_ns(started);
        Ok(adaptation)
    }

    /// Quality assessment of the current policy repository over a request
    /// space (PCP Quality Checker).
    pub fn quality(&self, space: &[Request]) -> QualityReport {
        self.pcp.assess(self.policy_repo.policies(), space)
    }

    /// Does the current GPM admit `policy` under the current context?
    ///
    /// # Errors
    ///
    /// [`AmsError::Generation`] on grounding failures.
    pub fn admits(&self, policy: &str) -> Result<bool, AmsError> {
        Ok(self
            .gpm
            .with_context(&self.context)
            .accepts_within(policy, &self.budget)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_grammar::ProdId;
    use agenp_policy::Enforcement;

    fn gate() -> (Asg, HypothesisSpace) {
        let g: Asg = r#"
            policy -> effect "if" "subject" "clearance" "=" level
            effect -> "permit" { e(permit). }
            effect -> "deny"   { e(deny). }
            level -> "low"  { lvl(low). }
            level -> "high" { lvl(high). }
        "#
        .parse()
        .unwrap();
        let space = HypothesisSpace::from_texts(&[
            (ProdId::from_index(1), ":- lockdown."),
            (ProdId::from_index(2), ":- not lockdown."),
        ]);
        (g, space)
    }

    #[test]
    fn full_loop_generates_decides_adapts() {
        let (g, space) = gate();
        let mut ams = Ams::new("alpha", g, space);
        // Initially everything is generated.
        let screened = ams.refresh_policies().unwrap();
        assert_eq!(screened.len(), 4);
        let req = Request::new().subject("clearance", "high");
        let d0 = ams.decide(&req);
        // Both permit and deny rules exist → deny-overrides → Deny.
        assert_eq!(d0.decision(), Decision::Deny);
        assert!(d0.error.is_none());

        // Feedback: under lockdown, permits are invalid.
        let lockdown: Program = "lockdown.".parse().unwrap();
        ams.set_context(lockdown.clone());
        ams.observe(Feedback::invalid(
            "permit if subject clearance = high",
            lockdown.clone(),
        ));
        ams.observe(Feedback::invalid(
            "permit if subject clearance = low",
            lockdown.clone(),
        ));
        ams.observe(Feedback::valid(
            "deny if subject clearance = high",
            lockdown.clone(),
        ));
        let adaptation = ams.adapt().unwrap();
        assert!(!adaptation.hypothesis.rules.is_empty());
        // Under lockdown only deny policies remain.
        assert!(!ams.admits("permit if subject clearance = high").unwrap());
        assert!(ams.admits("deny if subject clearance = high").unwrap());
        let outcome = ams.decide(&req);
        assert_eq!(outcome.decision, Decision::Deny);
        assert_eq!(outcome.enforcement, Some(Enforcement::Blocked));
        // Version history: initial + adapted.
        assert_eq!(ams.representations().len(), 2);
    }

    #[test]
    fn refresh_translates_the_language_admitted_in_context() {
        let g: Asg = r#"
            policy -> effect "if" "subject" "role" "=" role
            effect -> "permit" { e(permit). }
            effect -> "deny"   { e(deny). }
            role -> "dba"    { :- blocked(dba). }
            role -> "intern" { :- blocked(intern). }
        "#
        .parse()
        .unwrap();
        let mut ams = Ams::new("prep", g, HypothesisSpace::new());
        ams.set_context("blocked(intern).".parse().unwrap());
        ams.refresh_policies().unwrap();
        let rules: Vec<usize> = ams
            .policies()
            .policies()
            .iter()
            .map(|p| p.rules.len())
            .collect();
        assert_eq!(rules, vec![2]);
        let dba = Request::new().subject("role", "dba");
        assert_ne!(ams.decide(&dba).decision, Decision::NotApplicable);
    }

    #[test]
    fn budget_exhaustion_is_recoverable_and_denies_by_default() {
        let (g, space) = gate();
        let mut ams = Ams::new("gamma", g, space);
        // An absurdly small atom budget: generation must fail with a typed
        // exhaustion error, never a panic.
        ams.set_run_budget(RunBudget::default().with_max_atoms(1));
        let err = ams.refresh_policies().unwrap_err();
        assert_eq!(err.exhaustion(), Some(Exhausted::Atoms));
        // The failed refresh published a degraded snapshot: decisions deny
        // by default and carry the error.
        let req = Request::new().subject("clearance", "high");
        let outcome = ams.decide(&req);
        assert_eq!(outcome.decision, Decision::Deny);
        assert_eq!(outcome.enforcement, Some(Enforcement::Blocked));
        assert_eq!(
            outcome.error.as_ref().and_then(AmsError::exhaustion),
            Some(Exhausted::Atoms)
        );
        assert!(ams.current_snapshot().is_degraded());
        // Restoring a sane budget recovers fully.
        ams.set_run_budget(RunBudget::default());
        assert_eq!(ams.refresh_policies().unwrap().len(), 4);
        let outcome = ams.decide(&req);
        assert_eq!(outcome.decision, Decision::Deny); // permit+deny under deny-overrides
        assert!(outcome.error.is_none());
        assert!(!ams.current_snapshot().is_degraded());
    }

    #[test]
    fn serve_last_good_keeps_the_previous_snapshot() {
        let (g, space) = gate();
        let mut ams = Ams::new("zeta", g, space);
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        ams.refresh_policies().unwrap();
        let good_epoch = ams.current_snapshot().epoch();
        let req = Request::new().subject("clearance", "high");
        assert_eq!(ams.decide(&req).decision(), Decision::Deny); // permit+deny combine

        // A refresh that fails must leave the good snapshot serving.
        ams.set_run_budget(RunBudget::default().with_max_atoms(1));
        assert!(ams.refresh_policies().is_err());
        let outcome = ams.decide(&req);
        assert_eq!(outcome.epoch, good_epoch, "snapshot must not have moved");
        assert_eq!(outcome.decision, Decision::Deny);
        assert!(
            outcome.error.is_none(),
            "last-good snapshot is not degraded"
        );
        assert!(!ams.current_snapshot().is_degraded());
    }

    #[test]
    fn serve_last_good_survives_consecutive_failed_refreshes() {
        let (g, space) = gate();
        let mut ams = Ams::new("theta", g, space);
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        ams.refresh_policies().unwrap();
        let good_epoch = ams.current_snapshot().epoch();
        let req = Request::new().subject("clearance", "high");

        // Three refreshes in a row fail; the last-good snapshot must keep
        // serving unchanged through all of them.
        ams.set_run_budget(RunBudget::default().with_max_atoms(1));
        for round in 0..3 {
            let err = ams.refresh_policies().unwrap_err();
            // Each failure surfaces the full error chain: AmsError →
            // AsgError → the typed exhaustion kind.
            assert_eq!(err.exhaustion(), Some(Exhausted::Atoms), "round {round}");
            let source = std::error::Error::source(&err)
                .expect("AmsError must expose its cause through source()");
            assert!(
                source.to_string().contains("atom"),
                "round {round}: {source}"
            );
            let outcome = ams.decide(&req);
            assert_eq!(
                outcome.epoch, good_epoch,
                "round {round}: epoch moved under ServeLastGood"
            );
            assert_eq!(outcome.decision, Decision::Deny);
            assert!(outcome.error.is_none(), "round {round}: snapshot degraded");
            assert!(!ams.current_snapshot().is_degraded());
        }

        // Recovery publishes a strictly newer epoch (monotonicity), and the
        // epoch counter advanced exactly once despite three failures.
        ams.set_run_budget(RunBudget::default());
        ams.refresh_policies().unwrap();
        let recovered = ams.current_snapshot().epoch();
        assert_eq!(
            recovered,
            good_epoch + 1,
            "failed ServeLastGood refreshes must not burn epochs"
        );
        assert!(ams.decide(&req).error.is_none());
    }

    #[test]
    fn workers_keep_deciding_through_a_failed_refresh() {
        let (g, space) = gate();
        let mut ams = Ams::new("iota", g, space);
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        ams.refresh_policies().unwrap();
        let handle = ams.serving_handle();
        let req = Request::new().subject("clearance", "low");
        let served: Vec<DecisionOutcome> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let h = handle.clone();
                    let r = req.clone();
                    s.spawn(move || (0..50).map(|_| h.decide(&r)).collect::<Vec<_>>())
                })
                .collect();
            // Sabotage a refresh while the workers hammer the handle.
            ams.set_run_budget(RunBudget::default().with_max_atoms(1));
            assert!(ams.refresh_policies().is_err());
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(served.len(), 200);
        // Every decision came from a good (non-degraded) snapshot: the
        // failed refresh never published, so no outcome carries an error
        // and every one rendered the consistent deny-overrides answer.
        for outcome in &served {
            assert_eq!(outcome.decision, Decision::Deny);
            assert!(outcome.error.is_none());
        }
    }

    #[test]
    fn failed_adapt_commits_neither_gpm_nor_version() {
        let (g, space) = gate();
        let mut ams = Ams::new("kappa", g, space);
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        let lockdown: Program = "lockdown.".parse().unwrap();
        ams.set_context(lockdown.clone());
        assert_eq!(ams.refresh_policies().unwrap().len(), 4);
        let good_epoch = ams.current_snapshot().epoch();
        for clearance in ["high", "low"] {
            ams.observe(Feedback::invalid(
                &format!("permit if subject clearance = {clearance}"),
                lockdown.clone(),
            ));
        }
        // The learner only takes the budget's deadline and node cap, so
        // learning succeeds and the atom cap fails the regeneration.
        ams.set_run_budget(RunBudget::default().with_max_atoms(1));
        let err = ams.adapt().unwrap_err();
        assert!(matches!(err, AmsError::Generation(_)), "{err}");
        assert_eq!(err.exhaustion(), Some(Exhausted::Atoms));
        assert_eq!(ams.current_snapshot().epoch(), good_epoch);
        assert_eq!(ams.representations().len(), 1, "no version was stored");

        // The GPM still matches the served policies, also in the next
        // snapshot a control-plane mutation publishes.
        ams.set_run_budget(RunBudget::default());
        let permit = "permit if subject clearance = high";
        assert!(ams.admits(permit).unwrap());
        ams.set_context(lockdown);
        let snapshot = ams.current_snapshot();
        assert_eq!(snapshot.epoch(), good_epoch + 1);
        assert!(snapshot.admits(permit, &RunBudget::default()).unwrap());

        // With a workable budget the same adaptation commits.
        ams.adapt().unwrap();
        assert_eq!(ams.representations().len(), 2);
        assert!(!ams.admits(permit).unwrap());
    }

    #[test]
    fn feedback_that_fails_to_compile_fails_every_adapt() {
        let (g, space) = gate();
        let mut ams = Ams::new("mu", g, space);
        ams.set_degraded_mode(DegradedMode::ServeLastGood);
        ams.refresh_policies().unwrap();
        let good_epoch = ams.current_snapshot().epoch();
        ams.observe(Feedback::invalid(
            "permit if subject clearance = high",
            "lockdown.".parse().unwrap(),
        ));
        // An unsafe context rule cannot be grounded.
        ams.observe(Feedback::valid(
            "deny if subject clearance = high",
            "p(X) :- not q(X).".parse().unwrap(),
        ));
        for round in 0..2 {
            let err = ams.adapt().unwrap_err();
            assert!(
                matches!(err, AmsError::Learning(LearnError::Ground(_))),
                "round {round}: {err}"
            );
        }
        assert_eq!(ams.feedback_len(), 2);
        assert_eq!(ams.representations().len(), 1);
        assert_eq!(ams.current_snapshot().epoch(), good_epoch);
    }

    #[test]
    fn adapt_without_new_feedback_reuses_the_last_optimum() {
        let (g, space) = gate();
        let mut ams = Ams::new("nu", g, space);
        let lockdown: Program = "lockdown.".parse().unwrap();
        ams.set_context(lockdown.clone());
        ams.observe(Feedback::invalid(
            "permit if subject clearance = high",
            lockdown,
        ));
        let first = ams.adapt().unwrap();
        assert!(!first.stats.search_skipped);
        assert_eq!(first.stats.examples_compiled, 1);
        let second = ams.adapt().unwrap();
        assert!(second.stats.search_skipped);
        assert_eq!(second.stats.examples_compiled, 0);
        assert_eq!(second.hypothesis.rules, first.hypothesis.rules);
        assert_eq!(second.examples_used, 1);
        assert_eq!(ams.representations().len(), 3);
    }

    #[test]
    fn control_plane_publishes_stay_degraded_until_a_refresh_succeeds() {
        let g: Asg = r#"
            policy -> effect "if" "subject" "clearance" "=" level
            effect -> "permit" { e(permit). }
            level -> "low"  { lvl(low). }
            level -> "high" { lvl(high). }
        "#
        .parse()
        .unwrap();
        let mut ams = Ams::new("lambda", g, HypothesisSpace::new());
        ams.refresh_policies().unwrap();
        let req = Request::new().subject("clearance", "low");
        assert_eq!(ams.decide(&req).decision, Decision::Permit);

        ams.set_run_budget(RunBudget::default().with_max_atoms(1));
        assert!(ams.refresh_policies().is_err());
        assert_eq!(ams.decide(&req).decision, Decision::Deny);

        // Neither a context change nor an adopted GPM may grant access
        // before a refresh has succeeded.
        let assert_degraded = |ams: &Ams, step: &str| {
            let outcome = ams.decide(&req);
            assert_eq!(outcome.decision, Decision::Deny, "{step}");
            assert_eq!(
                outcome.error.as_ref().and_then(AmsError::exhaustion),
                Some(Exhausted::Atoms),
                "{step}"
            );
        };
        ams.set_context("lockdown.".parse().unwrap());
        assert_degraded(&ams, "set_context");
        ams.adopt_gpm(ams.gpm().clone(), "re-adopted");
        assert_degraded(&ams, "adopt_gpm");

        ams.set_run_budget(RunBudget::default());
        ams.refresh_policies().unwrap();
        let outcome = ams.decide(&req);
        assert_eq!(outcome.decision, Decision::Permit);
        assert!(outcome.error.is_none());
    }

    #[test]
    fn solver_step_exhaustion_propagates_through_admits() {
        // A non-stratified annotation forces the DPLL search path, where a
        // zero step budget fires immediately.
        let g: Asg = r#"
            policy -> "allow" { p :- not q. q :- not p. }
        "#
        .parse()
        .unwrap();
        let mut ams = Ams::new("delta", g, HypothesisSpace::new());
        assert!(ams.admits("allow").unwrap());
        ams.set_run_budget(RunBudget::default().with_max_steps(0));
        let err = ams.admits("allow").unwrap_err();
        assert_eq!(err.exhaustion(), Some(Exhausted::Steps));
    }

    #[test]
    fn snapshot_swaps_are_visible_through_cloned_handles() {
        let (g, space) = gate();
        let mut ams = Ams::new("eta", g, space);
        let handle = ams.serving_handle();
        let req = Request::new().subject("clearance", "high");
        // Before any refresh: no policies → NotApplicable.
        assert_eq!(handle.decide(&req).decision, Decision::NotApplicable);
        ams.refresh_policies().unwrap();
        // Same handle, no re-wiring: the new snapshot is already visible
        // and the stale NotApplicable is not served.
        let outcome = handle.decide(&req);
        assert_eq!(outcome.decision, Decision::Deny);
    }

    #[test]
    fn quality_assessment_runs() {
        let (g, space) = gate();
        let mut ams = Ams::new("beta", g, space);
        ams.refresh_policies().unwrap();
        let space = vec![
            Request::new().subject("clearance", "high"),
            Request::new().subject("clearance", "low"),
        ];
        let report = ams.quality(&space);
        assert_eq!(report.assessed, 2);
        // permit and deny rules for the same clearance conflict.
        assert!(!report.conflicts.is_empty());
    }
}
