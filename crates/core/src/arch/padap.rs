//! The Policy Adaptation Point (paper §III-A-1): observes the effects of
//! decisions, turns them into context-dependent examples, and re-learns the
//! generative policy model with the ASG learner when the system drifts from
//! its goals or the context changes.

use crate::arch::prep::{elapsed_ns, RefreshStats};
use agenp_asp::Program;
use agenp_grammar::Asg;
use agenp_learn::{
    Example, Hypothesis, HypothesisSpace, LearnError, LearnOptions, LearnStats, LearningSession,
};
use std::sync::Arc;
use std::time::Instant;

/// One piece of observed feedback: a policy string that turned out to be
/// valid or invalid in a context.
#[derive(Clone, Debug)]
pub struct Feedback {
    /// The policy string.
    pub policy: String,
    /// The context it was (in)valid under.
    pub context: Program,
    /// True if the policy was appropriate (positive example).
    pub valid: bool,
    /// Optional noise penalty (None = trusted feedback).
    pub penalty: Option<u32>,
}

impl Feedback {
    /// Trusted positive feedback.
    pub fn valid(policy: &str, context: Program) -> Feedback {
        Feedback {
            policy: policy.to_owned(),
            context,
            valid: true,
            penalty: None,
        }
    }

    /// Trusted negative feedback.
    pub fn invalid(policy: &str, context: Program) -> Feedback {
        Feedback {
            policy: policy.to_owned(),
            context,
            valid: false,
            penalty: None,
        }
    }

    /// Marks the feedback as noisy (violable at `penalty`).
    pub fn with_penalty(mut self, penalty: u32) -> Feedback {
        self.penalty = Some(penalty);
        self
    }
}

/// The outcome of an adaptation round.
#[derive(Debug)]
pub struct Adaptation {
    /// The re-learned GPM, shared with the AMS that adopts it, its
    /// snapshots and its representations repository.
    pub gpm: Arc<Asg>,
    /// The hypothesis that produced it.
    pub hypothesis: Hypothesis,
    /// Number of examples the learner saw.
    pub examples_used: usize,
    /// The learner's work this round: examples compiled, compile and search
    /// time, and whether the search was skipped.
    pub stats: LearnStats,
    /// Regenerating the policies from `gpm`: the path and the generate,
    /// screen, translate and publish times ([`Ams::adapt`] fills it in).
    ///
    /// [`Ams::adapt`]: crate::arch::Ams::adapt
    pub refresh: RefreshStats,
    /// This relearn, in nanoseconds: compiling, searching (`stats`'
    /// `compile_ns` and `search_ns`) and building `gpm`.
    pub learn_ns: u64,
    /// The whole [`Ams::adapt`] call, in nanoseconds.
    ///
    /// [`Ams::adapt`]: crate::arch::Ams::adapt
    pub adapt_ns: u64,
}

/// The Policy Adaptation Point: one [`LearningSession`] over the initial
/// GPM and the hypothesis space, fed every observation.
#[derive(Debug)]
pub struct Padap {
    session: LearningSession,
}

impl Padap {
    /// A PAdaP that learns within `space` on top of `initial_gpm`, with
    /// default learner options.
    pub fn new(initial_gpm: Asg, space: HypothesisSpace) -> Padap {
        Padap {
            session: LearningSession::new(initial_gpm, space, LearnOptions::default()),
        }
    }

    /// Replaces the learner options (e.g. to apply a run budget's deadline
    /// and node bounds to the next search).
    pub fn set_options(&mut self, options: LearnOptions) {
        self.session.set_options(options);
    }

    /// Records feedback for the next adaptation. Nothing is compiled until
    /// [`Padap::adapt`].
    pub fn observe(&mut self, feedback: Feedback) {
        let example = Example {
            text: feedback.policy,
            context: feedback.context,
            penalty: feedback.penalty,
        };
        if feedback.valid {
            self.session.add_positive(example);
        } else {
            self.session.add_negative(example);
        }
    }

    /// Feedback observations so far.
    pub fn observations(&self) -> usize {
        self.session.len()
    }

    pub(crate) fn session(&self) -> &LearningSession {
        &self.session
    }

    pub(crate) fn session_mut(&mut self) -> &mut LearningSession {
        &mut self.session
    }

    /// Re-learns the GPM from the *initial* grammar plus all feedback
    /// observed so far, so constraints never stack across rounds. Only the
    /// feedback new since the last round is compiled, and the search is
    /// skipped while the last optimum still covers it (see
    /// [`LearningSession`]).
    ///
    /// # Errors
    ///
    /// Propagates learner failures (unsatisfiable feedback, budget, …).
    pub fn adapt(&mut self) -> Result<Adaptation, LearnError> {
        let started = Instant::now();
        let (hypothesis, stats) = self.session.solve()?;
        let gpm = Arc::new(hypothesis.apply(self.session.grammar()));
        Ok(Adaptation {
            gpm,
            hypothesis,
            examples_used: self.session.len(),
            stats,
            learn_ns: elapsed_ns(started),
            refresh: RefreshStats::default(),
            adapt_ns: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_grammar::ProdId;

    #[test]
    fn adaptation_relearns_from_feedback() {
        let initial: Asg = r#"
            policy -> "allow" { act(allow). }
            policy -> "deny"  { act(deny). }
        "#
        .parse()
        .unwrap();
        let space = HypothesisSpace::from_texts(&[
            (ProdId::from_index(0), ":- storm."),
            (ProdId::from_index(1), ":- calm."),
        ]);
        let storm: Program = "storm.".parse().unwrap();
        let calm: Program = "calm.".parse().unwrap();
        let mut padap = Padap::new(initial, space);
        padap.observe(Feedback::invalid("allow", storm.clone()));
        padap.observe(Feedback::valid("deny", storm.clone()));
        padap.observe(Feedback::valid("allow", calm.clone()));
        let result = padap.adapt().unwrap();
        assert_eq!(result.examples_used, 3);
        assert!(!result.gpm.with_context(&storm).accepts("allow").unwrap());
        assert!(result.gpm.with_context(&calm).accepts("allow").unwrap());
    }
}
