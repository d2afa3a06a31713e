//! The Policy Adaptation Point (paper §III-A-1): observes the effects of
//! decisions, turns them into context-dependent examples, and re-learns the
//! generative policy model with the ASG learner when the system drifts from
//! its goals or the context changes.

use agenp_asp::Program;
use agenp_grammar::Asg;
use agenp_learn::HypothesisSpace;
use agenp_learn::{Example, Hypothesis, LearnError, Learner, LearningTask};

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

    fn example(&self) -> Example {
        let mut e = Example::in_context(self.policy.clone(), self.context.clone());
        if let Some(p) = self.penalty {
            e = e.with_penalty(p);
        }
        e
    }
}

/// The outcome of an adaptation round.
#[derive(Debug)]
pub struct Adaptation {
    /// The re-learned GPM.
    pub gpm: Asg,
    /// The hypothesis that produced it.
    pub hypothesis: Hypothesis,
    /// Number of examples the learner saw.
    pub examples_used: usize,
}

/// The Policy Adaptation Point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Padap {
    learner: Learner,
}

impl Padap {
    /// A PAdaP with a default learner.
    pub fn new() -> Padap {
        Padap::default()
    }

    /// Replaces the learner (e.g. to apply a run budget's deadline and
    /// node bounds).
    pub fn set_learner(&mut self, learner: Learner) {
        self.learner = learner;
    }

    /// Re-learns the GPM from scratch: the *initial* grammar plus all
    /// accumulated feedback. Learning always restarts from the initial
    /// grammar so constraints never stack across rounds.
    ///
    /// # Errors
    ///
    /// Propagates learner failures (unsatisfiable feedback, budget, …).
    pub fn adapt(
        &self,
        initial_gpm: &Asg,
        space: &HypothesisSpace,
        feedback: &[Feedback],
    ) -> Result<Adaptation, LearnError> {
        let mut task = LearningTask::new(initial_gpm.clone(), space.clone());
        for f in feedback {
            if f.valid {
                task = task.pos(f.example());
            } else {
                task = task.neg(f.example());
            }
        }
        let hypothesis = self.learner.learn(&task)?;
        let gpm = hypothesis.apply(initial_gpm);
        Ok(Adaptation {
            gpm,
            hypothesis,
            examples_used: feedback.len(),
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
        let feedback = vec![
            Feedback::invalid("allow", storm.clone()),
            Feedback::valid("deny", storm.clone()),
            Feedback::valid("allow", calm.clone()),
        ];
        let padap = Padap::new();
        let result = padap.adapt(&initial, &space, &feedback).unwrap();
        assert_eq!(result.examples_used, 3);
        assert!(!result.gpm.with_context(&storm).accepts("allow").unwrap());
        assert!(result.gpm.with_context(&calm).accepts("allow").unwrap());
    }
}
