//! A meta-encoding learner: the authentic ILASP approach of solving the
//! learning task *as an ASP optimization problem*. Candidate selection is
//! encoded with choice loops, example coverage with kill-set facts, and
//! hypothesis minimality plus example penalties with weak constraints; the
//! engine's branch-and-bound optimizer then returns the optimal hypothesis.
//!
//! The kill sets are those a [`LearningSession`] computes for its monotone
//! search, one list per observation, so the encoding applies where that
//! search does: constraint-only hypothesis spaces with completely
//! enumerable worlds. Used to cross-validate the native branch-and-bound
//! learner and as an ablation backend.

use crate::learner::{Hypothesis, LearnError, Learner, LearningTask};
use crate::session::LearningSession;
use agenp_asp::{ground, Program, Solver};

impl Learner {
    /// Learns by compiling the task into a single ASP optimization program
    /// and solving it with the engine's branch-and-bound optimizer. The
    /// task's examples are compiled by a [`LearningSession`] (with the
    /// monotone path allowed whatever the options' `force_generic`), whose
    /// kill sets the program encodes.
    ///
    /// # Errors
    ///
    /// [`LearnError::MetaInapplicable`] unless the space is constraint-only
    /// with completely enumerable worlds; [`LearnError::Unsatisfiable`] when
    /// no hypothesis covers the hard examples; [`LearnError::Budget`] if the
    /// ASP search exhausts its step budget.
    pub fn learn_meta(&self, task: &LearningTask) -> Result<Hypothesis, LearnError> {
        let options = self.options().with_force_generic(false);
        let mut session = LearningSession::for_task(task, options);
        let Some(examples) = session.monotone_examples()? else {
            return Err(LearnError::MetaInapplicable(
                if task.space.constraints_only() {
                    "world enumeration hit its cap; the meta encoding would be unsound"
                } else {
                    "the meta encoding requires a constraint-only hypothesis space"
                }
                .to_owned(),
            ));
        };

        // --- Encode ---------------------------------------------------
        let candidates = task.space.candidates();
        let mut src = String::new();
        for (ci, _) in candidates.iter().enumerate() {
            src.push_str(&format!("cand({ci}).\n"));
        }
        src.push_str("sel(I) :- cand(I), not nsel(I).\n");
        src.push_str("nsel(I) :- cand(I), not sel(I).\n");
        // Kill facts + example/world structure.
        let mut world_id = 0usize;
        for (ei, worlds) in examples.coverage.iter().enumerate() {
            if examples.is_pos(ei) {
                src.push_str(&format!("posex({ei}).\n"));
            } else {
                src.push_str(&format!("negex({ei}).\n"));
            }
            for kills in worlds.iter() {
                src.push_str(&format!("eworld({ei}, {world_id}).\n"));
                for ci in kills.iter() {
                    src.push_str(&format!("kills({ci}, {world_id}).\n"));
                }
                world_id += 1;
            }
        }
        src.push_str("wdead(W) :- kills(C, W), sel(C).\n");
        // A positive example survives if one of its worlds survives; a
        // negative example is violated likewise.
        src.push_str("alive(E) :- eworld(E, W), not wdead(W).\n");
        src.push_str("pviol(E) :- posex(E), not alive(E).\n");
        src.push_str("nviol(E) :- negex(E), alive(E).\n");
        for (ei, penalty) in examples.penalties.iter().enumerate() {
            let viol = if examples.is_pos(ei) {
                "pviol"
            } else {
                "nviol"
            };
            match penalty {
                None => src.push_str(&format!(":- {viol}({ei}).\n")),
                Some(p) => src.push_str(&format!(":~ {viol}({ei}). [{p}]\n")),
            }
        }
        // Minimality: each selected rule costs its length.
        for (ci, cand) in candidates.iter().enumerate() {
            src.push_str(&format!(":~ sel({ci}). [{}]\n", cand.cost));
        }

        // --- Solve ------------------------------------------------------
        let program: Program = src.parse().expect("meta encoding is well-formed");
        let grounded = ground(&program)?;
        let result = Solver::new()
            .max_steps(self.options().max_nodes)
            .optimize(&grounded);
        let Some(best) = result.optima().first() else {
            return Err(LearnError::Unsatisfiable);
        };
        if !result.proven_optimal() {
            return Err(LearnError::Budget);
        }

        // --- Decode -----------------------------------------------------
        let mut rules = Vec::new();
        let mut rule_cost: u64 = 0;
        for (ci, cand) in candidates.iter().enumerate() {
            let atom: agenp_asp::Atom = format!("sel({ci})").parse().expect("sel atom parses");
            if best.contains(&atom) {
                rules.push((cand.target, cand.rule.clone()));
                rule_cost += u64::from(cand.cost);
            }
        }
        let mut sacrificed = Vec::new();
        let mut penalty_cost: u64 = 0;
        for (ei, penalty) in examples.penalties.iter().enumerate() {
            let is_pos = examples.is_pos(ei);
            let viol = if is_pos { "pviol" } else { "nviol" };
            let atom: agenp_asp::Atom = format!("{viol}({ei})").parse().expect("viol atom parses");
            if best.contains(&atom) {
                sacrificed.push((is_pos, examples.local(ei)));
                penalty_cost += u64::from(penalty.unwrap_or(0));
            }
        }
        Ok(Hypothesis {
            rules,
            cost: rule_cost + penalty_cost,
            sacrificed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::Example;
    use crate::space::HypothesisSpace;
    use agenp_grammar::{Asg, ProdId};

    fn pid(i: usize) -> ProdId {
        ProdId::from_index(i)
    }

    fn weather_task() -> LearningTask {
        let g: Asg = r#"
            policy -> "allow" { act(allow). }
            policy -> "deny"  { act(deny). }
        "#
        .parse()
        .unwrap();
        let space = HypothesisSpace::from_texts(&[
            (pid(0), ":- weather(rain)."),
            (pid(0), ":- weather(clear)."),
            (pid(1), ":- weather(rain)."),
            (pid(1), ":- weather(clear)."),
        ]);
        LearningTask::new(g, space)
            .pos(Example::in_context(
                "allow",
                "weather(clear).".parse().unwrap(),
            ))
            .pos(Example::in_context(
                "deny",
                "weather(rain).".parse().unwrap(),
            ))
            .neg(Example::in_context(
                "allow",
                "weather(rain).".parse().unwrap(),
            ))
            .neg(Example::in_context(
                "deny",
                "weather(clear).".parse().unwrap(),
            ))
    }

    #[test]
    fn meta_matches_native_learner() {
        let task = weather_task();
        let native = Learner::new().learn(&task).unwrap();
        let meta = Learner::new().learn_meta(&task).unwrap();
        assert_eq!(native.cost, meta.cost);
        assert!(task.violations(&meta).unwrap().is_empty());
        assert_eq!(meta.rules.len(), 2);
    }

    #[test]
    fn meta_handles_penalties() {
        let g: Asg = "policy -> \"allow\" { act(allow). }".parse().unwrap();
        let space = HypothesisSpace::from_texts(&[(pid(0), ":- storm.")]);
        let task = LearningTask::new(g, space)
            .pos(Example::in_context("allow", "storm.".parse().unwrap()).with_penalty(1))
            .neg(Example::in_context("allow", "storm.".parse().unwrap()));
        let meta = Learner::new().learn_meta(&task).unwrap();
        // Sacrificing the soft positive (1) is as cheap as any rule; the
        // hard negative forces the constraint.
        assert_eq!(meta.cost, 2);
        assert_eq!(meta.sacrificed, vec![(true, 0)]);
    }

    #[test]
    fn meta_reports_unsat() {
        let g: Asg = "policy -> \"allow\"".parse().unwrap();
        let task = LearningTask::new(g, HypothesisSpace::from_texts(&[(pid(0), ":- x.")]))
            .pos(Example::in_context("allow", "x.".parse().unwrap()))
            .neg(Example::in_context("allow", "x.".parse().unwrap()));
        match Learner::new().learn_meta(&task) {
            Err(LearnError::Unsatisfiable) => {}
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn meta_rejects_normal_rule_spaces() {
        let g: Asg = "policy -> \"allow\" { :- not ok. }".parse().unwrap();
        let task = LearningTask::new(g, HypothesisSpace::from_texts(&[(pid(0), "ok :- sunny.")]))
            .pos(Example::in_context("allow", "sunny.".parse().unwrap()));
        match Learner::new().learn_meta(&task) {
            Err(LearnError::MetaInapplicable(_)) => {}
            other => panic!("expected MetaInapplicable, got {other:?}"),
        }
    }
}
