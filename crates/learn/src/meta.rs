//! A meta-encoding learner: the authentic ILASP approach of solving the
//! learning task *as an ASP optimization problem*. Candidate selection is
//! encoded with choice loops, example coverage with kill-set facts, and
//! hypothesis minimality plus example penalties with weak constraints; the
//! engine's branch-and-bound optimizer then returns the optimal hypothesis.
//!
//! Applicable to constraint-only hypothesis spaces with completely
//! enumerable worlds (the same precondition as the monotone fast path);
//! used to cross-validate the native branch-and-bound learner and as an
//! ablation backend.

use crate::compile::{compile_example, plan_candidates, CompiledExample};
use crate::learner::{Hypothesis, LearnError, Learner, LearningTask};
use agenp_asp::{ground, Program, Solver};

impl Learner {
    /// Learns by compiling the task into a single ASP optimization program
    /// and solving it with the engine's branch-and-bound optimizer.
    ///
    /// # Errors
    ///
    /// [`LearnError::MetaInapplicable`] unless the space is constraint-only
    /// with completely enumerable worlds; [`LearnError::Unsatisfiable`] when
    /// no hypothesis covers the hard examples; [`LearnError::Budget`] if the
    /// ASP search exhausts its step budget.
    pub fn learn_meta(&self, task: &LearningTask) -> Result<Hypothesis, LearnError> {
        for c in task.space.candidates() {
            if let Some(v) = c.rule.unsafe_var() {
                return Err(LearnError::UnsafeCandidate(format!(
                    "{} ({v} unbound)",
                    c.rule
                )));
            }
            if c.target.index() >= task.grammar.cfg().production_count() {
                return Err(LearnError::BadTarget(c.target.index()));
            }
        }
        if !task.space.constraints_only() {
            return Err(LearnError::MetaInapplicable(
                "the meta encoding requires a constraint-only hypothesis space".to_owned(),
            ));
        }
        let mut compiled: Vec<CompiledExample> = Vec::new();
        for e in &task.positive {
            compiled.push(compile_example(
                &task.grammar,
                e,
                true,
                self.options().compile,
            )?);
        }
        for e in &task.negative {
            compiled.push(compile_example(
                &task.grammar,
                e,
                false,
                self.options().compile,
            )?);
        }
        if compiled
            .iter()
            .any(|e| e.trees.iter().any(|t| !t.worlds.complete()))
        {
            return Err(LearnError::MetaInapplicable(
                "world enumeration hit its cap; the meta encoding would be unsound".to_owned(),
            ));
        }

        // --- Encode ---------------------------------------------------
        let candidates = task.space.candidates();
        let plans = plan_candidates(candidates)?;
        let mut src = String::new();
        for (ci, _) in candidates.iter().enumerate() {
            src.push_str(&format!("cand({ci}).\n"));
        }
        src.push_str("sel(I) :- cand(I), not nsel(I).\n");
        src.push_str("nsel(I) :- cand(I), not sel(I).\n");
        // Kill facts + example/world structure.
        let mut world_id = 0usize;
        for (ei, ex) in compiled.iter().enumerate() {
            if ex.is_pos {
                src.push_str(&format!("posex({ei}).\n"));
            } else {
                src.push_str(&format!("negex({ei}).\n"));
            }
            for tree in &ex.trees {
                for world in tree.worlds.worlds() {
                    src.push_str(&format!("eworld({ei}, {world_id}).\n"));
                    for (ci, plan) in plans.iter().enumerate() {
                        if tree.worlds.violates(world, plan) {
                            src.push_str(&format!("kills({ci}, {world_id}).\n"));
                        }
                    }
                    world_id += 1;
                }
            }
        }
        src.push_str("wdead(W) :- kills(C, W), sel(C).\n");
        // A positive example survives if one of its worlds survives; a
        // negative example is violated likewise.
        src.push_str("alive(E) :- eworld(E, W), not wdead(W).\n");
        src.push_str("pviol(E) :- posex(E), not alive(E).\n");
        src.push_str("nviol(E) :- negex(E), alive(E).\n");
        for (ei, ex) in compiled.iter().enumerate() {
            let viol = if ex.is_pos { "pviol" } else { "nviol" };
            match ex.penalty {
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
        for (ei, ex) in compiled.iter().enumerate() {
            let viol = if ex.is_pos { "pviol" } else { "nviol" };
            let atom: agenp_asp::Atom = format!("{viol}({ei})").parse().expect("viol atom parses");
            if best.contains(&atom) {
                sacrificed.push((ex.is_pos, local_index(&compiled, ei)));
                penalty_cost += u64::from(ex.penalty.unwrap_or(0));
            }
        }
        Ok(Hypothesis {
            rules,
            cost: rule_cost + penalty_cost,
            sacrificed,
        })
    }
}

fn local_index(compiled: &[CompiledExample], ei: usize) -> usize {
    if compiled[ei].is_pos {
        ei
    } else {
        ei - compiled.iter().filter(|e| e.is_pos).count()
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
