//! The connected-and-autonomous-vehicle scenario (paper §IV-A, after
//! Cunnington et al. \[25\]): a CAV must learn a generative policy model that
//! states whether a request to execute a driving task should be accepted,
//! given the vehicle's SAE level of autonomy (LOA), the region's transient
//! LOA limit, the weather, and emergency-vehicle presence.
//!
//! The companion study's dataset is not public, so this module synthesizes
//! the scenario it describes: a ground-truth oracle in the same attribute
//! vocabulary, i.i.d. context sampling, and conversions to both the
//! symbolic learning task and the tabular form the shallow-ML baselines
//! consume — preserving the structure of the paper's comparison.

use agenp_asp::{Atom, CmpOp, Program, Rule, Term};
use agenp_baselines::{Dataset, Feature};
use agenp_grammar::{Asg, ProdId};
use agenp_learn::{
    Example, HypothesisSpace, LearningTask, ModeAtom, ModeBias, ModeCmp, ModeLiteral,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// The driving tasks and their required LOA.
pub const TASKS: [(&str, i64); 4] = [
    ("lane_keep", 1),
    ("navigate", 2),
    ("overtake", 3),
    ("park", 4),
];

/// A driving context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CavContext {
    /// Vehicle level of autonomy (SAE 0–5).
    pub loa: i64,
    /// Region's transient LOA limit (0–5).
    pub limit: i64,
    /// Raining?
    pub rain: bool,
    /// Emergency vehicle nearby?
    pub emergency: bool,
}

impl CavContext {
    /// Encodes the context as ASP facts: `loa(L). limit(M).
    /// weather(rain|clear). emergency(yes|no).`
    pub fn to_program(self) -> Program {
        let mut program = Program::new();
        for (pred, value) in [
            ("loa", Term::Int(self.loa)),
            ("limit", Term::Int(self.limit)),
            (
                "weather",
                Term::sym(if self.rain { "rain" } else { "clear" }),
            ),
            (
                "emergency",
                Term::sym(if self.emergency { "yes" } else { "no" }),
            ),
        ] {
            program.push(Rule::fact(Atom::new(pred, vec![value])));
        }
        program
    }

    /// Samples a uniform random context.
    pub fn random(rng: &mut StdRng) -> CavContext {
        CavContext {
            loa: rng.gen_range(0..=5),
            limit: rng.gen_range(0..=5),
            rain: rng.gen_bool(0.4),
            emergency: rng.gen_bool(0.2),
        }
    }
}

/// The ground-truth acceptance oracle: a task is accepted iff the vehicle
/// and the region both support its required LOA, high-autonomy tasks are
/// suspended in rain, and everything except lane-keeping is suspended when
/// an emergency vehicle is present.
pub fn oracle(ctx: CavContext, task: &str) -> bool {
    let req = required_loa(task);
    req <= ctx.loa && req <= ctx.limit && !(ctx.rain && req >= 3) && !(ctx.emergency && req >= 2)
}

/// The LOA a task requires.
///
/// # Panics
///
/// Panics on an unknown task name.
pub fn required_loa(task: &str) -> i64 {
    TASKS
        .iter()
        .find(|(t, _)| *t == task)
        .unwrap_or_else(|| panic!("unknown task {task}"))
        .1
}

/// The policy string requesting acceptance of a task.
pub fn policy_text(task: &str) -> String {
    format!("accept {task}")
}

/// The CAV policy-language grammar: `accept <task>`, with each task
/// production contributing its required LOA and the policy production
/// lifting it to `task_req/1`.
pub fn grammar() -> Asg {
    let mut src = String::from("policy -> \"accept\" task { task_req(X) :- req(X)@2. }\n");
    for (task, req) in TASKS {
        src.push_str(&format!(
            "task -> \"{task}\" {{ req({req}). task({task}). }}\n"
        ));
    }
    src.parse().expect("CAV grammar is well-formed")
}

/// The production id of the `policy -> "accept" task` rule.
pub fn accept_production() -> ProdId {
    ProdId::from_index(0)
}

/// The hypothesis space: constraints on the accept production over
/// `task_req/1`, `loa/1`, `limit/1`, `weather/1`, `emergency/1`, with
/// variable-variable `<` comparisons and `>= k` threshold comparisons.
/// Generated once per process; each call returns a copy.
pub fn hypothesis_space() -> HypothesisSpace {
    static SPACE: OnceLock<HypothesisSpace> = OnceLock::new();
    SPACE.get_or_init(generate_space).clone()
}

fn generate_space() -> HypothesisSpace {
    ModeBias::constraints(
        vec![accept_production()],
        vec![
            ModeLiteral::positive(ModeAtom::local("task_req", vec![agenp_learn::ModeArg::Var])),
            ModeLiteral::positive(ModeAtom::local("loa", vec![agenp_learn::ModeArg::Var])),
            ModeLiteral::positive(ModeAtom::local("limit", vec![agenp_learn::ModeArg::Var])),
            ModeLiteral::positive(ModeAtom::local(
                "weather",
                vec![agenp_learn::ModeArg::Choice(vec![
                    Term::sym("rain"),
                    Term::sym("clear"),
                ])],
            )),
            ModeLiteral::positive(ModeAtom::local(
                "emergency",
                vec![agenp_learn::ModeArg::Choice(vec![Term::sym("yes")])],
            )),
        ],
    )
    .max_body(2)
    .max_vars(2)
    .with_comparisons(vec![ModeCmp {
        ops: vec![CmpOp::Ge],
        constants: vec![Term::Int(2), Term::Int(3), Term::Int(4)],
    }])
    .with_var_comparisons(vec![CmpOp::Lt])
    .generate()
}

/// One labelled sample: a context, a task, and the oracle's verdict.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The driving context.
    pub context: CavContext,
    /// The requested task.
    pub task: &'static str,
    /// The oracle label (accept?).
    pub accept: bool,
}

/// Samples `n` i.i.d. labelled requests.
pub fn samples(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let context = CavContext::random(&mut rng);
            let task = TASKS[rng.gen_range(0..TASKS.len())].0;
            Sample {
                context,
                task,
                accept: oracle(context, task),
            }
        })
        .collect()
}

/// Flips each label with probability `p` (noise injection, §IV-C). Returns
/// the number of flipped labels.
pub fn inject_noise(samples: &mut [Sample], p: f64, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flipped = 0;
    for s in samples.iter_mut() {
        if rng.gen_bool(p) {
            s.accept = !s.accept;
            flipped += 1;
        }
    }
    flipped
}

/// Builds the symbolic learning task from samples. With
/// `penalty = Some(k)`, examples become soft (noise-tolerant learning).
pub fn learning_task(samples: &[Sample], penalty: Option<u32>) -> LearningTask {
    let mut task = LearningTask::new(grammar(), hypothesis_space());
    for s in samples {
        let mut e = Example::in_context(policy_text(s.task), s.context.to_program());
        if let Some(p) = penalty {
            e = e.with_penalty(p);
        }
        if s.accept {
            task = task.pos(e);
        } else {
            task = task.neg(e);
        }
    }
    task
}

/// Accuracy of a (learned) GPM against labelled samples: the model predicts
/// "accept" iff the accept policy is in its language under the context.
pub fn gpm_accuracy(gpm: &Asg, test: &[Sample]) -> f64 {
    if test.is_empty() {
        return 1.0;
    }
    let correct = test
        .iter()
        .filter(|s| {
            let predicted = gpm
                .with_context(&s.context.to_program())
                .accepts(&policy_text(s.task))
                .unwrap_or(false);
            predicted == s.accept
        })
        .count();
    correct as f64 / test.len() as f64
}

/// Converts samples to the tabular form the baselines consume.
pub fn to_dataset(samples: &[Sample]) -> Dataset {
    let mut d = Dataset::new(
        vec![
            "loa".into(),
            "limit".into(),
            "task".into(),
            "weather".into(),
            "emergency".into(),
        ],
        2,
    );
    for s in samples {
        d.push(
            vec![
                Feature::Num(s.context.loa as f64),
                Feature::Num(s.context.limit as f64),
                Feature::cat(s.task),
                Feature::cat(if s.context.rain { "rain" } else { "clear" }),
                Feature::cat(if s.context.emergency { "yes" } else { "no" }),
            ],
            usize::from(s.accept),
        );
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_learn::Learner;

    #[test]
    fn context_programs_equal_their_parsed_text() {
        let mut seen = 0;
        for loa in 0..=5 {
            for limit in 0..=5 {
                for rain in [false, true] {
                    for emergency in [false, true] {
                        let ctx = CavContext {
                            loa,
                            limit,
                            rain,
                            emergency,
                        };
                        let text = format!(
                            "loa({loa}). limit({limit}). weather({}). emergency({}).",
                            if rain { "rain" } else { "clear" },
                            if emergency { "yes" } else { "no" },
                        );
                        assert_eq!(ctx.to_program(), text.parse::<Program>().unwrap(), "{text}");
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, 144);
    }

    #[test]
    fn oracle_matches_spec() {
        let calm = CavContext {
            loa: 5,
            limit: 5,
            rain: false,
            emergency: false,
        };
        assert!(oracle(calm, "park"));
        assert!(oracle(calm, "lane_keep"));
        let low = CavContext { loa: 2, ..calm };
        assert!(!oracle(low, "overtake"));
        assert!(oracle(low, "navigate"));
        let limited = CavContext { limit: 1, ..calm };
        assert!(!oracle(limited, "navigate"));
        let rainy = CavContext { rain: true, ..calm };
        assert!(!oracle(rainy, "overtake"));
        assert!(oracle(rainy, "navigate"));
        let emergency = CavContext {
            emergency: true,
            ..calm
        };
        assert!(!oracle(emergency, "navigate"));
        assert!(oracle(emergency, "lane_keep"));
    }

    #[test]
    fn grammar_parses_all_policies() {
        let g = grammar();
        for (t, _) in TASKS {
            // The unconstrained grammar accepts every syntactic policy.
            assert!(g.accepts(&policy_text(t)).unwrap());
        }
        assert!(!g.accepts("accept teleport").unwrap());
    }

    #[test]
    fn hypothesis_space_contains_ground_truth() {
        let space = hypothesis_space();
        let texts: Vec<String> = space
            .candidates()
            .iter()
            .map(|c| c.rule.to_string())
            .collect();
        assert!(
            texts.contains(&":- task_req(V1), loa(V2), V2 < V1.".to_owned())
                || texts.contains(&":- loa(V1), task_req(V2), V1 < V2.".to_owned()),
            "LOA-deficit constraint missing; space has {} candidates",
            texts.len()
        );
        assert!(texts
            .iter()
            .any(|t| t.contains("weather(rain)") && t.contains(">= 3")));
        assert!(texts
            .iter()
            .any(|t| t.contains("emergency(yes)") && t.contains(">= 2")));
    }

    #[test]
    fn learns_accurate_model_from_modest_data() {
        let train = samples(48, 11);
        let test = samples(200, 99);
        let task = learning_task(&train, None);
        let h = Learner::new().learn(&task).expect("task is learnable");
        let gpm = h.apply(&task.grammar);
        let acc = gpm_accuracy(&gpm, &test);
        assert!(acc > 0.9, "accuracy {acc} too low; hypothesis:\n{h}");
    }

    #[test]
    fn dataset_conversion_is_aligned() {
        let s = samples(10, 3);
        let d = to_dataset(&s);
        assert_eq!(d.len(), 10);
        assert_eq!(d.n_features(), 5);
        for (row, sample) in d.rows.iter().zip(&s) {
            assert_eq!(row[0].as_num(), Some(sample.context.loa as f64));
        }
    }

    #[test]
    fn noise_injection_flips_labels() {
        let mut s = samples(100, 5);
        let before: Vec<bool> = s.iter().map(|x| x.accept).collect();
        let flipped = inject_noise(&mut s, 0.2, 8);
        let changed = s
            .iter()
            .zip(&before)
            .filter(|(a, &b)| a.accept != b)
            .count();
        assert_eq!(flipped, changed);
        assert!(flipped > 5 && flipped < 40);
    }
}
