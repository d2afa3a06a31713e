//! Tests for weak constraints and optimization (utility-based policies,
//! paper §I's third policy type).

use agenp_asp::{ground, ground_with, CostVector, GroundError, GroundOptions, Program, Solver};

#[test]
fn parses_and_displays_weak_constraints() {
    let p: Program = "
        item(a). item(b).
        pick(X) :- item(X), not drop(X).
        drop(X) :- item(X), not pick(X).
        :~ pick(X). [1@2]
        :~ drop(a). [3]
    "
    .parse()
    .unwrap();
    assert_eq!(p.weak_constraints().len(), 2);
    assert_eq!(p.weak_constraints()[0].level, 2);
    assert_eq!(p.weak_constraints()[1].level, 0);
    let printed = p.to_string();
    assert!(printed.contains(":~ pick(X). [1@2]"), "{printed}");
    let again: Program = printed.parse().unwrap();
    assert_eq!(again.weak_constraints().len(), 2);
}

#[test]
fn optimize_prefers_cheapest_model() {
    // Choose exactly one of a/b/c; costs 3/1/2.
    let p: Program = "
        a :- not b, not c.
        b :- not a, not c.
        c :- not a, not b.
        :~ a. [3]
        :~ b. [1]
        :~ c. [2]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    assert!(r.proven_optimal());
    assert_eq!(r.optima().len(), 1);
    assert!(r.optima()[0].contains(&"b".parse().unwrap()));
    assert_eq!(r.cost().unwrap().at_level(0), 1);
}

#[test]
fn levels_dominate_weights() {
    // a has huge low-level cost, b has tiny high-level cost: a wins because
    // higher levels are minimized first.
    let p: Program = "
        a :- not b.
        b :- not a.
        :~ a. [100@0]
        :~ b. [1@1]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    assert_eq!(r.optima().len(), 1);
    assert!(r.optima()[0].contains(&"a".parse().unwrap()));
}

#[test]
fn variable_weights_are_summed() {
    // Picking both items costs 2+5; dropping one saves its value.
    let p: Program = "
        value(a, 2). value(b, 5).
        pick(X) :- value(X, _), not drop(X).
        drop(X) :- value(X, _), not pick(X).
        :~ pick(X), value(X, V). [V]
        % picking nothing is heavily penalized per dropped item
        :~ drop(X). [10]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    // Best: pick both (2 + 5 = 7) since dropping costs 10 each.
    assert_eq!(r.cost().unwrap().at_level(0), 7);
    let m = &r.optima()[0];
    assert!(m.contains(&"pick(a)".parse().unwrap()));
    assert!(m.contains(&"pick(b)".parse().unwrap()));
}

#[test]
fn ties_return_all_optima() {
    let p: Program = "
        a :- not b.
        b :- not a.
        :~ a. [2]
        :~ b. [2]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    assert_eq!(r.optima().len(), 2);
}

#[test]
fn unsatisfiable_programs_have_no_optimum() {
    let p: Program = "a. :- a. :~ a. [1]".parse().unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    assert!(r.optima().is_empty());
    assert!(r.cost().is_none());
}

#[test]
fn zero_cost_models_beat_penalized_ones() {
    let p: Program = "
        a :- not b.
        b :- not a.
        :~ a. [4]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    assert!(r.cost().unwrap().is_zero());
    assert!(r.optima()[0].contains(&"b".parse().unwrap()));
}

#[test]
fn cost_vector_ordering() {
    let a = CostVector::from_contributions([(1, 2), (0, 100)]);
    let b = CostVector::from_contributions([(1, 3)]);
    assert!(a < b, "level 1 dominates: 2 < 3");
    let c = CostVector::from_contributions([(1, 2), (0, 1)]);
    assert!(c < a, "tie at level 1 broken at level 0");
    let zero = CostVector::default();
    assert!(zero < c);
    assert_eq!(zero, CostVector::from_contributions([(0, 0)]));
    assert_eq!(format!("{a}"), "2@1 100@0");
    assert_eq!(format!("{zero}"), "0");
}

#[test]
fn weak_constraints_obey_the_atom_budget() {
    // The facts make ten atoms; the weak constraint's negated atoms
    // `q(1..10)` would make twenty, past the budget of fifteen.
    let p: Program = "p(1..10). :~ p(X), not q(X). [1@1]".parse().unwrap();
    let err = ground_with(&p, GroundOptions::default().with_max_atoms(15)).unwrap_err();
    assert_eq!(err, GroundError::Budget { max_atoms: 15 });
}

#[test]
fn unsafe_weight_variables_are_rejected() {
    let p: Program = "item(a). :~ item(X). [W]".parse().unwrap();
    assert!(ground(&p).is_err());
}

#[test]
fn weak_constraints_survive_simplification() {
    // The body atom is a definite fact: the weak constraint becomes an
    // unconditional penalty and must still be counted.
    let p: Program = "
        a.
        b :- not c.
        c :- not b.
        :~ a, b. [5]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let r = Solver::new().optimize(&g);
    // Optimal model avoids b.
    assert!(r.cost().unwrap().is_zero());
    assert!(r.optima()[0].contains(&"c".parse().unwrap()));
}

mod props {
    use agenp_asp::{
        ground, model_cost, Atom, Literal, Program, Rule, Solver, Term, WeakConstraint,
    };
    use proptest::prelude::*;

    fn arb_program_with_weaks() -> impl Strategy<Value = Program> {
        let atom = (0u8..5).prop_map(|i| Atom::prop(&format!("w{i}")));
        let literal = (atom.clone(), any::<bool>()).prop_map(|(a, neg)| {
            if neg {
                Literal::Neg(a)
            } else {
                Literal::Pos(a)
            }
        });
        let rule = (
            proptest::option::of(atom),
            proptest::collection::vec(literal.clone(), 0..3),
        )
            .prop_map(|(head, body)| Rule { head, body });
        let weak = (proptest::collection::vec(literal, 1..3), 1i64..5, 0i64..2).prop_map(
            |(body, w, l)| WeakConstraint {
                body,
                weight: Term::Int(w),
                level: l,
            },
        );
        (
            proptest::collection::vec(rule, 0..6),
            proptest::collection::vec(weak, 0..4),
        )
            .prop_map(|(rules, weaks)| {
                let mut p: Program = rules
                    .into_iter()
                    .filter(|r| !(r.head.is_none() && r.body.is_empty()))
                    .collect();
                for w in weaks {
                    p.push_weak(w);
                }
                p
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The optimum is a lower bound on every model's cost, and every
        /// reported optimum actually achieves it.
        #[test]
        fn optimum_is_a_lower_bound(program in arb_program_with_weaks()) {
            let g = ground(&program).expect("propositional programs ground");
            let all = Solver::new().solve(&g);
            let opt = Solver::new().optimize(&g);
            match opt.cost() {
                None => prop_assert!(all.models().is_empty()),
                Some(best) => {
                    for m in all.models() {
                        prop_assert!(model_cost(&g, m) >= *best);
                    }
                    for o in opt.optima() {
                        prop_assert_eq!(&model_cost(&g, o), best);
                    }
                    prop_assert!(!opt.optima().is_empty());
                }
            }
        }

        /// Weak constraints never change the set of answer sets.
        #[test]
        fn weaks_do_not_affect_satisfiability(program in arb_program_with_weaks()) {
            let g = ground(&program).expect("grounds");
            let stripped: Program = program.rules().iter().cloned().collect();
            let g2 = ground(&stripped).expect("grounds");
            let a = Solver::new().solve(&g);
            let b = Solver::new().solve(&g2);
            let mut ma: Vec<String> = a.models().iter().map(|m| m.to_string()).collect();
            let mut mb: Vec<String> = b.models().iter().map(|m| m.to_string()).collect();
            ma.sort();
            mb.sort();
            prop_assert_eq!(ma, mb);
        }
    }
}

#[test]
fn ground_display_includes_weak_constraints() {
    let p: Program = "
        n(1..2).
        pick(X) :- n(X), not skip(X).
        skip(X) :- n(X), not pick(X).
        :~ pick(X). [1@2]
    "
    .parse()
    .unwrap();
    let g = ground(&p).unwrap();
    let text = g.to_string();
    assert!(text.contains(":~ pick(1). [1@2]"), "{text}");
    assert!(text.contains(":~ pick(2). [1@2]"), "{text}");
    // And the printed ground program reparses.
    let again: Program = text.parse().unwrap();
    assert_eq!(again.weak_constraints().len(), 2);
}
