//! Differential property tests for the semi-naive grounder: on random safe
//! programs with variables, recursion, negation, comparisons, and weak
//! constraints, the grounder without simplification must produce exactly
//! the instances of the naive full-universe reference grounder that its
//! over-approximation reaches ([`check_ground_instances`]), the simplified
//! grounding must find the reference's definite facts, grounding twice must
//! give byte-identical output, and the incremental grounder must match
//! monolithic grounding for any base/delta split.

use agenp_asp::{
    ground_with_stats, GroundOptions, GroundProgram, IncrementalGrounder, Program, Rule,
};
use agenp_refsem::diff::check_ground_instances;
use agenp_refsem::reference::{self, GroundRuleRef, Model};
use proptest::prelude::*;

/// One atom position in a generated rule: which predicate and which argument
/// selectors (0 = `X`, 1 = `Y`, 2.. = small integer constants).
type AtomSpec = (u8, Vec<u8>);

/// A generated rule, safe by construction: negative literals, comparisons,
/// and head arguments only use variables bound by the positive body (unbound
/// selectors are rewritten to a constant during rendering).
#[derive(Clone, Debug)]
struct RuleSpec {
    body: Vec<AtomSpec>,
    neg: Option<AtomSpec>,
    cmp: Option<u8>,
    head: Option<AtomSpec>,
}

/// Predicates: `p/1`, `q/1`, `s/1`, `r/2`.
fn pred_name(sel: u8) -> (&'static str, usize) {
    match sel % 4 {
        0 => ("p", 1),
        1 => ("q", 1),
        2 => ("s", 1),
        _ => ("r", 2),
    }
}

/// Renders an argument selector; unbound variables become the constant `1`.
fn arg_str(sel: u8, bound: &[bool; 2]) -> String {
    match sel % 6 {
        0 if bound[0] => "X".to_string(),
        1 if bound[1] => "Y".to_string(),
        other => ((other % 4) + 1).to_string(),
    }
}

/// Renders an atom; `bound` marks which variables may appear.
fn atom_str(spec: &AtomSpec, bound: &[bool; 2]) -> String {
    let (name, arity) = pred_name(spec.0);
    let args: Vec<String> = (0..arity)
        .map(|i| arg_str(*spec.1.get(i).unwrap_or(&2), bound))
        .collect();
    format!("{name}({})", args.join(", "))
}

/// Renders a rule spec as program text.
fn rule_str(spec: &RuleSpec) -> String {
    let all = [true, true];
    let mut bound = [false, false];
    let mut body: Vec<String> = Vec::new();
    for a in &spec.body {
        body.push(atom_str(a, &all));
        let (_, arity) = pred_name(a.0);
        for i in 0..arity {
            match a.1.get(i).unwrap_or(&2) % 6 {
                0 => bound[0] = true,
                1 => bound[1] = true,
                _ => {}
            }
        }
    }
    if let Some(n) = &spec.neg {
        body.push(format!("not {}", atom_str(n, &bound)));
    }
    if let Some(c) = spec.cmp {
        if bound[0] {
            body.push(format!("X < {}", (c % 4) + 1));
        }
    }
    match &spec.head {
        Some(h) => format!("{} :- {}.", atom_str(h, &bound), body.join(", ")),
        None => format!(":- {}.", body.join(", ")),
    }
}

fn arb_atom_spec() -> impl Strategy<Value = AtomSpec> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 2))
}

fn arb_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        proptest::collection::vec(arb_atom_spec(), 1..4),
        proptest::option::of(arb_atom_spec()),
        proptest::option::of(any::<u8>()),
        proptest::option::weighted(0.8, arb_atom_spec()),
    )
        .prop_map(|(body, neg, cmp, head)| RuleSpec {
            body,
            neg,
            cmp,
            head,
        })
}

/// A random safe program: ground facts, generated rules, and sometimes a
/// weak constraint.
fn arb_program_text() -> impl Strategy<Value = String> {
    let fact = (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, a, b)| {
        let (name, arity) = pred_name(p);
        if arity == 1 {
            format!("{name}({}).", (a % 4) + 1)
        } else {
            format!("{name}({}, {}).", (a % 4) + 1, (b % 4) + 1)
        }
    });
    let weak = (any::<u8>(), any::<u8>()).prop_map(|(p, w)| {
        let (name, arity) = pred_name(p);
        let args = if arity == 1 { "X" } else { "X, X" };
        format!(":~ {name}({args}). [{}@0]", (w % 3) + 1)
    });
    (
        proptest::collection::vec(fact, 1..6),
        proptest::collection::vec(arb_rule_spec(), 1..6),
        proptest::option::weighted(0.3, weak),
    )
        .prop_map(|(facts, rules, weak)| {
            let mut lines = facts;
            lines.extend(rules.iter().map(rule_str));
            lines.extend(weak);
            lines.join("\n")
        })
}

/// Order-insensitive rendering of a ground program.
fn rendered_lines(g: &GroundProgram) -> Vec<String> {
    let mut lines: Vec<String> = g.to_string().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// The atom table as `(id, rendered atom)` pairs.
fn atom_ids(g: &GroundProgram) -> Vec<(u32, String)> {
    g.atoms()
        .iter()
        .map(|(id, a)| (id, a.to_string()))
        .collect()
}

/// The definite facts of the naive reference grounding: the least model of
/// the instances none of whose negated atoms is derivable (in the least
/// model of the positive relaxation).
fn reference_definite_facts(program: &Program) -> Model {
    let rules = reference::naive_ground(program);
    let derivable = reference::positive_least_model(&rules);
    let unblocked: Vec<GroundRuleRef> = rules
        .into_iter()
        .filter(|r| r.neg.iter().all(|n| !derivable.contains(n)))
        .collect();
    reference::positive_least_model(&unblocked)
}

/// The definite facts of a grounding, rendered.
fn definite_facts(g: &GroundProgram) -> Model {
    g.definite_facts()
        .iter()
        .map(|&id| reference::render(g.atoms().resolve(id)))
        .collect()
}

/// The grounder's unit-test programs: recursion, a comparison, negation
/// and a weak constraint.
#[test]
fn seminaive_matches_naive_reference_on_fixed_programs() {
    for text in [
        "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
         path(X, Y) :- edge(X, Y).
         path(X, Z) :- edge(X, Y), path(Y, Z).
         far(X) :- path(X, Y), Y > 3.
         near(X) :- path(X, Y), not far(X).
         :~ path(X, Y). [1@0]",
        "edge(1, 2). edge(2, 3).
         path(X, Y) :- edge(X, Y).
         path(X, Z) :- edge(X, Y), path(Y, Z).",
    ] {
        let program: Program = text.parse().expect("test programs parse");
        assert_eq!(check_ground_instances(&program), Ok(()), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn seminaive_equals_naive_on_random_programs(text in arb_program_text()) {
        let program: Program = text.parse().expect("generated programs parse");
        let (semi, _) = ground_with_stats(&program, GroundOptions::default())
            .expect("generated programs ground");
        prop_assert_eq!(definite_facts(&semi), reference_definite_facts(&program), "{}", text);
        // Grounding is deterministic: a second run (whose hash maps draw
        // fresh keys) emits the same rules in the same order and assigns the
        // same atom ids.
        let (again, _) = ground_with_stats(&program, GroundOptions::default())
            .expect("generated programs ground");
        prop_assert_eq!(again.to_string(), semi.to_string());
        prop_assert_eq!(atom_ids(&again), atom_ids(&semi));
    }

    #[test]
    fn seminaive_equals_naive_without_simplification(text in arb_program_text()) {
        let program: Program = text.parse().expect("generated programs parse");
        prop_assert_eq!(check_ground_instances(&program), Ok(()), "{}", text);
    }

    #[test]
    fn incremental_delta_equals_monolithic_on_random_splits(
        base_text in arb_program_text(),
        delta_specs in proptest::collection::vec(arb_rule_spec(), 0..4),
    ) {
        let base: Program = base_text.parse().expect("parses");
        let delta: Vec<Rule> = delta_specs
            .iter()
            .map(|s| rule_str(s).parse().expect("generated rules parse"))
            .collect();
        let mut combined = base.clone();
        for r in &delta {
            combined.push(r.clone());
        }
        let (monolithic, _) =
            ground_with_stats(&combined, GroundOptions::default()).expect("grounds");
        let grounder =
            IncrementalGrounder::new(&base, GroundOptions::default()).expect("base grounds");
        let incremental = grounder.ground_delta(&delta).expect("delta grounds");
        prop_assert_eq!(rendered_lines(&incremental), rendered_lines(&monolithic));
    }
}
