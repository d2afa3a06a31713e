//! The compiled policy kernel: a policy set compiled once into condition
//! trees whose leaves read a slot of a per-decision attribute table instead
//! of looking an attribute up by name.
//!
//! Compiling gives each distinct `(category, attr)` the conditions name a
//! slot. A decision first resolves the request's attributes into a slot
//! table, one lookup per slot, and then evaluates the compiled trees
//! against that table, so a leaf costs an index instead of two map
//! searches. Tables of up to `STACK_SLOTS` (16) slots live on the stack, so
//! a decision over such a set allocates nothing of its own.
//!
//! Evaluation shares every piece of semantics with the tree walk of
//! [`Cond::eval`] and [`evaluate_policies`](crate::evaluate_policies): the
//! leaf tests, the three-valued connectives, [`CombiningAlg::combine`] and
//! the obligation-collection loop are written once and called from both.

use crate::attr::{AttrValue, Category, Request};
use crate::model::{
    all3, any3, compare, member, not3, rule_decision, CombiningAlg, Cond, CondOp, Decision, Effect,
    Policy,
};
use crate::obligation::{collect_effects, DecisionEffects};
use std::collections::BTreeSet;

/// Slot tables up to this many slots live on the stack; larger ones take
/// one heap allocation per decision.
const STACK_SLOTS: usize = 16;

/// One decision's attribute table: slot `i` holds the request's value for
/// the compiled set's `i`-th `(category, attr)`, if the request has one.
type Slots<'r> = [Option<&'r AttrValue>];

/// A compiled condition: [`Cond`] with each attribute name replaced by its
/// slot index.
#[derive(Clone, Debug)]
enum Node {
    Cmp {
        slot: usize,
        op: CondOp,
        value: AttrValue,
    },
    In {
        slot: usize,
        values: Vec<AttrValue>,
    },
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

impl Node {
    fn compile(cond: &Cond, keys: &[(Category, String)]) -> Node {
        match cond {
            Cond::Cmp {
                category,
                attr,
                op,
                value,
            } => Node::Cmp {
                slot: slot_of(keys, *category, attr),
                op: *op,
                value: value.clone(),
            },
            Cond::In {
                category,
                attr,
                values,
            } => Node::In {
                slot: slot_of(keys, *category, attr),
                values: values.clone(),
            },
            Cond::And(cs) => Node::And(cs.iter().map(|c| Node::compile(c, keys)).collect()),
            Cond::Or(cs) => Node::Or(cs.iter().map(|c| Node::compile(c, keys)).collect()),
            Cond::Not(c) => Node::Not(Box::new(Node::compile(c, keys))),
        }
    }

    fn eval(&self, slots: &Slots<'_>) -> Option<bool> {
        match self {
            Node::Cmp { slot, op, value } => compare(slots[*slot]?, *op, value),
            Node::In { slot, values } => member(slots[*slot]?, values),
            Node::And(cs) => all3(cs.iter().map(|c| c.eval(slots))),
            Node::Or(cs) => any3(cs.iter().map(|c| c.eval(slots))),
            Node::Not(c) => not3(c.eval(slots)),
        }
    }
}

/// The slot of `(category, attr)` among the sorted, distinct `keys`.
fn slot_of(keys: &[(Category, String)], category: Category, attr: &str) -> usize {
    keys.binary_search_by(|(c, a)| (*c, a.as_str()).cmp(&(category, attr)))
        .expect("every attribute a condition names has a slot")
}

#[derive(Clone, Debug)]
struct CompiledRule {
    effect: Effect,
    condition: Option<Node>,
}

impl CompiledRule {
    fn evaluate(&self, slots: &Slots<'_>) -> Decision {
        match &self.condition {
            None => self.effect.into(),
            Some(c) => rule_decision(self.effect, c.eval(slots)),
        }
    }
}

#[derive(Clone, Debug)]
struct CompiledPolicy {
    combining: CombiningAlg,
    rules: Vec<CompiledRule>,
}

impl CompiledPolicy {
    fn evaluate(&self, slots: &Slots<'_>) -> Decision {
        self.combining
            .combine(self.rules.iter().map(|r| r.evaluate(slots)))
    }
}

/// A policy set and combining algorithm compiled for repeated evaluation.
///
/// [`CompiledPolicies::decide`] renders exactly what
/// [`evaluate_policies`](crate::evaluate_policies) renders over the same
/// policies, and [`CompiledPolicies::decide_effects`] exactly what
/// [`evaluate_policies_effects`](crate::evaluate_policies_effects) renders;
/// only the attribute lookup differs. Evaluation stops at the combining
/// algorithm's absorbing decision, at every level. The effects pass then
/// evaluates only the policies that carry annotations, whose indices are
/// listed at compile time.
#[derive(Clone, Debug)]
pub struct CompiledPolicies {
    policies: Vec<Policy>,
    combining: CombiningAlg,
    compiled: Vec<CompiledPolicy>,
    /// The sorted, distinct `(category, attr)` keys; key `i` is slot `i`.
    keys: Vec<(Category, String)>,
    /// Indices of the policies that carry annotations, ascending.
    annotated: Vec<usize>,
}

impl CompiledPolicies {
    /// Compiles `policies` under `combining`.
    pub fn new(policies: Vec<Policy>, combining: CombiningAlg) -> CompiledPolicies {
        let keys: Vec<(Category, String)> = policies
            .iter()
            .flat_map(|p| &p.rules)
            .filter_map(|r| r.condition.as_ref())
            .flat_map(Cond::referenced)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let compiled = policies
            .iter()
            .map(|p| CompiledPolicy {
                combining: p.combining,
                rules: p
                    .rules
                    .iter()
                    .map(|r| CompiledRule {
                        effect: r.effect,
                        condition: r.condition.as_ref().map(|c| Node::compile(c, &keys)),
                    })
                    .collect(),
            })
            .collect();
        let annotated = (0..policies.len())
            .filter(|&pi| policies[pi].has_annotations())
            .collect();
        CompiledPolicies {
            policies,
            combining,
            compiled,
            keys,
            annotated,
        }
    }

    /// The policy set, as given to [`CompiledPolicies::new`].
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The combining algorithm applied across policies.
    pub fn combining(&self) -> CombiningAlg {
        self.combining
    }

    /// Renders the decision for `request`.
    pub fn decide(&self, request: &Request) -> Decision {
        self.with_slots(request, |slots| self.decide_slots(slots))
    }

    /// Renders the decision for `request` with the obligations and penalty
    /// annotation the policy set attaches to it.
    pub fn decide_effects(&self, request: &Request) -> DecisionEffects {
        self.with_slots(request, |slots| {
            collect_effects(
                &self.policies,
                self.annotated.iter().copied(),
                self.decide_slots(slots),
                |pi| self.compiled[pi].evaluate(slots),
                |pi, ri| self.compiled[pi].rules[ri].evaluate(slots),
            )
        })
    }

    fn decide_slots(&self, slots: &Slots<'_>) -> Decision {
        self.combining
            .combine(self.compiled.iter().map(|p| p.evaluate(slots)))
    }

    /// Resolves `request` into a slot table and runs `f` on it.
    fn with_slots<R>(&self, request: &Request, f: impl FnOnce(&Slots<'_>) -> R) -> R {
        let n = self.keys.len();
        if n <= STACK_SLOTS {
            let mut table = [None; STACK_SLOTS];
            self.resolve(request, &mut table[..n]);
            f(&table[..n])
        } else {
            let mut table = vec![None; n];
            self.resolve(request, &mut table);
            f(&table)
        }
    }

    /// Fills `table` with the request's value for each key, if any.
    fn resolve<'r>(&self, request: &'r Request, table: &mut Slots<'r>) {
        for ((category, attr), cell) in self.keys.iter().zip(table) {
            *cell = request.get(*category, attr);
        }
    }
}
