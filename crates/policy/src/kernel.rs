//! The compiled policy kernel: a policy set compiled once into one
//! evaluation plan of rules and policies whose condition trees read a slot
//! of a per-decision attribute table instead of looking an attribute up by
//! name.
//!
//! Compiling gives each distinct `(category, attr)` the conditions name a
//! slot. A decision first resolves the request's attributes into a slot
//! table, one lookup per slot, and a bitset of the slots that hold a value,
//! and then evaluates the plan against them, so a leaf costs an index
//! instead of two map searches. Tables of up to `STACK_SLOTS` (16) slots
//! live on the stack, so a decision over such a set allocates nothing of
//! its own.
//!
//! **The plan.** An overrides algorithm returns its overriding decision
//! (Deny under deny-overrides, Permit under permit-overrides) if any input
//! has it, and otherwise the maximum of its inputs under NotApplicable <
//! the other effect < Indeterminate. That maximum is associative and does
//! not depend on order, so a policy whose own algorithm is the set's can
//! hand its rules to the set's list: the plan holds those policies'
//! overriding rules first, one item each, then every other policy as one
//! whole item, then the remaining rules. One `combine` over the plan stops
//! at the first rule that renders the overriding decision, evaluates no
//! rule twice and renders what combining the policies would. Under
//! first-applicable every policy stays whole, in order. An empty policy
//! renders NotApplicable, which no algorithm's result depends on, so it
//! adds nothing.
//!
//! **Absent attributes.** Each compiled rule keeps the mask of slots its
//! condition reads and the decision it renders when none of them holds a
//! value (every leaf is then unknown), both computed at compile time, so a
//! rule whose attributes the request lacks costs one mask test instead of a
//! tree walk.
//!
//! Evaluation shares every piece of semantics with the tree walk of
//! [`Cond::eval`] and [`evaluate_policies`](crate::evaluate_policies): the
//! leaf tests, the three-valued connectives, [`CombiningAlg::combine`] and
//! the obligation-collection loop are written once and called from both.

use crate::attr::{AttrValue, Category, Request};
use crate::model::{
    all3, any3, compare, member, not3, rule_decision, CombiningAlg, Cond, CondOp, Decision, Effect,
    Policy, PolicyRule,
};
use crate::obligation::{collect_effects, DecisionEffects};
use std::collections::BTreeSet;
use std::ops::Range;

/// Slot tables up to this many slots live on the stack; larger ones take
/// one heap allocation per decision.
const STACK_SLOTS: usize = 16;

/// Slots per word of a slot bitset.
const WORD_BITS: usize = 64;

/// One decision's attribute table: slot `i` holds the request's value for
/// the compiled set's `i`-th `(category, attr)`, if the request has one.
type Slots<'r> = [Option<&'r AttrValue>];

/// One decision's inputs: the slot table and the bitset of its filled
/// slots (bit `i % 64` of word `i / 64` is slot `i`; at least one word).
struct Table<'t, 'r> {
    slots: &'t Slots<'r>,
    present: &'t [u64],
}

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
    /// Compiles `cond`, pushing the slot of every leaf onto `reads`.
    fn compile(cond: &Cond, keys: &[(Category, String)], reads: &mut Vec<usize>) -> Node {
        let mut slot = |category, attr: &str| {
            let slot = slot_of(keys, category, attr);
            reads.push(slot);
            slot
        };
        match cond {
            Cond::Cmp {
                category,
                attr,
                op,
                value,
            } => Node::Cmp {
                slot: slot(*category, attr),
                op: *op,
                value: value.clone(),
            },
            Cond::In {
                category,
                attr,
                values,
            } => Node::In {
                slot: slot(*category, attr),
                values: values.clone(),
            },
            Cond::And(cs) => Node::And(Node::compile_all(cs, keys, reads)),
            Cond::Or(cs) => Node::Or(Node::compile_all(cs, keys, reads)),
            Cond::Not(c) => Node::Not(Box::new(Node::compile(c, keys, reads))),
        }
    }

    fn compile_all(cs: &[Cond], keys: &[(Category, String)], reads: &mut Vec<usize>) -> Vec<Node> {
        cs.iter().map(|c| Node::compile(c, keys, reads)).collect()
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

/// A set of slots as a bitset: word 0 inline, and each higher word that
/// has a slot as an `(index, bits)` pair, so the mask stays exact however
/// many slots the set has.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SlotMask {
    low: u64,
    high: Box<[(usize, u64)]>,
}

impl SlotMask {
    fn of(slots: &[usize]) -> SlotMask {
        let mut low = 0;
        let mut high: Vec<(usize, u64)> = Vec::new();
        for &s in slots {
            let (word, bit) = (s / WORD_BITS, 1 << (s % WORD_BITS));
            if word == 0 {
                low |= bit;
            } else if let Some((_, bits)) = high.iter_mut().find(|(w, _)| *w == word) {
                *bits |= bit;
            } else {
                high.push((word, bit));
            }
        }
        high.sort_unstable();
        SlotMask {
            low,
            high: high.into_boxed_slice(),
        }
    }

    /// True if any slot of the mask is filled in `present`.
    fn meets(&self, present: &[u64]) -> bool {
        self.low & present[0] != 0 || self.high.iter().any(|&(w, bits)| present[w] & bits != 0)
    }
}

#[derive(Clone, Debug)]
struct CompiledRule {
    effect: Effect,
    /// The condition; an unconditional rule's is an empty `And`, which
    /// holds.
    condition: Node,
    /// The slots `condition` reads.
    reads: SlotMask,
    /// What the rule renders when none of `reads` is filled.
    absent: Decision,
}

impl CompiledRule {
    /// Compiles `rule`; `unfilled` is a table of `keys.len()` empty slots,
    /// and `reads` a buffer reused across rules.
    fn compile(
        rule: &PolicyRule,
        keys: &[(Category, String)],
        unfilled: &Slots<'_>,
        reads: &mut Vec<usize>,
    ) -> Self {
        reads.clear();
        let condition = match &rule.condition {
            Some(c) => Node::compile(c, keys, reads),
            None => Node::And(Vec::new()),
        };
        CompiledRule {
            effect: rule.effect,
            absent: rule_decision(rule.effect, condition.eval(unfilled)),
            condition,
            reads: SlotMask::of(reads),
        }
    }

    fn evaluate(&self, table: &Table<'_, '_>) -> Decision {
        if !self.reads.meets(table.present) {
            return self.absent;
        }
        rule_decision(self.effect, self.condition.eval(table.slots))
    }
}

/// One item of the evaluation plan.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// One rule of a policy whose algorithm is the set's: an index into
    /// `CompiledPolicies::rules`.
    Rule(usize),
    /// A whole policy: its algorithm and its rules, a range of
    /// `CompiledPolicies::rules`.
    Policy(CombiningAlg, Range<usize>),
}

/// A policy set and combining algorithm compiled for repeated evaluation.
///
/// [`CompiledPolicies::decide`] renders exactly what
/// [`evaluate_policies`](crate::evaluate_policies) renders over the same
/// policies, and [`CompiledPolicies::decide_effects`] exactly what
/// [`evaluate_policies_effects`](crate::evaluate_policies_effects) renders;
/// only the attribute lookup and the order of evaluation differ. A decision
/// is one `combine` over the set's plan (see the module docs), which stops
/// at the algorithm's absorbing decision, as does each whole policy in it.
/// The effects pass then evaluates only the policies that carry
/// annotations, whose indices are listed at compile time.
#[derive(Clone, Debug)]
pub struct CompiledPolicies {
    policies: Vec<Policy>,
    combining: CombiningAlg,
    /// The sorted, distinct `(category, attr)` keys; key `i` is slot `i`.
    keys: Vec<(Category, String)>,
    /// Every rule of every policy, compiled, in the order the plan reads
    /// them; a whole policy's rules are contiguous.
    rules: Vec<CompiledRule>,
    /// `rules[at[pi][ri]]` is rule `ri` of policy `pi`.
    at: Vec<Vec<usize>>,
    plan: Vec<Step>,
    /// Indices of the policies that carry annotations, ascending.
    annotated: Vec<usize>,
}

impl CompiledPolicies {
    /// Compiles `policies` under `combining`.
    pub fn new(policies: Vec<Policy>, combining: CombiningAlg) -> CompiledPolicies {
        let mut named = BTreeSet::new();
        for c in policies
            .iter()
            .flat_map(|p| &p.rules)
            .filter_map(|r| r.condition.as_ref())
        {
            c.visit_refs(&mut |category, attr| {
                named.insert((category, attr));
            });
        }
        let keys: Vec<(Category, String)> = named
            .into_iter()
            .map(|(category, attr)| (category, attr.to_owned()))
            .collect();
        // The plan's three parts: the overriding rules of the policies
        // that take the set's algorithm, every other non-empty policy, and
        // those policies' remaining rules.
        let (mut first, mut whole, mut last) = (Vec::new(), Vec::new(), Vec::new());
        for (pi, p) in policies.iter().enumerate() {
            match combining.overriding() {
                Some(overriding) if p.combining == combining => {
                    for (ri, r) in p.rules.iter().enumerate() {
                        let part = if r.effect == overriding {
                            &mut first
                        } else {
                            &mut last
                        };
                        part.push((pi, ri));
                    }
                }
                _ if p.rules.is_empty() => {}
                _ => whole.push(pi),
            }
        }
        let unfilled = vec![None; keys.len()];
        let mut reads = Vec::new();
        let mut rules = Vec::with_capacity(policies.iter().map(|p| p.rules.len()).sum());
        let mut at: Vec<Vec<usize>> = policies.iter().map(|p| vec![0; p.rules.len()]).collect();
        let mut place = |pi: usize, ri: usize| {
            at[pi][ri] = rules.len();
            rules.push(CompiledRule::compile(
                &policies[pi].rules[ri],
                &keys,
                &unfilled,
                &mut reads,
            ));
            rules.len() - 1
        };
        let mut plan = Vec::with_capacity(first.len() + whole.len() + last.len());
        plan.extend(first.iter().map(|&(pi, ri)| Step::Rule(place(pi, ri))));
        for &pi in &whole {
            let n = policies[pi].rules.len();
            let start = place(pi, 0);
            for ri in 1..n {
                place(pi, ri);
            }
            plan.push(Step::Policy(policies[pi].combining, start..start + n));
        }
        plan.extend(last.iter().map(|&(pi, ri)| Step::Rule(place(pi, ri))));
        let annotated = (0..policies.len())
            .filter(|&pi| policies[pi].has_annotations())
            .collect();
        CompiledPolicies {
            policies,
            combining,
            keys,
            rules,
            at,
            plan,
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
        self.with_table(request, |table| self.decide_table(table))
    }

    /// Renders the decision for `request` with the obligations and penalty
    /// annotation the policy set attaches to it.
    pub fn decide_effects(&self, request: &Request) -> DecisionEffects {
        self.with_table(request, |table| {
            let rule = |pi: usize, ri: usize| self.rules[self.at[pi][ri]].evaluate(table);
            collect_effects(
                &self.policies,
                self.annotated.iter().copied(),
                self.decide_table(table),
                |pi| {
                    self.policies[pi]
                        .combining
                        .combine((0..self.at[pi].len()).map(|ri| rule(pi, ri)))
                },
                rule,
            )
        })
    }

    fn decide_table(&self, table: &Table<'_, '_>) -> Decision {
        self.combining
            .combine(self.plan.iter().map(|step| match step {
                Step::Rule(i) => self.rules[*i].evaluate(table),
                Step::Policy(alg, span) => {
                    alg.combine(self.rules[span.clone()].iter().map(|r| r.evaluate(table)))
                }
            }))
    }

    /// Resolves `request` into a slot table and runs `f` on it.
    fn with_table<R>(&self, request: &Request, f: impl FnOnce(&Table<'_, '_>) -> R) -> R {
        let n = self.keys.len();
        if n <= STACK_SLOTS {
            let mut slots = [None; STACK_SLOTS];
            let mut present = [0u64];
            self.resolve(request, &mut slots[..n], &mut present);
            f(&Table {
                slots: &slots[..n],
                present: &present,
            })
        } else {
            let mut slots = vec![None; n];
            let mut present = vec![0u64; n.div_ceil(WORD_BITS)];
            self.resolve(request, &mut slots, &mut present);
            f(&Table {
                slots: &slots,
                present: &present,
            })
        }
    }

    /// Fills `slots` with the request's value for each key, if any, and
    /// sets the bit in `present` of each slot filled.
    fn resolve<'r>(&self, request: &'r Request, slots: &mut Slots<'r>, present: &mut [u64]) {
        for (i, ((category, attr), cell)) in self.keys.iter().zip(slots).enumerate() {
            *cell = request.get(*category, attr);
            if cell.is_some() {
                present[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdp::evaluate_policies;

    /// A plan item, named by policy and rule index.
    #[derive(Debug, PartialEq, Eq)]
    enum Item {
        Rule(usize, usize),
        Policy(usize),
    }

    /// The plan of `set`, checked against its rule layout.
    fn shape(set: &CompiledPolicies) -> Vec<Item> {
        let owner = |i: usize| {
            (0..set.at.len())
                .flat_map(|pi| (0..set.at[pi].len()).map(move |ri| (pi, ri)))
                .find(|&(pi, ri)| set.at[pi][ri] == i)
                .expect("every compiled rule belongs to a policy")
        };
        set.plan
            .iter()
            .map(|step| match step {
                Step::Rule(i) => {
                    let (pi, ri) = owner(*i);
                    Item::Rule(pi, ri)
                }
                Step::Policy(alg, span) => {
                    let (pi, _) = owner(span.start);
                    assert_eq!(set.at[pi], span.clone().collect::<Vec<_>>());
                    assert_eq!(*alg, set.policies[pi].combining);
                    Item::Policy(pi)
                }
            })
            .collect()
    }

    fn rule(effect: Effect, attr: &str) -> PolicyRule {
        PolicyRule::new(attr, effect, Cond::eq(Category::Subject, attr, "x"))
    }

    fn policy(alg: CombiningAlg, rules: Vec<PolicyRule>) -> Policy {
        Policy::new("p", rules).with_combining(alg)
    }

    /// Every request over `attrs` with values `x`/`y`, each attribute
    /// present or absent.
    fn requests(attrs: &[&str]) -> Vec<Request> {
        let mut out = vec![Request::new()];
        for a in attrs {
            out = out
                .into_iter()
                .flat_map(|r| {
                    [
                        r.clone(),
                        r.clone().subject(a, "x"),
                        r.clone().subject(a, "y"),
                    ]
                })
                .collect();
        }
        out
    }

    fn assert_decides_as_the_tree_walk(set: &CompiledPolicies, attrs: &[&str]) {
        for r in requests(attrs) {
            assert_eq!(
                set.decide(&r),
                evaluate_policies(set.policies(), set.combining(), &r),
                "{r}"
            );
        }
    }

    #[test]
    fn overriding_rules_come_first() {
        use Effect::{Deny, Permit};
        for (alg, over, other) in [
            (CombiningAlg::DenyOverrides, Deny, Permit),
            (CombiningAlg::PermitOverrides, Permit, Deny),
        ] {
            let set = CompiledPolicies::new(
                vec![
                    policy(
                        alg,
                        vec![rule(other, "a"), rule(over, "b"), rule(other, "c")],
                    ),
                    policy(alg, vec![rule(over, "d"), rule(other, "e")]),
                ],
                alg,
            );
            assert_eq!(
                shape(&set),
                [
                    Item::Rule(0, 1),
                    Item::Rule(1, 0),
                    Item::Rule(0, 0),
                    Item::Rule(0, 2),
                    Item::Rule(1, 1),
                ]
            );
            assert_decides_as_the_tree_walk(&set, &["a", "b", "c", "d", "e"]);
        }
    }

    #[test]
    fn a_policy_with_another_algorithm_stays_whole() {
        use Effect::{Deny, Permit};
        let set = CompiledPolicies::new(
            vec![
                policy(
                    CombiningAlg::DenyOverrides,
                    vec![rule(Permit, "a"), rule(Deny, "b")],
                ),
                policy(
                    CombiningAlg::PermitOverrides,
                    vec![rule(Deny, "c"), rule(Permit, "d")],
                ),
                policy(CombiningAlg::FirstApplicable, vec![rule(Permit, "e")]),
            ],
            CombiningAlg::DenyOverrides,
        );
        assert_eq!(
            shape(&set),
            [
                Item::Rule(0, 1),
                Item::Policy(1),
                Item::Policy(2),
                Item::Rule(0, 0),
            ]
        );
        assert_decides_as_the_tree_walk(&set, &["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn first_applicable_keeps_policy_order() {
        use Effect::{Deny, Permit};
        let set = CompiledPolicies::new(
            vec![
                policy(
                    CombiningAlg::FirstApplicable,
                    vec![rule(Permit, "a"), rule(Deny, "b")],
                ),
                policy(CombiningAlg::DenyOverrides, vec![rule(Deny, "c")]),
                policy(
                    CombiningAlg::FirstApplicable,
                    vec![rule(Deny, "d"), rule(Permit, "e")],
                ),
            ],
            CombiningAlg::FirstApplicable,
        );
        assert_eq!(
            shape(&set),
            [Item::Policy(0), Item::Policy(1), Item::Policy(2)]
        );
        assert_decides_as_the_tree_walk(&set, &["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn an_empty_policy_adds_nothing() {
        for alg in [
            CombiningAlg::DenyOverrides,
            CombiningAlg::PermitOverrides,
            CombiningAlg::FirstApplicable,
        ] {
            let set = CompiledPolicies::new(
                vec![
                    policy(alg, Vec::new()),
                    policy(CombiningAlg::PermitOverrides, Vec::new()),
                    policy(alg, vec![rule(Effect::Deny, "a")]),
                    policy(CombiningAlg::DenyOverrides, Vec::new()),
                ],
                alg,
            );
            let want = match alg {
                CombiningAlg::FirstApplicable => Item::Policy(2),
                _ => Item::Rule(2, 0),
            };
            assert_eq!(shape(&set), [want]);
            assert_eq!(set.at[0], Vec::<usize>::new());
            assert_decides_as_the_tree_walk(&set, &["a"]);
            let empty = CompiledPolicies::new(vec![policy(alg, Vec::new())], alg);
            assert!(empty.plan.is_empty());
            assert_eq!(empty.decide(&Request::new()), Decision::NotApplicable);
        }
    }

    /// Slot `i` of the wide set below is `subject.kNN` with `NN = i`.
    fn wide_attr(i: usize) -> String {
        format!("k{i:02}")
    }

    #[test]
    fn a_rule_whose_attributes_are_absent_is_answered_from_its_precomputed_decision() {
        // Seventy slots: `k69` is slot 69, in the mask's second word.
        let reads_all = Cond::And(
            (0..69)
                .map(|i| Cond::eq(Category::Subject, &wide_attr(i), 1i64))
                .collect(),
        );
        let late = Cond::Or(vec![
            Cond::eq(Category::Subject, &wide_attr(69), 1i64),
            Cond::Not(Box::new(Cond::Or(Vec::new()))),
        ]);
        let mut set = CompiledPolicies::new(
            vec![Policy::new(
                "p",
                vec![
                    PolicyRule::new("late", Effect::Deny, late),
                    PolicyRule::new("all", Effect::Permit, reads_all),
                    PolicyRule::unconditional("always", Effect::Permit),
                ],
            )],
            CombiningAlg::DenyOverrides,
        );
        let (late, all, always) = (set.at[0][0], set.at[0][1], set.at[0][2]);
        assert_eq!(set.keys.len(), 70);
        assert_eq!(set.rules[late].reads, SlotMask::of(&[69]));
        assert_eq!(set.rules[late].reads.low, 0);
        assert_eq!(*set.rules[late].reads.high, [(1, 1 << 5)]);
        assert_eq!(set.rules[all].reads.low, u64::MAX);
        assert_eq!(*set.rules[all].reads.high, [(1, (1 << 5) - 1)]);
        assert_eq!(set.rules[always].reads, SlotMask::of(&[]));
        // `k69 = 1 or not (or [])`: unknown or true, which holds.
        assert_eq!(set.rules[late].absent, Decision::Deny);
        assert_eq!(set.rules[all].absent, Decision::Indeterminate);
        assert_eq!(set.rules[always].absent, Decision::Permit);

        // A marker the tree never renders for this rule shows which path
        // answered.
        set.rules[late].absent = Decision::Permit;
        let evaluate = |set: &CompiledPolicies, i: usize, r: &Request| {
            set.with_table(r, |table| set.rules[i].evaluate(table))
        };
        let low_only = Request::new().subject(&wide_attr(0), 1i64);
        assert_eq!(evaluate(&set, late, &low_only), Decision::Permit);
        assert_eq!(evaluate(&set, late, &Request::new()), Decision::Permit);
        let late_set = Request::new().subject(&wide_attr(69), 2i64);
        assert_eq!(evaluate(&set, late, &late_set), Decision::Deny);
        assert_eq!(
            evaluate(&set, all, &late_set),
            Decision::Indeterminate,
            "slot 69 is not among `all`'s 0..69"
        );
        set.rules[all].absent = Decision::NotApplicable;
        assert_eq!(evaluate(&set, all, &late_set), Decision::NotApplicable);
        assert_eq!(evaluate(&set, all, &low_only), Decision::Indeterminate);
    }
}
