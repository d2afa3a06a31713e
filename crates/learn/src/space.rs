//! Hypothesis spaces `S_M` (paper Definition 3): sets of candidate ASP rules,
//! each tagged with the production rule it may be added to, generated from a
//! mode bias or supplied explicitly.

use agenp_asp::{Atom, CmpOp, Literal, Rule, Symbol, Term};
use agenp_grammar::ProdId;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// One learnable rule: the rule plus the identifier of the production whose
/// annotation it extends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The rule that may be added.
    pub rule: Rule,
    /// Target production (Definition 3's `pr_id`).
    pub target: ProdId,
    /// ILASP-style cost: the number of literals in the rule.
    pub cost: u32,
}

impl Candidate {
    /// Builds a candidate, deriving its cost from the rule length.
    pub fn new(target: ProdId, rule: Rule) -> Candidate {
        let cost = rule.len().max(1) as u32;
        Candidate { rule, target, cost }
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{} ⊕ {}", self.target.index(), self.rule)
    }
}

/// An ASG hypothesis space: an ordered set of [`Candidate`] rules.
#[derive(Clone, Debug, Default)]
pub struct HypothesisSpace {
    candidates: Vec<Candidate>,
}

impl HypothesisSpace {
    /// An empty space.
    pub fn new() -> HypothesisSpace {
        HypothesisSpace::default()
    }

    /// Builds a space from explicit candidates (deduplicated).
    pub fn from_candidates(candidates: impl IntoIterator<Item = Candidate>) -> HypothesisSpace {
        let mut seen: HashSet<(usize, String)> = HashSet::new();
        let mut out = Vec::new();
        for c in candidates {
            if seen.insert((c.target.index(), c.rule.to_string())) {
                out.push(c);
            }
        }
        HypothesisSpace { candidates: out }
    }

    /// Convenience: parses each `(production, rule_text)` pair.
    ///
    /// # Panics
    ///
    /// Panics if a rule fails to parse; intended for statically known spaces.
    pub fn from_texts(pairs: &[(ProdId, &str)]) -> HypothesisSpace {
        HypothesisSpace::from_candidates(pairs.iter().map(|(p, s)| {
            Candidate::new(
                *p,
                s.parse().unwrap_or_else(|e| panic!("bad rule `{s}`: {e}")),
            )
        }))
    }

    /// The candidates, in order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// True if every candidate is a constraint (enables the monotone
    /// fast-path learner).
    pub fn constraints_only(&self) -> bool {
        self.candidates.iter().all(|c| c.rule.is_constraint())
    }

    /// Appends another space's candidates (deduplicated).
    pub fn merge(&mut self, other: HypothesisSpace) {
        let mut seen: HashSet<(usize, String)> = self
            .candidates
            .iter()
            .map(|c| (c.target.index(), c.rule.to_string()))
            .collect();
        for c in other.candidates {
            if seen.insert((c.target.index(), c.rule.to_string())) {
                self.candidates.push(c);
            }
        }
    }
}

impl FromIterator<Candidate> for HypothesisSpace {
    fn from_iter<I: IntoIterator<Item = Candidate>>(iter: I) -> HypothesisSpace {
        HypothesisSpace::from_candidates(iter)
    }
}

/// An argument slot in a mode declaration.
#[derive(Clone, Debug)]
pub enum ModeArg {
    /// Filled by a variable.
    Var,
    /// Filled by one of the listed ground terms.
    Choice(Vec<Term>),
}

/// A mode atom: predicate, argument modes, and the allowed annotations
/// (`None` = the node's own trace, `Some(i)` = child `i`).
#[derive(Clone, Debug)]
pub struct ModeAtom {
    /// Predicate name.
    pub pred: String,
    /// Argument slots.
    pub args: Vec<ModeArg>,
    /// Allowed annotations.
    pub annotations: Vec<Option<u16>>,
}

impl ModeAtom {
    /// A local (unannotated) mode atom.
    pub fn local(pred: &str, args: Vec<ModeArg>) -> ModeAtom {
        ModeAtom {
            pred: pred.to_owned(),
            args,
            annotations: vec![None],
        }
    }

    /// A mode atom annotated with one of the given child indices.
    pub fn children(pred: &str, args: Vec<ModeArg>, children: Vec<u16>) -> ModeAtom {
        ModeAtom {
            pred: pred.to_owned(),
            args,
            annotations: children.into_iter().map(Some).collect(),
        }
    }
}

/// A body mode: a [`ModeAtom`] plus allowed polarities.
#[derive(Clone, Debug)]
pub struct ModeLiteral {
    /// The atom shape.
    pub atom: ModeAtom,
    /// Allow the positive literal.
    pub positive: bool,
    /// Allow the negated (`not`) literal.
    pub negative: bool,
}

impl ModeLiteral {
    /// Allows both polarities.
    pub fn both(atom: ModeAtom) -> ModeLiteral {
        ModeLiteral {
            atom,
            positive: true,
            negative: true,
        }
    }

    /// Allows only the positive literal.
    pub fn positive(atom: ModeAtom) -> ModeLiteral {
        ModeLiteral {
            atom,
            positive: true,
            negative: false,
        }
    }
}

/// A comparison mode: generate `V ⊙ k` body literals over the given
/// constants.
#[derive(Clone, Debug)]
pub struct ModeCmp {
    /// Allowed operators.
    pub ops: Vec<CmpOp>,
    /// Right-hand-side constants.
    pub constants: Vec<Term>,
}

/// A mode bias: the declarative specification of a hypothesis space
/// (ILASP-style), targeted at a set of production rules.
#[derive(Clone, Debug)]
pub struct ModeBias {
    /// Productions that generated rules may be added to.
    pub targets: Vec<ProdId>,
    /// Allowed rule heads (empty ⇒ only constraints are generated).
    pub heads: Vec<ModeAtom>,
    /// Allowed body literals.
    pub body: Vec<ModeLiteral>,
    /// Comparison literals to append (each adds at most one per rule).
    pub comparisons: Vec<ModeCmp>,
    /// Variable-variable comparison operators to append (each adds at most
    /// one `Vi ⊙ Vj` literal per rule).
    pub var_comparisons: Vec<CmpOp>,
    /// Maximum number of body literals (excluding the comparison).
    pub max_body: usize,
    /// Maximum number of distinct variables per rule.
    pub max_vars: usize,
    /// Also generate headless constraints.
    pub allow_constraints: bool,
    /// Hard cap on the number of candidates generated.
    pub max_candidates: usize,
}

impl ModeBias {
    /// A constraint-only bias over the given productions.
    pub fn constraints(targets: Vec<ProdId>, body: Vec<ModeLiteral>) -> ModeBias {
        ModeBias {
            targets,
            heads: Vec::new(),
            body,
            comparisons: Vec::new(),
            var_comparisons: Vec::new(),
            max_body: 2,
            max_vars: 2,
            allow_constraints: true,
            max_candidates: 20_000,
        }
    }

    /// Sets the body-length bound.
    pub fn max_body(mut self, n: usize) -> ModeBias {
        self.max_body = n;
        self
    }

    /// Sets the variable bound.
    pub fn max_vars(mut self, n: usize) -> ModeBias {
        self.max_vars = n;
        self
    }

    /// Adds comparison modes.
    pub fn with_comparisons(mut self, cmps: Vec<ModeCmp>) -> ModeBias {
        self.comparisons = cmps;
        self
    }

    /// Adds variable-variable comparison operators.
    pub fn with_var_comparisons(mut self, ops: Vec<CmpOp>) -> ModeBias {
        self.var_comparisons = ops;
        self
    }

    /// Generates the hypothesis space.
    ///
    /// Variables are canonicalized (first occurrence order `V1, V2, …`) so
    /// that alphabetic variants of the same rule are generated once. Unsafe
    /// rules (a variable not bound by a positive body literal) are skipped.
    pub fn generate(&self) -> HypothesisSpace {
        // 1. Instantiate every literal template: polarity × annotation ×
        //    argument fillers. Variables are numbered placeholders 0..max_vars.
        #[derive(Clone)]
        struct LitTemplate {
            literal: Literal,
        }
        let mut templates: Vec<LitTemplate> = Vec::new();
        let var_names: Vec<Symbol> = (1..=self.max_vars)
            .map(|i| Symbol::new(&format!("V{i}")))
            .collect();

        let arg_fills = |atom: &ModeAtom| -> Vec<Vec<Term>> {
            let mut combos: Vec<Vec<Term>> = vec![Vec::new()];
            for arg in &atom.args {
                let choices: Vec<Term> = match arg {
                    ModeArg::Var => var_names.iter().map(|v| Term::Var(*v)).collect(),
                    ModeArg::Choice(ts) => ts.clone(),
                };
                let mut next = Vec::new();
                for c in &combos {
                    for t in &choices {
                        let mut nc = c.clone();
                        nc.push(t.clone());
                        next.push(nc);
                    }
                }
                combos = next;
            }
            combos
        };

        for ml in &self.body {
            for ann in &ml.atom.annotations {
                for args in arg_fills(&ml.atom) {
                    let mut atom = Atom::new(Symbol::new(&ml.atom.pred), args);
                    if let Some(i) = ann {
                        atom = atom.with_trace(agenp_asp::Trace::from_indices([*i]));
                    }
                    if ml.positive {
                        templates.push(LitTemplate {
                            literal: Literal::Pos(atom.clone()),
                        });
                    }
                    if ml.negative {
                        templates.push(LitTemplate {
                            literal: Literal::Neg(atom),
                        });
                    }
                }
            }
        }

        // Comparison literals: V ⊙ k for each variable.
        let mut cmp_templates: Vec<Literal> = Vec::new();
        for mc in &self.comparisons {
            for op in &mc.ops {
                for k in &mc.constants {
                    for v in &var_names {
                        cmp_templates.push(Literal::Cmp(*op, Term::Var(*v), k.clone()));
                    }
                }
            }
        }
        // Variable-variable comparisons: Vi ⊙ Vj. Symmetric operators only
        // need unordered pairs; asymmetric ones need both orders.
        for op in &self.var_comparisons {
            let symmetric = matches!(op, CmpOp::Eq | CmpOp::Ne);
            for (i, vi) in var_names.iter().enumerate() {
                for (j, vj) in var_names.iter().enumerate() {
                    if i == j || (symmetric && i > j) {
                        continue;
                    }
                    cmp_templates.push(Literal::Cmp(*op, Term::Var(*vi), Term::Var(*vj)));
                }
            }
        }

        // Head templates.
        let mut head_templates: Vec<Option<Atom>> = Vec::new();
        if self.allow_constraints {
            head_templates.push(None);
        }
        for h in &self.heads {
            for ann in &h.annotations {
                for args in arg_fills(h) {
                    let mut atom = Atom::new(Symbol::new(&h.pred), args);
                    if let Some(i) = ann {
                        atom = atom.with_trace(agenp_asp::Trace::from_indices([*i]));
                    }
                    head_templates.push(Some(atom));
                }
            }
        }

        // 2. Enumerate bodies: ordered index combinations (i1 < i2 < …) of
        //    distinct templates, sizes 1..=max_body, optionally plus one
        //    comparison. Each rule goes straight to step 3.
        let mut kept = Kept {
            pool: &var_names,
            targets: self.targets.len(),
            max_candidates: self.max_candidates,
            rules: Vec::new(),
            index: HashMap::new(),
            full: false,
        };
        let mut combo = Vec::new();
        fn bodies(
            templates: &[Literal],
            cmps: &[Literal],
            start: usize,
            combo: &mut Vec<Literal>,
            max_body: usize,
            out: &mut dyn FnMut(&[Literal]),
        ) {
            if !combo.is_empty() {
                out(combo);
                for c in cmps {
                    combo.push(c.clone());
                    out(combo);
                    combo.pop();
                }
            }
            if combo.len() >= max_body {
                return;
            }
            for i in start..templates.len() {
                combo.push(templates[i].clone());
                bodies(templates, cmps, i + 1, combo, max_body, out);
                combo.pop();
            }
        }
        let lits: Vec<Literal> = templates.iter().map(|t| t.literal.clone()).collect();
        bodies(
            &lits,
            &cmp_templates,
            0,
            &mut combo,
            self.max_body,
            &mut |body: &[Literal]| {
                for head in &head_templates {
                    kept.offer(Rule {
                        head: head.clone(),
                        body: body.to_vec(),
                    });
                }
            },
        );
        // Headed rules with empty bodies (facts) are also meaningful for
        // normal-rule heads.
        for head in head_templates.iter().flatten() {
            if head.is_ground() {
                kept.offer(Rule {
                    head: Some(head.clone()),
                    body: Vec::new(),
                });
            }
        }
        let mut out = kept.rules;
        out.sort_by_key(|r| r.len());

        // The rules are distinct, so only a repeated target can repeat a
        // candidate.
        let mut targets: Vec<ProdId> = Vec::new();
        for t in &self.targets {
            if !targets.contains(t) {
                targets.push(*t);
            }
        }
        HypothesisSpace {
            candidates: targets
                .iter()
                .flat_map(|t| out.iter().map(move |r| Candidate::new(*t, r.clone())))
                .collect(),
        }
    }
}

/// Step 3 of [`ModeBias::generate`]: canonicalizes each offered rule's
/// variables, skips unsafe rules, and keeps each distinct rule once, in
/// order, until the candidate cap is reached.
struct Kept<'a> {
    pool: &'a [Symbol],
    targets: usize,
    max_candidates: usize,
    rules: Vec<Rule>,
    /// Kept rules by hash.
    index: HashMap<u64, Vec<usize>>,
    full: bool,
}

impl Kept<'_> {
    fn offer(&mut self, mut rule: Rule) {
        // Renaming is a bijection, so it keeps a rule (un)safe.
        if self.full || rule.unsafe_var().is_some() {
            return;
        }
        canonicalize_vars(&mut rule, self.pool);
        let mut hasher = DefaultHasher::new();
        rule.hash(&mut hasher);
        let ids = self.index.entry(hasher.finish()).or_default();
        if ids.iter().any(|&i| self.rules[i] == rule) {
            return;
        }
        ids.push(self.rules.len());
        self.rules.push(rule);
        self.full = self.rules.len() * self.targets >= self.max_candidates;
    }
}

/// Renames variables to `V1, V2, …` in order of first occurrence, body
/// first so that safety is stable.
fn canonicalize_vars(rule: &mut Rule, pool: &[Symbol]) {
    let mut order = Vec::new();
    for l in &rule.body {
        l.collect_vars(&mut order);
    }
    if let Some(h) = &rule.head {
        h.collect_vars(&mut order);
    }
    let mapping: Vec<(Symbol, Symbol)> = order
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let fresh = pool
                .get(i)
                .copied()
                .unwrap_or_else(|| Symbol::new(&format!("V{}", i + 1)));
            (*v, fresh)
        })
        .collect();
    if mapping.iter().all(|(old, new)| old == new) {
        return;
    }
    if let Some(h) = &mut rule.head {
        rename_atom(h, &mapping);
    }
    for l in &mut rule.body {
        match l {
            Literal::Pos(a) | Literal::Neg(a) => rename_atom(a, &mapping),
            Literal::Cmp(_, x, y) => {
                rename_term(x, &mapping);
                rename_term(y, &mapping);
            }
        }
    }
}

fn rename_atom(a: &mut Atom, mapping: &[(Symbol, Symbol)]) {
    for t in &mut a.args {
        rename_term(t, mapping);
    }
}

fn rename_term(t: &mut Term, mapping: &[(Symbol, Symbol)]) {
    match t {
        Term::Var(v) => {
            if let Some((_, new)) = mapping.iter().find(|(old, _)| old == v) {
                *v = *new;
            }
        }
        Term::Func(_, args) => {
            for a in args {
                rename_term(a, mapping);
            }
        }
        Term::Arith(_, l, r) => {
            rename_term(l, mapping);
            rename_term(r, mapping);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProdId {
        ProdId::from_index(i)
    }

    #[test]
    fn explicit_space_dedupes() {
        let s = HypothesisSpace::from_texts(&[
            (pid(0), ":- bad."),
            (pid(0), ":- bad."),
            (pid(1), ":- bad."),
        ]);
        assert_eq!(s.len(), 2);
        assert!(s.constraints_only());
    }

    #[test]
    fn merge_dedupes() {
        let mut a = HypothesisSpace::from_texts(&[(pid(0), ":- x.")]);
        let b = HypothesisSpace::from_texts(&[(pid(0), ":- x."), (pid(0), ":- y.")]);
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn mode_bias_generates_constraints() {
        let bias = ModeBias::constraints(
            vec![pid(0)],
            vec![
                ModeLiteral::both(ModeAtom::local(
                    "weather",
                    vec![ModeArg::Choice(vec![Term::sym("rain"), Term::sym("clear")])],
                )),
                ModeLiteral::positive(ModeAtom::local("risky", vec![])),
            ],
        )
        .max_body(2);
        let space = bias.generate();
        assert!(space.constraints_only());
        let texts: Vec<String> = space
            .candidates()
            .iter()
            .map(|c| c.rule.to_string())
            .collect();
        assert!(texts.contains(&":- weather(rain).".to_owned()), "{texts:?}");
        assert!(texts.contains(&":- not weather(clear).".to_owned()));
        assert!(
            texts.contains(&":- risky, weather(rain).".to_owned())
                || texts.contains(&":- weather(rain), risky.".to_owned())
        );
        // No unsafe variable constraints, no duplicates.
        let unique: HashSet<&String> = texts.iter().collect();
        assert_eq!(unique.len(), texts.len());
    }

    #[test]
    fn mode_bias_canonicalizes_variables() {
        let bias = ModeBias::constraints(
            vec![pid(0)],
            vec![ModeLiteral::positive(ModeAtom::local(
                "p",
                vec![ModeArg::Var],
            ))],
        )
        .max_vars(3)
        .max_body(1);
        let space = bias.generate();
        // p(V1), p(V2), p(V3) all canonicalize to p(V1): exactly one rule.
        assert_eq!(space.len(), 1);
        assert_eq!(space.candidates()[0].rule.to_string(), ":- p(V1).");
    }

    #[test]
    fn mode_bias_generates_annotated_literals() {
        let bias = ModeBias::constraints(
            vec![pid(0)],
            vec![ModeLiteral::positive(ModeAtom::children(
                "size",
                vec![ModeArg::Var],
                vec![1, 2],
            ))],
        )
        .max_body(2);
        let space = bias.generate();
        let texts: Vec<String> = space
            .candidates()
            .iter()
            .map(|c| c.rule.to_string())
            .collect();
        assert!(texts.contains(&":- size(V1)@1.".to_owned()));
        assert!(texts.iter().any(|t| t.contains("@1") && t.contains("@2")));
    }

    #[test]
    fn mode_bias_comparisons_attach_to_bound_vars() {
        let bias = ModeBias::constraints(
            vec![pid(0)],
            vec![ModeLiteral::positive(ModeAtom::local(
                "loa",
                vec![ModeArg::Var],
            ))],
        )
        .max_vars(1)
        .max_body(1)
        .with_comparisons(vec![ModeCmp {
            ops: vec![CmpOp::Lt, CmpOp::Ge],
            constants: vec![Term::Int(3)],
        }]);
        let space = bias.generate();
        let texts: Vec<String> = space
            .candidates()
            .iter()
            .map(|c| c.rule.to_string())
            .collect();
        assert!(
            texts.contains(&":- loa(V1), V1 < 3.".to_owned()),
            "{texts:?}"
        );
        assert!(texts.contains(&":- loa(V1), V1 >= 3.".to_owned()));
        // Bare `:- V1 < 3.` is unsafe and must be absent.
        assert!(!texts.iter().any(|t| t.starts_with(":- V1")));
    }

    #[test]
    fn candidate_costs_follow_length() {
        let s = HypothesisSpace::from_texts(&[(pid(0), ":- a."), (pid(0), ":- a, b.")]);
        assert_eq!(s.candidates()[0].cost, 1);
        assert_eq!(s.candidates()[1].cost, 2);
    }

    #[test]
    fn max_candidates_caps_generation() {
        let bias = ModeBias {
            max_candidates: 5,
            ..ModeBias::constraints(
                vec![pid(0)],
                vec![ModeLiteral::both(ModeAtom::local(
                    "attr",
                    vec![ModeArg::Choice((0..10).map(Term::Int).collect())],
                ))],
            )
        };
        let space = bias.generate();
        assert!(space.len() <= 5);
    }
}
