//! Rules and programs of the ASP fragment used by AGENP: normal rules and
//! constraints (paper §II-A).

use crate::atom::{Atom, Literal, Trace};
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// A normal rule `h :- b1, …, bn, not c1, …, not cm` or a constraint
/// (`head == None`). A fact is a rule with a ground head and empty body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// Head atom; `None` for constraints.
    pub head: Option<Atom>,
    /// Body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// A fact (rule with empty body).
    pub fn fact(head: Atom) -> Rule {
        Rule {
            head: Some(head),
            body: Vec::new(),
        }
    }

    /// A normal rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Rule {
        Rule {
            head: Some(head),
            body,
        }
    }

    /// A constraint `:- body`.
    pub fn constraint(body: Vec<Literal>) -> Rule {
        Rule { head: None, body }
    }

    /// True if this rule is a constraint.
    pub fn is_constraint(&self) -> bool {
        self.head.is_none()
    }

    /// True if this rule is a ground fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.head.as_ref().is_some_and(Atom::is_ground)
    }

    /// All variables occurring anywhere in the rule.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        if let Some(h) = &self.head {
            h.collect_vars(&mut out);
        }
        for l in &self.body {
            l.collect_vars(&mut out);
        }
        out
    }

    /// Number of literals (head counts as one); the ILASP-style cost of a
    /// rule in a hypothesis space.
    pub fn len(&self) -> usize {
        self.body.len() + usize::from(self.head.is_some())
    }

    /// True if the rule has neither head nor body (degenerate).
    pub fn is_empty(&self) -> bool {
        self.head.is_none() && self.body.is_empty()
    }

    /// Re-annotates the rule for instantiation at parse-tree node `t`
    /// (paper §II-A: `P R @ t`).
    pub fn instantiate_at(&self, t: &Trace) -> Rule {
        Rule {
            head: self.head.as_ref().map(|h| h.instantiate_at(t)),
            body: self.body.iter().map(|l| l.instantiate_at(t)).collect(),
        }
    }

    /// Checks rule safety: every variable must occur in a positive body atom,
    /// or be bound through a chain of `V = expr` assignments rooted in
    /// positive atoms. Returns the first unsafe variable, if any.
    pub fn unsafe_var(&self) -> Option<Symbol> {
        use crate::atom::CmpOp;
        let mut bound: Vec<Symbol> = Vec::new();
        for l in &self.body {
            if let Literal::Pos(a) = l {
                a.collect_vars(&mut bound);
            }
        }
        // Assignment binders: iterate to fixpoint since assignments may chain.
        loop {
            let mut changed = false;
            for l in &self.body {
                if let Literal::Cmp(CmpOp::Eq, Term::Var(v), rhs) = l {
                    if !bound.contains(v) && rhs.vars().iter().all(|x| bound.contains(x)) {
                        bound.push(*v);
                        changed = true;
                    }
                }
                if let Literal::Cmp(CmpOp::Eq, lhs, Term::Var(v)) = l {
                    if !bound.contains(v) && lhs.vars().iter().all(|x| bound.contains(x)) {
                        bound.push(*v);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.vars().into_iter().find(|v| !bound.contains(v))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(h) = &self.head {
            write!(f, "{h}")?;
            if !self.body.is_empty() {
                write!(f, " :- ")?;
            }
        } else {
            write!(f, ":- ")?;
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A weak constraint `:~ b1, …, bn. [w@l]`: a soft preference penalizing
/// answer sets in which the body holds by `w` at priority level `l`
/// (supporting the paper's *utility-based* policy type, §I).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WeakConstraint {
    /// Body literals.
    pub body: Vec<Literal>,
    /// Penalty (a term evaluating to an integer after grounding).
    pub weight: Term,
    /// Priority level (higher levels are minimized first).
    pub level: i64,
}

impl WeakConstraint {
    /// A level-0 weak constraint.
    pub fn new(body: Vec<Literal>, weight: Term) -> WeakConstraint {
        WeakConstraint {
            body,
            weight,
            level: 0,
        }
    }

    /// All variables occurring in the constraint.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for l in &self.body {
            l.collect_vars(&mut out);
        }
        self.weight.collect_vars(&mut out);
        out
    }

    /// Re-annotates the constraint at parse-tree node `t`.
    pub fn instantiate_at(&self, t: &Trace) -> WeakConstraint {
        WeakConstraint {
            body: self.body.iter().map(|l| l.instantiate_at(t)).collect(),
            weight: self.weight.clone(),
            level: self.level,
        }
    }

    /// Safety: every variable (including the weight's) must be bound by a
    /// positive body literal or assignment chain. Returns the first unsafe
    /// variable, if any, by delegating to the equivalent hard rule.
    pub fn unsafe_var(&self) -> Option<Symbol> {
        let proxy = Rule {
            head: None,
            body: self.body.clone(),
        };
        if let Some(v) = proxy.unsafe_var() {
            return Some(v);
        }
        // Weight vars must also be bound.
        let bound: Vec<Symbol> = {
            let mut b = Vec::new();
            for l in &self.body {
                if let Literal::Pos(a) = l {
                    a.collect_vars(&mut b);
                }
            }
            b
        };
        self.weight.vars().into_iter().find(|v| !bound.contains(v))
    }
}

impl fmt::Display for WeakConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":~ ")?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ". [{}@{}]", self.weight, self.level)
    }
}

/// An ASP program: a set of normal rules and constraints, plus optional
/// weak constraints for optimization.
///
/// ```
/// use agenp_asp::Program;
/// let p: Program = "p :- not q. q :- not p.".parse()?;
/// assert_eq!(p.rules().len(), 2);
/// # Ok::<(), agenp_asp::ParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    rules: Vec<Rule>,
    weaks: Vec<WeakConstraint>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// The program's rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Adds a weak constraint.
    pub fn push_weak(&mut self, weak: WeakConstraint) {
        self.weaks.push(weak);
    }

    /// The program's weak constraints.
    pub fn weak_constraints(&self) -> &[WeakConstraint] {
        &self.weaks
    }

    /// Appends all rules and weak constraints of `other`.
    pub fn extend_from(&mut self, other: &Program) {
        self.rules.extend(other.rules.iter().cloned());
        self.weaks.extend(other.weaks.iter().cloned());
    }

    /// Union of two programs.
    pub fn union(&self, other: &Program) -> Program {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// First safety violation in any rule, as `(rule_index, variable)`.
    pub fn unsafe_rule(&self) -> Option<(usize, Symbol)> {
        self.rules
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.unsafe_var().map(|v| (i, v)))
    }

    /// Re-annotates every rule and weak constraint at parse-tree node `t`.
    pub fn instantiate_at(&self, t: &Trace) -> Program {
        Program {
            rules: self.rules.iter().map(|r| r.instantiate_at(t)).collect(),
            weaks: self.weaks.iter().map(|w| w.instantiate_at(t)).collect(),
        }
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Program {
        Program {
            rules: iter.into_iter().collect(),
            weaks: Vec::new(),
        }
    }
}

impl Extend<Rule> for Program {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for w in &self.weaks {
            writeln!(f, "{w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    #[test]
    fn rule_display_forms() {
        let fact = Rule::fact(Atom::prop("p"));
        assert_eq!(fact.to_string(), "p.");
        let rule = Rule::new(
            Atom::prop("p"),
            vec![Literal::Pos(Atom::prop("q")), Literal::Neg(Atom::prop("r"))],
        );
        assert_eq!(rule.to_string(), "p :- q, not r.");
        let c = Rule::constraint(vec![Literal::Pos(Atom::prop("bad"))]);
        assert_eq!(c.to_string(), ":- bad.");
    }

    #[test]
    fn safety_detects_unbound_head_var() {
        let r = Rule::new(Atom::new("p", vec![Term::var("X")]), vec![]);
        assert_eq!(r.unsafe_var(), Some(Symbol::new("X")));
        let ok = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Literal::Pos(Atom::new("dom", vec![Term::var("X")]))],
        );
        assert_eq!(ok.unsafe_var(), None);
    }

    #[test]
    fn safety_accepts_assignment_chains() {
        // p(Z) :- dom(X), Y = X + 1, Z = Y * 2.
        let r = Rule::new(
            Atom::new("p", vec![Term::var("Z")]),
            vec![
                Literal::Pos(Atom::new("dom", vec![Term::var("X")])),
                Literal::Cmp(
                    CmpOp::Eq,
                    Term::var("Y"),
                    Term::Arith(
                        crate::term::ArithOp::Add,
                        Box::new(Term::var("X")),
                        Box::new(Term::Int(1)),
                    ),
                ),
                Literal::Cmp(
                    CmpOp::Eq,
                    Term::var("Z"),
                    Term::Arith(
                        crate::term::ArithOp::Mul,
                        Box::new(Term::var("Y")),
                        Box::new(Term::Int(2)),
                    ),
                ),
            ],
        );
        assert_eq!(r.unsafe_var(), None);
    }

    #[test]
    fn safety_rejects_neg_only_vars() {
        let r = Rule::constraint(vec![Literal::Neg(Atom::new("q", vec![Term::var("X")]))]);
        assert_eq!(r.unsafe_var(), Some(Symbol::new("X")));
    }

    #[test]
    fn program_collects_and_displays() {
        let mut p = Program::new();
        p.push(Rule::fact(Atom::prop("a")));
        p.push(Rule::constraint(vec![Literal::Pos(Atom::prop("a"))]));
        assert_eq!(p.to_string(), "a.\n:- a.\n");
        assert_eq!(p.len(), 2);
    }
}
