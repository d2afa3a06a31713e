//! Parse trees with traces (paper §II-A: the trace of the root is `[]`, the
//! i-th child of the root is `[i]`, …).

use crate::cfg::{Cfg, GSym, ProdId};
use agenp_asp::{Symbol, Trace};
use std::fmt;

/// A child of a parse-tree node: either a subtree (nonterminal) or a
/// terminal leaf.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TreeChild {
    /// A nonterminal child with its own subtree.
    Node(ParseTree),
    /// A terminal token.
    Leaf(Symbol),
}

/// A parse tree: the production applied at the root plus one child per
/// right-hand-side symbol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ParseTree {
    /// The production applied at this node.
    pub prod: ProdId,
    /// Children, aligned with the production's right-hand side.
    pub children: Vec<TreeChild>,
}

impl ParseTree {
    /// The concatenated terminal yield of the tree (depth-first, left to
    /// right).
    pub fn tokens(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_tokens(&mut out);
        out
    }

    fn collect_tokens(&self, out: &mut Vec<Symbol>) {
        for c in &self.children {
            match c {
                TreeChild::Node(t) => t.collect_tokens(out),
                TreeChild::Leaf(s) => out.push(*s),
            }
        }
    }

    /// The yield as a whitespace-joined string.
    pub fn text(&self) -> String {
        Cfg::detokenize(&self.tokens())
    }

    /// Visits every nonterminal node with its trace, root first.
    pub fn visit_nodes(&self, mut f: impl FnMut(&ParseTree, &Trace)) {
        self.visit_inner(&Trace::root(), &mut f);
    }

    fn visit_inner(&self, trace: &Trace, f: &mut impl FnMut(&ParseTree, &Trace)) {
        f(self, trace);
        for (i, c) in self.children.iter().enumerate() {
            if let TreeChild::Node(t) = c {
                let child_trace = trace.child((i + 1) as u16);
                t.visit_inner(&child_trace, f);
            }
        }
    }

    /// Number of nonterminal nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                TreeChild::Node(t) => t.node_count(),
                TreeChild::Leaf(_) => 0,
            })
            .sum::<usize>()
    }

    /// Height of the tree (a node with only leaf children has height 1).
    pub fn height(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                TreeChild::Node(t) => t.height(),
                TreeChild::Leaf(_) => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Checks structural well-formedness against `cfg`: each node's children
    /// must align with its production's right-hand side.
    pub fn conforms_to(&self, cfg: &Cfg) -> bool {
        let prod = cfg.production(self.prod);
        if prod.rhs.len() != self.children.len() {
            return false;
        }
        prod.rhs
            .iter()
            .zip(&self.children)
            .all(|(sym, child)| match (sym, child) {
                (GSym::T(t), TreeChild::Leaf(l)) => t == l,
                (GSym::Nt(n), TreeChild::Node(sub)) => {
                    cfg.production(sub.prod).lhs == *n && sub.conforms_to(cfg)
                }
                _ => false,
            })
    }
}

impl fmt::Display for ParseTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p{}", self.prod.index())?;
        for c in &self.children {
            match c {
                TreeChild::Node(t) => write!(f, " {t}")?,
                TreeChild::Leaf(s) => s.with_name(|n| write!(f, " {n:?}"))?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{nt, t, CfgBuilder};

    fn tiny() -> (Cfg, ParseTree) {
        // s -> "a" s | "b"
        let mut b = CfgBuilder::new();
        let p0 = b.production("s", vec![t("a"), nt("s")]);
        let p1 = b.production("s", vec![t("b")]);
        let cfg = b.build().unwrap();
        // tree for "a a b"
        let leaf_b = ParseTree {
            prod: p1,
            children: vec![TreeChild::Leaf(Symbol::new("b"))],
        };
        let mid = ParseTree {
            prod: p0,
            children: vec![TreeChild::Leaf(Symbol::new("a")), TreeChild::Node(leaf_b)],
        };
        let root = ParseTree {
            prod: p0,
            children: vec![TreeChild::Leaf(Symbol::new("a")), TreeChild::Node(mid)],
        };
        (cfg, root)
    }

    #[test]
    fn yield_and_text() {
        let (_, tree) = tiny();
        assert_eq!(tree.text(), "a a b");
        assert_eq!(tree.tokens().len(), 3);
    }

    #[test]
    fn traces_enumerate_nodes() {
        let (_, tree) = tiny();
        let mut traces = Vec::new();
        tree.visit_nodes(|_, tr| traces.push(tr.clone()));
        assert_eq!(traces.len(), 3);
        assert!(traces[0].is_root());
        assert_eq!(traces[1], Trace::from_indices([2]));
        assert_eq!(traces[2], Trace::from_indices([2, 2]));
    }

    #[test]
    fn conformance_checks_structure() {
        let (cfg, tree) = tiny();
        assert!(tree.conforms_to(&cfg));
        let bad = ParseTree {
            prod: tree.prod,
            children: vec![],
        };
        assert!(!bad.conforms_to(&cfg));
    }

    #[test]
    fn metrics() {
        let (_, tree) = tiny();
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.height(), 3);
    }
}
