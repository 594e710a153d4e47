//! Vertex labels: the primitive operators of the reduction model.

use std::fmt;

use crate::value::Value;

/// A strict primitive operator.
///
/// Strict operators need the values of all their arguments before they can
/// compute (the paper's footnote 4); the reduction engine therefore requests
/// every argument *vitally*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (errors on division by zero).
    Div,
    /// Integer remainder (errors on division by zero).
    Mod,
    /// Integer negation (unary).
    Neg,
    /// Equality on integers and booleans.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than on integers.
    Lt,
    /// Less-or-equal on integers.
    Le,
    /// Greater-than on integers.
    Gt,
    /// Greater-or-equal on integers.
    Ge,
    /// Boolean conjunction (strict in both arguments).
    And,
    /// Boolean disjunction (strict in both arguments).
    Or,
    /// Boolean negation (unary).
    Not,
    /// Head of a cons cell (unary, strict in the spine).
    Head,
    /// Tail of a cons cell (unary, strict in the spine).
    Tail,
    /// Test for the empty list (unary, strict in the spine).
    IsNil,
}

impl PrimOp {
    /// Number of arguments the operator consumes.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Neg | PrimOp::Not | PrimOp::Head | PrimOp::Tail | PrimOp::IsNil => 1,
            _ => 2,
        }
    }

    /// The operator's conventional symbol, for display and parsing.
    pub fn symbol(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Mod => "%",
            PrimOp::Neg => "neg",
            PrimOp::Eq => "==",
            PrimOp::Ne => "!=",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::Gt => ">",
            PrimOp::Ge => ">=",
            PrimOp::And => "&&",
            PrimOp::Or => "||",
            PrimOp::Not => "not",
            PrimOp::Head => "head",
            PrimOp::Tail => "tail",
            PrimOp::IsNil => "isnil",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The label of a vertex in the computation graph.
///
/// Labels drive the reduction process; the marking processes in `dgr-core`
/// never inspect them (marking is purely a matter of graph connectivity,
/// which is the paper's central observation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum NodeLabel {
    /// An already-computed literal value.
    Lit(Value),
    /// A strict primitive; `args` are its operands in order.
    Prim(PrimOp),
    /// A conditional; `args = [predicate, then-branch, else-branch]`.
    /// Only the predicate is demanded vitally; branches may be demanded
    /// *eagerly* under speculative evaluation (paper Section 3.2).
    If,
    /// A lazy cons constructor; `args = [head, tail]`. In weak head normal
    /// form immediately, without demanding either component.
    Cons,
    /// A function application; `args = [function, x1, …, xk]`. Reduction
    /// demands the function vertex, then splices in the supercombinator
    /// body with `expand-node`.
    Apply,
    /// An indirection to another vertex; `args = [target]`. Produced when a
    /// reduction overwrites a vertex with a reference to its result.
    Ind,
    /// An uninitialized vertex on the free list.
    #[default]
    Hole,
}

impl NodeLabel {
    /// Convenience constructor for an integer literal label.
    pub fn lit_int(n: i64) -> Self {
        NodeLabel::Lit(Value::Int(n))
    }

    /// Convenience constructor for a boolean literal label.
    pub fn lit_bool(b: bool) -> Self {
        NodeLabel::Lit(Value::Bool(b))
    }

    /// Returns `true` if this label is a literal.
    pub fn is_lit(&self) -> bool {
        matches!(self, NodeLabel::Lit(_))
    }

    /// Returns `true` if this is the free-list placeholder label.
    pub fn is_hole(&self) -> bool {
        matches!(self, NodeLabel::Hole)
    }
}

impl fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeLabel::Lit(v) => write!(f, "lit {v}"),
            NodeLabel::Prim(op) => write!(f, "prim {op}"),
            NodeLabel::If => f.write_str("if"),
            NodeLabel::Cons => f.write_str("cons"),
            NodeLabel::Apply => f.write_str("apply"),
            NodeLabel::Ind => f.write_str("ind"),
            NodeLabel::Hole => f.write_str("hole"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Neg.arity(), 1);
        assert_eq!(PrimOp::Head.arity(), 1);
        assert_eq!(PrimOp::Le.arity(), 2);
    }

    #[test]
    fn symbols_unique() {
        use std::collections::HashSet;
        let ops = [
            PrimOp::Add,
            PrimOp::Sub,
            PrimOp::Mul,
            PrimOp::Div,
            PrimOp::Mod,
            PrimOp::Neg,
            PrimOp::Eq,
            PrimOp::Ne,
            PrimOp::Lt,
            PrimOp::Le,
            PrimOp::Gt,
            PrimOp::Ge,
            PrimOp::And,
            PrimOp::Or,
            PrimOp::Not,
            PrimOp::Head,
            PrimOp::Tail,
            PrimOp::IsNil,
        ];
        let set: HashSet<_> = ops.iter().map(|o| o.symbol()).collect();
        assert_eq!(set.len(), ops.len());
    }

    #[test]
    fn label_constructors() {
        assert!(NodeLabel::lit_int(1).is_lit());
        assert!(NodeLabel::lit_bool(true).is_lit());
        assert!(NodeLabel::Hole.is_hole());
        assert!(!NodeLabel::If.is_hole());
        assert_eq!(NodeLabel::default(), NodeLabel::Hole);
    }

    #[test]
    fn display_is_nonempty() {
        for l in [
            NodeLabel::lit_int(0),
            NodeLabel::Prim(PrimOp::Add),
            NodeLabel::If,
            NodeLabel::Cons,
            NodeLabel::Apply,
            NodeLabel::Ind,
            NodeLabel::Hole,
        ] {
            assert!(!l.to_string().is_empty());
        }
    }
}
