//! Ergonomic construction of expression graphs.

use dgr_graph::{GraphStore, NodeLabel, PrimOp, Value, VertexId};

use crate::templates::TemplateId;

/// A convenience builder that allocates expression vertices into a
/// [`GraphStore`], growing the store when the free list runs dry.
///
/// # Example
///
/// ```
/// use dgr_reduction::Builder;
/// use dgr_graph::{GraphStore, PrimOp};
///
/// let mut g = GraphStore::new();
/// let mut b = Builder::new(&mut g);
/// let one = b.int(1);
/// let two = b.int(2);
/// let sum = b.prim2(PrimOp::Add, one, two);
/// g.set_root(sum);
/// assert_eq!(g.vertex(sum).args().len(), 2);
/// ```
#[derive(Debug)]
pub struct Builder<'g> {
    g: &'g mut GraphStore,
}

impl<'g> Builder<'g> {
    /// Creates a builder over the store.
    pub fn new(g: &'g mut GraphStore) -> Self {
        Builder { g }
    }

    fn alloc(&mut self, label: NodeLabel) -> VertexId {
        if self.g.free_count() == 0 {
            self.g.grow(64);
        }
        self.g.alloc(label).expect("grown above")
    }

    /// A literal value vertex.
    pub fn lit(&mut self, v: Value) -> VertexId {
        self.alloc(NodeLabel::Lit(v))
    }

    /// An integer literal.
    pub fn int(&mut self, n: i64) -> VertexId {
        self.lit(Value::Int(n))
    }

    /// A boolean literal.
    pub fn bool_(&mut self, b: bool) -> VertexId {
        self.lit(Value::Bool(b))
    }

    /// The empty list.
    pub fn nil(&mut self) -> VertexId {
        self.lit(Value::Nil)
    }

    /// A reference to a supercombinator (a function value with no captured
    /// arguments).
    pub fn fn_ref(&mut self, tpl: TemplateId) -> VertexId {
        self.lit(Value::function(tpl, Vec::new()))
    }

    /// A strict primitive application.
    ///
    /// # Panics
    ///
    /// Panics if the number of arguments does not match the operator's
    /// arity.
    pub fn prim(&mut self, op: PrimOp, args: &[VertexId]) -> VertexId {
        assert_eq!(args.len(), op.arity(), "{op} takes {} args", op.arity());
        let v = self.alloc(NodeLabel::Prim(op));
        for &a in args {
            self.g.connect(v, a);
        }
        v
    }

    /// A unary primitive application.
    pub fn prim1(&mut self, op: PrimOp, a: VertexId) -> VertexId {
        self.prim(op, &[a])
    }

    /// A binary primitive application.
    pub fn prim2(&mut self, op: PrimOp, a: VertexId, b: VertexId) -> VertexId {
        self.prim(op, &[a, b])
    }

    /// A conditional vertex.
    pub fn if_(&mut self, p: VertexId, t: VertexId, e: VertexId) -> VertexId {
        let v = self.alloc(NodeLabel::If);
        self.g.connect(v, p);
        self.g.connect(v, t);
        self.g.connect(v, e);
        v
    }

    /// A lazy cons cell.
    pub fn cons(&mut self, h: VertexId, t: VertexId) -> VertexId {
        let v = self.alloc(NodeLabel::Cons);
        self.g.connect(v, h);
        self.g.connect(v, t);
        v
    }

    /// A function application `f x1 … xn`.
    pub fn apply(&mut self, f: VertexId, args: &[VertexId]) -> VertexId {
        let v = self.alloc(NodeLabel::Apply);
        self.g.connect(v, f);
        for &a in args {
            self.g.connect(v, a);
        }
        v
    }

    /// An indirection to `target`.
    pub fn ind(&mut self, target: VertexId) -> VertexId {
        let v = self.alloc(NodeLabel::Ind);
        self.g.connect(v, target);
        v
    }

    /// A proper list of integers built from cons cells.
    pub fn int_list(&mut self, items: &[i64]) -> VertexId {
        let mut tail = self.nil();
        for &n in items.iter().rev() {
            let h = self.int(n);
            tail = self.cons(h, tail);
        }
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_grows_store() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        for i in 0..100 {
            b.int(i);
        }
        assert!(g.capacity() >= 100);
        assert_eq!(g.live_count(), 100);
    }

    #[test]
    fn if_wires_three_args() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let p = b.bool_(true);
        let t = b.int(1);
        let e = b.int(2);
        let v = b.if_(p, t, e);
        assert_eq!(g.vertex(v).args(), &[p, t, e]);
    }

    #[test]
    fn int_list_structure() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let l = b.int_list(&[1, 2]);
        // cons(1, cons(2, nil))
        let v = g.vertex(l);
        assert_eq!(v.label, NodeLabel::Cons);
        let tail = v.args()[1];
        assert_eq!(g.vertex(tail).label, NodeLabel::Cons);
        let nil = g.vertex(tail).args()[1];
        assert_eq!(g.vertex(nil).label, NodeLabel::Lit(Value::Nil));
    }

    #[test]
    #[should_panic(expected = "takes 2 args")]
    fn prim_arity_checked() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let x = b.int(1);
        b.prim(PrimOp::Add, &[x]);
    }
}
