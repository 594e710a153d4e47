//! Subgraph templates instantiated by the `expand-node` mutator primitive.
//!
//! A [`Template`] describes the body of a supercombinator as a small graph
//! of [`TemplateNode`]s. When a function application is reduced, the
//! template is *instantiated*: fresh vertices are taken from the free list,
//! wired up according to the template, and spliced in below the application
//! vertex (`splice-in-subgraph(v, g)` in the paper). The instantiation is
//! performed by `dgr-core`'s cooperating `expand-node` so that marking
//! invariants are preserved.

use crate::error::GraphError;
use crate::ids::VertexId;
use crate::label::NodeLabel;
use crate::store::GraphStore;

/// A reference from a template node to one of its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateRef {
    /// Another node of the same template, by local index.
    Local(usize),
    /// The `i`-th actual argument of the application being expanded.
    Param(usize),
    /// The vertex being expanded itself (enables cyclic structures such as
    /// `letrec xs = cons 1 xs`).
    SelfRoot,
    /// A fixed vertex in the global graph (e.g. a shared CAF).
    Global(VertexId),
}

/// One node of a template subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateNode {
    /// The label the instantiated vertex receives.
    pub label: NodeLabel,
    /// Arcs of the instantiated vertex, in order.
    pub args: Vec<TemplateRef>,
}

impl TemplateNode {
    /// Creates a template node.
    pub fn new(label: NodeLabel, args: Vec<TemplateRef>) -> Self {
        TemplateNode { label, args }
    }
}

/// The compiled body of a supercombinator.
///
/// Node 0 is the body's root: expansion relabels the application vertex with
/// node 0's label and rewires its args; nodes 1.. are allocated fresh.
///
/// # Example
///
/// ```
/// use dgr_graph::{NodeLabel, PrimOp, Template, TemplateNode, TemplateRef};
/// // \x -> x + 1
/// let tpl = Template::new(
///     "inc",
///     1,
///     vec![
///         TemplateNode::new(
///             NodeLabel::Prim(PrimOp::Add),
///             vec![TemplateRef::Param(0), TemplateRef::Local(1)],
///         ),
///         TemplateNode::new(NodeLabel::lit_int(1), vec![]),
///     ],
/// )
/// .unwrap();
/// assert_eq!(tpl.arity(), 1);
/// assert_eq!(tpl.extra_vertices(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    name: String,
    arity: usize,
    nodes: Vec<TemplateNode>,
}

impl Template {
    /// Creates a template, validating internal references.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadTemplateParam`] if a node references a
    /// parameter `≥ arity`, and [`GraphError::InvalidVertex`] if a local
    /// reference points past the node list.
    pub fn new(
        name: impl Into<String>,
        arity: usize,
        nodes: Vec<TemplateNode>,
    ) -> Result<Self, GraphError> {
        for node in &nodes {
            for r in &node.args {
                match *r {
                    TemplateRef::Param(i) if i >= arity => {
                        return Err(GraphError::BadTemplateParam {
                            index: i,
                            supplied: arity,
                        });
                    }
                    TemplateRef::Local(i) if i >= nodes.len() => {
                        return Err(GraphError::InvalidVertex(VertexId::new(i as u32)));
                    }
                    _ => {}
                }
            }
        }
        assert!(!nodes.is_empty(), "a template needs at least a root node");
        Ok(Template {
            name: name.into(),
            arity,
            nodes,
        })
    }

    /// The template's (diagnostic) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parameters the supercombinator takes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The template's nodes; node 0 is the root.
    pub fn nodes(&self) -> &[TemplateNode] {
        &self.nodes
    }

    /// How many fresh vertices instantiation takes from the free list
    /// (everything except the root, which reuses the expanded vertex).
    pub fn extra_vertices(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Instantiates the template below `target`.
    ///
    /// This is the raw `splice-in-subgraph(v, g)`: `target` is relabeled
    /// with node 0's label and its args replaced by node 0's args; the
    /// remaining nodes are allocated from the free list. The ids of the
    /// freshly allocated vertices are left in the caller's `fresh` (for
    /// the cooperating `expand-node` wrapper in `dgr-core`, which must
    /// color them).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::OutOfVertices`] if the free list cannot supply
    /// [`Template::extra_vertices`] vertices, and
    /// [`GraphError::BadTemplateParam`] if fewer actuals than the arity are
    /// supplied. On error the graph is unchanged.
    pub fn instantiate(
        &self,
        g: &mut GraphStore,
        target: VertexId,
        actuals: &[VertexId],
        fresh: &mut Vec<VertexId>,
    ) -> Result<(), GraphError> {
        if actuals.len() < self.arity {
            return Err(GraphError::BadTemplateParam {
                index: self.arity - 1,
                supplied: actuals.len(),
            });
        }
        g.alloc_many(self.extra_vertices(), fresh)?;
        // Local index i maps to: target when i == 0, fresh[i-1] otherwise.
        let resolve = |r: TemplateRef| -> VertexId {
            match r {
                TemplateRef::Local(0) => target,
                TemplateRef::Local(i) => fresh[i - 1],
                TemplateRef::Param(i) => actuals[i],
                TemplateRef::SelfRoot => target,
                TemplateRef::Global(v) => v,
            }
        };
        // Each node's arcs are resolved straight into its vertex.
        let ids = std::iter::once(target).chain(fresh.iter().copied());
        for (node, id) in self.nodes.iter().zip(ids) {
            let v = g.vertex_mut(id);
            v.label = node.label.clone();
            v.replace_args(node.args.iter().map(|&r| resolve(r)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::PrimOp;

    fn inc_template() -> Template {
        Template::new(
            "inc",
            1,
            vec![
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Add),
                    vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                ),
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_param() {
        let err = Template::new(
            "bad",
            1,
            vec![TemplateNode::new(
                NodeLabel::If,
                vec![TemplateRef::Param(3)],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::BadTemplateParam { .. }));
    }

    #[test]
    fn validation_rejects_bad_local() {
        let err = Template::new(
            "bad",
            0,
            vec![TemplateNode::new(
                NodeLabel::If,
                vec![TemplateRef::Local(5)],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidVertex(_)));
    }

    #[test]
    fn instantiate_splices_below_target() {
        let mut g = GraphStore::with_capacity(8);
        let arg = g.alloc(NodeLabel::lit_int(41)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        let tpl = inc_template();
        let mut fresh = Vec::new();
        tpl.instantiate(&mut g, app, &[arg], &mut fresh).unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(g.vertex(app).label, NodeLabel::Prim(PrimOp::Add));
        assert_eq!(g.vertex(app).args(), &[arg, fresh[0]]);
        assert_eq!(g.vertex(fresh[0]).label, NodeLabel::lit_int(1));
    }

    #[test]
    fn instantiate_requires_enough_actuals() {
        let mut g = GraphStore::with_capacity(4);
        let app = g.alloc(NodeLabel::Apply).unwrap();
        let tpl = inc_template();
        let err = tpl
            .instantiate(&mut g, app, &[], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::BadTemplateParam { .. }));
        assert_eq!(g.free_count(), 3, "graph unchanged on error");
    }

    #[test]
    fn instantiate_out_of_vertices_leaves_graph_unchanged() {
        let mut g = GraphStore::with_capacity(1);
        let app = g.alloc(NodeLabel::Apply).unwrap();
        let tpl = inc_template();
        let arg = app; // irrelevant; allocation fails first
        let err = tpl
            .instantiate(&mut g, app, &[arg], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::OutOfVertices { .. }));
        assert_eq!(g.vertex(app).label, NodeLabel::Apply);
    }

    #[test]
    fn self_root_enables_cycles() {
        // letrec xs = cons 1 xs
        let tpl = Template::new(
            "cyc",
            0,
            vec![
                TemplateNode::new(
                    NodeLabel::Cons,
                    vec![TemplateRef::Local(1), TemplateRef::SelfRoot],
                ),
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap();
        let mut g = GraphStore::with_capacity(4);
        let app = g.alloc(NodeLabel::Apply).unwrap();
        let mut fresh = Vec::new();
        tpl.instantiate(&mut g, app, &[], &mut fresh).unwrap();
        assert_eq!(g.vertex(app).args()[1], app, "tail points back at root");
        assert_eq!(g.vertex(app).args()[0], fresh[0]);
    }

    #[test]
    fn global_refs_resolve() {
        let mut g = GraphStore::with_capacity(4);
        let shared = g.alloc(NodeLabel::lit_int(7)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        let tpl = Template::new(
            "useglobal",
            0,
            vec![TemplateNode::new(
                NodeLabel::Prim(PrimOp::Neg),
                vec![TemplateRef::Global(shared)],
            )],
        )
        .unwrap();
        tpl.instantiate(&mut g, app, &[], &mut Vec::new()).unwrap();
        assert_eq!(g.vertex(app).args(), &[shared]);
    }
}
