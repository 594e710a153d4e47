//! Computation-graph substrate for distributed graph reduction.
//!
//! This crate implements the graph model of Hudak's *Distributed Task and
//! Memory Management* (PODC 1983). A program is a directed **computation
//! graph** whose vertices carry operator/value labels and whose edges record
//! data dependencies. For every vertex `v` the paper keeps three edge sets
//! current, all of which are first-class here:
//!
//! * [`Vertex::args`] — the original data dependencies of `v`,
//! * `req-args(v) ⊆ args(v)` — the subset whose values `v` has requested,
//!   split into *vitally* and *eagerly* requested arcs
//!   (see [`RequestKind`]), and
//! * [`Vertex::requested`] — the vertices awaiting `v`'s value.
//!
//! Vertices are allocated from an explicit **free list** `F`
//! ([`GraphStore::alloc`] / [`GraphStore::free`]), matching the paper's
//! finite vertex universe `V` in which `R` and `T` grow only by acquiring
//! vertices from `F`.
//!
//! The crate also provides:
//!
//! * per-vertex **marking slots** ([`MarkSlot`]) holding the tri-state color,
//!   `mt-cnt` and `mt-par` fields used by the decentralized marking processes
//!   `M_R` and `M_T` (implemented in `dgr-core`),
//! * subgraph [`Template`]s instantiated by the `expand-node` mutator
//!   primitive, and
//! * a sequential [`oracle`] that computes the paper's reachability sets
//!   (`R`, `R_v`, `R_e`, `R_r`, `T`, `GAR`, `DL_v`) by straightforward
//!   traversal — the ground truth against which the concurrent marking
//!   algorithms are tested.
//!
//! # Example
//!
//! ```
//! use dgr_graph::{GraphStore, NodeLabel, PrimOp};
//!
//! # fn main() -> Result<(), dgr_graph::GraphError> {
//! let mut g = GraphStore::with_capacity(8);
//! let one = g.alloc(NodeLabel::lit_int(1))?;
//! let two = g.alloc(NodeLabel::lit_int(2))?;
//! let add = g.alloc(NodeLabel::Prim(PrimOp::Add))?;
//! g.connect(add, one);
//! g.connect(add, two);
//! g.set_root(add);
//!
//! let r = dgr_graph::oracle::reachable_r(&g);
//! assert!(r.contains(add) && r.contains(one) && r.contains(two));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arcs;
pub mod dot;
mod error;
mod ids;
mod label;
pub mod markword;
pub mod oracle;
mod requesters;
mod store;
mod template;
mod value;
mod vertex;

pub use error::GraphError;
pub use ids::{PeId, VertexId};
pub use label::{NodeLabel, PrimOp};
pub use markword::MarkWords;
pub use oracle::{Oracle, TaskClass, TaskEndpoints, VertexSet};
pub use requesters::Requesters;
pub use store::{
    default_cost_model, Epochs, GraphStore, HeapDelta, PartitionMap, PartitionStrategy,
};
pub use template::{Template, TemplateNode, TemplateRef};
pub use value::Value;
pub use vertex::{Color, MarkParent, MarkSlot, Priority, RequestKind, Requester, Slot, Vertex};
