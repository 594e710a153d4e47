//! Decentralized concurrent graph marking — the contribution of Hudak's
//! *Distributed Task and Memory Management* (PODC 1983).
//!
//! The algorithm marks a distributed graph **while the graph is being
//! mutated**, using no centralized data or control. It works by dynamically
//! building a spanning *marking tree* over the computation graph:
//!
//! * a **mark task** propagates forward from vertex to vertex, turning
//!   unmarked vertices *transient*, recording the marking-tree parent
//!   (`mt-par`) and counting outstanding child marks (`mt-cnt`);
//! * a **return task** propagates backward: when all marks spawned from a
//!   vertex have returned, the vertex becomes *marked* and a return is sent
//!   to its marking-tree parent;
//! * the **mutator cooperates**: the primitives `delete-reference`,
//!   `add-reference` and `expand-node` ([`coop`]) splice extra marking
//!   activity into the tree so that the two marking invariants hold
//!   (checked by [`invariants`]):
//!   1. every transient vertex has an outstanding mark task on each child,
//!      reflected in `mt-cnt`;
//!   2. a marked vertex never points to an unmarked vertex.
//!
//! Three mark-task flavors are implemented, exactly as in the paper:
//!
//! | Task | Figure | Traces | Slot | Purpose |
//! |---|---|---|---|---|
//! | `mark1` | 4-1 | `args(v)` | R | the simplified algorithm |
//! | `mark2` | 5-1 | `args(v)` with priorities 3/2/1 | R | `M_R`: classify `R_v`/`R_e`/`R_r` |
//! | `mark3` | 5-3 | `requested(v) ∪ (args(v) − req-args(v))` | T | `M_T`: the task-reachable set |
//!
//! Marking tasks are ordinary messages; [`handle_mark`] executes one
//! atomically. The [`driver`] module runs complete marking passes on the
//! deterministic simulator — all through one loop,
//! [`driver::run_pass`], whose per-event hook is where a caller mutates
//! the graph between two events — and [`threaded`] runs `mark1` on the
//! real parallel runtime.
//!
//! # Example: a complete `mark1` pass
//!
//! ```
//! use dgr_core::driver::{run_mark1, MarkRunConfig};
//! use dgr_graph::{GraphStore, NodeLabel, Slot};
//!
//! # fn main() -> Result<(), dgr_graph::GraphError> {
//! let mut g = GraphStore::with_capacity(4);
//! let a = g.alloc(NodeLabel::lit_int(1))?;
//! let b = g.alloc(NodeLabel::lit_int(2))?;
//! let root = g.alloc(NodeLabel::If)?;
//! g.connect(root, a);
//! g.connect(root, b);
//! g.set_root(root);
//!
//! let stats = run_mark1(&mut g, &MarkRunConfig::default());
//! assert!(g.mark(a, Slot::R).is_marked());
//! assert!(g.mark(root, Slot::R).is_marked());
//! assert_eq!(stats.marked, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coop;
pub mod driver;
pub mod footprint;
mod handler;
pub mod invariants;
mod msg;
mod state;
pub mod threaded;

pub use handler::handle_mark;
pub use msg::MarkMsg;
pub use state::{MarkState, RMode};
