//! Demand-driven and speculative graph reduction over the distributed
//! computation graph.
//!
//! This crate implements the *reduction process* of the paper's Section 2:
//! tasks propagate between adjacent vertices, carrying requests for values
//! downward and returning computed values upward. A strict vertex `v`
//! demanded by `s` adds `s` to `requested(v)`, spawns request tasks on its
//! arguments (recording them in `req-args_v(v)` or `req-args_e(v)`), and —
//! when all requested values have returned — computes its result and spawns
//! return tasks toward every requester.
//!
//! The engine supports:
//!
//! * **strict primitives** (arithmetic, comparison, list operations),
//! * **conditionals** with optional **speculative (eager) evaluation** of
//!   both branches — the source of the eager / irrelevant / reserve task
//!   taxonomy of Section 3.2,
//! * **lazy constructors** (`cons` in weak head normal form),
//! * **function application** by supercombinator template expansion, using
//!   the cooperating `expand-node` mutator primitive, including partial and
//!   over-saturated applications, and
//! * **indirections** and grandchild access via cooperating
//!   `add-reference` (how `head`/`tail` reach into a received cons cell).
//!
//! All graph mutations go through the cooperating primitives of
//! `dgr-core`, so reduction can run concurrently with the marking
//! processes.
//!
//! # Example
//!
//! ```
//! use dgr_reduction::{Builder, RunOutcome, System, SystemConfig, TemplateStore};
//! use dgr_graph::{GraphStore, PrimOp, Value};
//!
//! // (1 + 2) * 4, reduced on 4 simulated PEs.
//! let mut g = GraphStore::with_capacity(16);
//! let mut b = Builder::new(&mut g);
//! let one = b.int(1);
//! let two = b.int(2);
//! let sum = b.prim2(PrimOp::Add, one, two);
//! let four = b.int(4);
//! let root = b.prim2(PrimOp::Mul, sum, four);
//! g.set_root(root);
//!
//! let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
//! match sys.run() {
//!     RunOutcome::Value(v) => assert_eq!(v, Value::Int(12)),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod engine;
mod msg;
mod stats;
mod system;
mod templates;

pub use builder::Builder;
pub use engine::{handle_red, EngineCtx};
pub use msg::RedMsg;
pub use stats::RedStats;
pub use system::{RunOutcome, System, SystemConfig};
pub use templates::{TemplateId, TemplateStore};
