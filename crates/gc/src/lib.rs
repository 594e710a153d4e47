//! Garbage collection, deadlock detection and task management built on
//! decentralized concurrent marking — Section 5 of the paper put to work.
//!
//! The [`GcDriver`] wraps a reduction [`System`](dgr_reduction::System) and
//! repeats the paper's endless cycle:
//!
//! 1. **`M_T`** (Figure 5-3, run first per Theorem 2): marks every vertex
//!    task activity can reach, seeding one `mark3` per pending-task
//!    endpoint (in-transit tasks included — the simulator mailboxes are the
//!    task pools plus the network). Per the Section 6 remark it runs only
//!    occasionally: at most every [`GcConfig::mt_every`] cycles, and after
//!    the first cycle only while a request the reduction engine saw may
//!    have closed a cycle of waits that is still live, without which
//!    nothing can be deadlocked.
//! 2. **`M_R`** (Figures 5-1/5-2): marks everything reachable from the
//!    root through `args`, tagging each vertex with its priority
//!    (vital / eager / reserve).
//! 3. **Restructuring**: vertices unmarked by `M_R` are garbage
//!    (Property 1) and go back to the free list; pending tasks whose
//!    destination was reclaimed are irrelevant (Property 6) and are
//!    expunged; pending requests are re-laned to their destination's
//!    priority (the dynamic re-prioritization of Section 3.2); vertices in
//!    `R_v − T` that still have no value are reported deadlocked
//!    (Property 2'), and optionally *recovered* by returning `⊥` to their
//!    requesters (the `is-bottom` pseudo-function of footnote 5).
//!
//! Crucially, `M_R` runs **concurrently with reduction**: the driver
//! delivers one reduction task of the scheduling policy's choosing after
//! every four deliveries' worth of marking work (a mark settled in place
//! counts as the two it saved), and the cooperating mutator primitives keep
//! the marking invariants intact. (`M_T` is the one synchronous pass, as
//! Section 6 allows for a pass run only occasionally.)
//!
//! # Example
//!
//! ```
//! use dgr_gc::{GcConfig, GcDriver};
//! use dgr_reduction::{Builder, RunOutcome, System, SystemConfig, TemplateStore};
//! use dgr_graph::{GraphStore, PrimOp, Value};
//!
//! let mut g = GraphStore::new();
//! let mut b = Builder::new(&mut g);
//! let one = b.int(1);
//! let two = b.int(2);
//! let root = b.prim2(PrimOp::Add, one, two);
//! g.set_root(root);
//!
//! let sys = System::new(g, TemplateStore::new(), SystemConfig::default());
//! let mut gc = GcDriver::new(sys, GcConfig::default());
//! assert_eq!(gc.run(), RunOutcome::Value(Value::Int(3)));
//! // One more cycle collects the exhausted subcomputation.
//! let report = gc.run_cycle();
//! assert!(report.reclaimed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod driver;
mod report;

pub use classify::{
    classify_pending_tasks, classify_task_by_marks, deadlocked_vertices, garbage_vertices,
    TaskCensus,
};
pub use driver::{GcConfig, GcDriver, GcTrigger};
pub use report::{CycleReport, GcStats};
