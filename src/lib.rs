//! **dgr** — distributed task and memory management via decentralized
//! concurrent graph marking.
//!
//! A full reproduction of Paul Hudak's *Distributed Task and Memory
//! Management* (PODC 1983): a distributed graph-reduction machine whose
//! garbage collection, deadlock detection, irrelevant-task deletion and
//! dynamic task prioritization are all driven by one decentralized
//! graph-marking algorithm that runs concurrently with mutation.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `dgr-graph` | computation graph, edge sets, free list, reachability oracle |
//! | [`sim`] | `dgr-sim` | deterministic multi-PE simulator and threaded runtime |
//! | [`marking`] | `dgr-core` | `mark1`/`mark2`/`mark3`, cooperating mutators, invariants |
//! | [`reduction`] | `dgr-reduction` | demand-driven + speculative reduction engine |
//! | [`gc`] | `dgr-gc` | the mark-and-restructure cycle (GC, deadlock, task management) and its per-cycle timeline |
//! | [`lang`] | `dgr-lang` | mini functional language → supercombinator templates |
//! | [`workloads`] | `dgr-workloads` | graph/program/churn/mutation generators |
//! | [`baseline`] | `dgr-baseline` | reference counting, stop-the-world, non-cooperating marking |
//! | [`telemetry`] | `dgr-telemetry` | zero-dependency metrics, traces, per-cycle ledgers (feature `telemetry`) |
//! | [`observe`] | `dgr-observe` | live plane: `/metrics` exporter, status endpoint, progress watchdog |
//!
//! # Quickstart
//!
//! ```
//! use dgr::prelude::*;
//!
//! // Compile a program, run it with concurrent GC on 4 simulated PEs.
//! let sys = dgr::lang::build_with_prelude(
//!     "sum (map fib (range 1 10))",
//!     SystemConfig::default(),
//! ).unwrap();
//! let mut gc = GcDriver::new(sys, GcConfig::default());
//! assert_eq!(gc.run(), RunOutcome::Value(Value::Int(143)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dgr_baseline as baseline;
pub use dgr_core as marking;
pub use dgr_gc as gc;
pub use dgr_graph as graph;
pub use dgr_lang as lang;
pub use dgr_observe as observe;
pub use dgr_reduction as reduction;
pub use dgr_sim as sim;
pub use dgr_telemetry as telemetry;
pub use dgr_workloads as workloads;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use dgr_gc::{GcConfig, GcDriver};
    pub use dgr_graph::{
        GraphStore, NodeLabel, PartitionStrategy, PrimOp, Priority, RequestKind, Value, VertexId,
    };
    pub use dgr_lang::{build_system, build_with_prelude, eval_source, eval_with_prelude};
    pub use dgr_reduction::{Builder, RunOutcome, System, SystemConfig, TemplateStore};
    pub use dgr_sim::SchedPolicy;
}
