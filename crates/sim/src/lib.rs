//! Multi-PE runtime substrate for distributed graph reduction.
//!
//! The paper assumes "an arbitrary number of autonomous processing elements
//! having only local store and communicating via messages", with task
//! execution atomic with respect to the vertices it manipulates. This crate
//! supplies two interchangeable realizations of that machine:
//!
//! * [`DetSim`] — a **deterministic event simulator**. Every pending task is
//!   a message in a per-PE, per-[`Lane`] mailbox; a seeded
//!   [`SchedPolicy`] picks the next task to execute. Task execution is
//!   globally atomic (one event at a time), which is strictly stronger than
//!   the paper's per-vertex atomicity, and the seeded random policy lets
//!   property tests quantify over adversarial interleavings.
//! * [`StealRuntime`] — a **real parallel runtime**: one OS thread per PE
//!   with a Chase–Lev deque ([`StealDeque`]) each, a sharded lock-free
//!   mailbox mesh ([`MailboxGrid`]) for cross-PE envelopes, adaptive
//!   parking, and critical-path depth hints on its `u64` tasks.
//!   Termination is detected with a global in-flight task counter
//!   ([`QuiesceState`]). The graph its tasks share is a [`SharedGraph`]:
//!   a dense array of atomic mark words carries the marking state — one
//!   CAS or decrement per task is the paper's per-vertex atomicity — over
//!   an immutable snapshot of every vertex's children.
//!
//! # Example
//!
//! ```
//! use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
//! use dgr_graph::PeId;
//!
//! let mut sim: DetSim<&'static str> = DetSim::new(2, SchedPolicy::Fifo, 0);
//! sim.send(Envelope::new(PeId::new(0), Lane::Marking, "mark"));
//! sim.send(Envelope::new(PeId::new(1), Lane::Marking, "mark"));
//! let mut seen = 0;
//! while let Some((_pe, _lane, _msg)) = sim.next_event() {
//!     seen += 1;
//! }
//! assert_eq!(seen, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deque;
mod det;
pub mod mailbox;
mod msg;
pub mod quiesce;
mod shared;
mod stats;
pub mod steal;

pub use deque::{Steal, StealDeque};
pub use det::{DetSim, SchedPolicy};
pub use mailbox::{MailboxGrid, SpscRing};
pub use msg::{Envelope, Lane};
pub use quiesce::QuiesceState;
pub use shared::SharedGraph;
pub use stats::SimStats;
pub use steal::{SpawnScope, StealRuntime, StealStats};
