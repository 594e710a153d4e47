//! Bounded model checking of the decentralized marking protocol.
//!
//! The drivers in `dgr-core` test the handful of delivery orders that
//! `SchedPolicy::{Fifo,Lifo,RoundRobin,Random,PriorityFirst,Rounds}`
//! happen to produce. This
//! crate instead enumerates **every** delivery interleaving (up to state
//! equivalence) of a marking pass on a corpus of small adversarial graphs —
//! cycles, shared subgraphs, and runs with the cooperating mutator
//! primitives of Figure 4-2 injected mid-marking — and checks, after every
//! single event:
//!
//! * the three marking invariants of Sections 4.2/5.4
//!   ([`dgr_core::invariants::check_invariants`]), and
//! * at quiescence, end-state safety and liveness against the sequential
//!   oracle (`GAR ∩ R = ∅`, all pre-cycle garbage found, exact priorities
//!   and [`dgr_core::invariants::check_priority_closure`] where the
//!   scenario permits), plus the protocol's own termination signal.
//!
//! Exploration is breadth-first with full-state deduplication, so any
//! counterexample found is an *event-minimal* trace; [`trace`] renders it
//! as an event-by-event replay script and can re-execute it.
//!
//! The [`faults`] module is the oracle's oracle: it injects known protocol
//! faults (drop a `Return`, skip the `add-reference` splice, double-count
//! `mt-cnt`, mark a vertex early, skip a priority upgrade, misroute a
//! return, run `M_R` before `M_T`) and demands that the same checkers
//! catch every one — proving the green corpus runs are not vacuous.
//!
//! [`lint`] is a small repo-specific source lint (mark-word memory
//! orderings, mark-state mutation confinement, atomics-facade bypasses)
//! run in CI alongside the model checker.
//!
//! [`atomics`] is the second model-checking layer: where [`explore`]
//! enumerates *message delivery* interleavings over the protocol state
//! machine, `atomics` enumerates *instruction-level* interleavings and
//! C11 weak-memory behaviors of the lock-free work-stealing substrate
//! itself (`StealDeque`, mailbox rings, mark words, quiescence), by
//! monomorphizing the production code over a shim `Atomics` facade. It
//! has its own seeded-mutation table proving those checks non-vacuous.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod explore;
pub mod faults;
pub mod lint;
pub mod scenario;
pub mod trace;
pub mod world;
