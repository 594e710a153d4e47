//! Marking task messages, and what a simulator marking loop records of
//! each one's send and delivery.

use dgr_graph::{MarkParent, PeId, Priority, Slot, VertexId};
use dgr_telemetry::{CounterId, Phase, Registry};

/// A marking task, represented (like every task) as a message `<s, d>`:
/// the destination vertex is where the task executes, the parent is the
/// source in the marking tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkMsg {
    /// `mark1(v, par)` — Figure 4-1: the simplified algorithm, tracing
    /// `args(v)` in the R slot.
    Mark1 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex (parent in the marking tree).
        par: MarkParent,
    },
    /// `mark2(v, par, prior)` — Figure 5-1: priority marking for `M_R`.
    Mark2 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex.
        par: MarkParent,
        /// The priority carried by this mark task.
        prior: Priority,
    },
    /// `mark3(v, par)` — Figure 5-3: task marking for `M_T`, tracing
    /// `requested(v) ∪ (args(v) − req-args(v))` in the T slot.
    Mark3 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex.
        par: MarkParent,
    },
    /// `return1(to)` — the backward task. `slot` selects whose marking
    /// tree (and whose `done` flag) the return belongs to.
    Return {
        /// Which marking process's tree is being returned through.
        slot: Slot,
        /// The marking-tree parent receiving the return.
        to: MarkParent,
    },
}

impl MarkMsg {
    /// The vertex at which this task executes, used to route the message
    /// to the owning PE. Returns `None` for returns addressed to the dummy
    /// roots (`rootpar` / the virtual `troot`), which execute wherever the
    /// marking process was initiated.
    #[inline]
    pub fn dest_vertex(&self) -> Option<VertexId> {
        match *self {
            MarkMsg::Mark1 { v, .. } | MarkMsg::Mark2 { v, .. } | MarkMsg::Mark3 { v, .. } => {
                Some(v)
            }
            MarkMsg::Return { to, .. } => to.as_vertex(),
        }
    }

    /// The slot this message operates on.
    pub fn slot(&self) -> Slot {
        match *self {
            MarkMsg::Mark1 { .. } | MarkMsg::Mark2 { .. } => Slot::R,
            MarkMsg::Mark3 { .. } => Slot::T,
            MarkMsg::Return { slot, .. } => slot,
        }
    }

    /// Phase tag, flow-event name and flow id of this message under
    /// simulator sequence number `seq`. The task-marking wave (`M_T`) and
    /// the priority-marking wave (`M_R`) are traced under distinct names so
    /// a cycle analyzer can keep their fan-outs apart (Theorem 2 orders
    /// them). The id is `seq + 1`: sequence numbers are unique across a
    /// simulator's lifetime, and 0 stays the "no flow" value.
    #[inline]
    fn flow(&self, seq: u64) -> (Phase, &'static str, u64) {
        let (phase, name) = match self.slot() {
            Slot::T => (Phase::Mt, "M_T"),
            Slot::R => (Phase::Mr, "M_R"),
        };
        (phase, name, seq + 1)
    }
}

/// Who sent a marking message, as [`MarkRecord::sent`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// A task running on this PE: the send counts there as local or
    /// remote, and is stamped there.
    Task(PeId),
    /// A seed of the pass: stamped at this PE, counted on none.
    Seed(PeId),
}

/// The one record of a marking message's send and of its delivery, for
/// every simulator marking loop (`driver::run_pass`, `reduction::System`'s
/// mailbox path and its `M_T` pass): the local/remote send split, the
/// `MarkEvents` count and the flow stamps (DESIGN §6.4).
#[derive(Debug, Clone, Copy)]
pub struct MarkRecord<'a> {
    /// Where the counts and stamps go.
    pub telem: &'a Registry,
    /// The marking cycle the stamps carry.
    pub cycle: u32,
}

impl MarkRecord<'_> {
    /// Records `msg`'s send to PE `dst` under simulator sequence number
    /// `seq`. Returns whether it crossed PEs; a seed never does.
    #[inline]
    pub fn sent(self, msg: &MarkMsg, from: Sender, dst: PeId, seq: u64) -> bool {
        let (at, remote) = match from {
            Sender::Task(src) => (src, count_send(self.telem, src, dst)),
            Sender::Seed(at) => (at, false),
        };
        let (phase, name, id) = msg.flow(seq);
        self.telem.flow_send(at.raw(), self.cycle, phase, name, id);
        remote
    }

    /// Records `msg`'s delivery on PE `pe`; `seq` is the number its send
    /// took.
    #[inline]
    pub fn delivered(self, msg: &MarkMsg, pe: PeId, seq: u64) {
        self.telem.pe(pe.raw()).inc(CounterId::MarkEvents);
        let (phase, name, id) = msg.flow(seq);
        self.telem.flow_recv(pe.raw(), self.cycle, phase, name, id);
    }
}

/// Counts a task's send from PE `src` to PE `dst` on `src`, as local or
/// remote, and returns whether it is remote. Marking and reduction sends
/// split the same way.
#[inline]
pub fn count_send(telem: &Registry, src: PeId, dst: PeId) -> bool {
    let remote = src != dst;
    let id = if remote {
        CounterId::SendsRemote
    } else {
        CounterId::SendsLocal
    };
    telem.pe(src.raw()).inc(id);
    remote
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_vertex_routes_marks_to_target() {
        let v = VertexId::new(3);
        let m = MarkMsg::Mark1 {
            v,
            par: MarkParent::RootPar,
        };
        assert_eq!(m.dest_vertex(), Some(v));
        assert_eq!(m.slot(), Slot::R);
    }

    #[test]
    fn dest_vertex_of_dummy_returns_is_none() {
        let r = MarkMsg::Return {
            slot: Slot::T,
            to: MarkParent::TaskRootPar,
        };
        assert_eq!(r.dest_vertex(), None);
        assert_eq!(r.slot(), Slot::T);
        let r2 = MarkMsg::Return {
            slot: Slot::R,
            to: MarkParent::Vertex(VertexId::new(1)),
        };
        assert_eq!(r2.dest_vertex(), Some(VertexId::new(1)));
    }

    #[test]
    fn slots_match_figures() {
        let v = VertexId::new(0);
        assert_eq!(
            MarkMsg::Mark2 {
                v,
                par: MarkParent::RootPar,
                prior: Priority::Vital
            }
            .slot(),
            Slot::R
        );
        assert_eq!(
            MarkMsg::Mark3 {
                v,
                par: MarkParent::TaskRootPar
            }
            .slot(),
            Slot::T
        );
    }
}
