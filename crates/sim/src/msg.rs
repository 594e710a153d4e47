//! Message envelopes and scheduling lanes.

use dgr_graph::{PeId, Priority};

/// The scheduling lane a message travels in.
///
/// The paper distinguishes tasks of the reduction process (prioritized 3/2/1
/// by `M_R`'s classification) from tasks of the marking process; those are
/// the four kinds of task the system sends, so those are the lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Mark and return tasks of `M_R` / `M_T`.
    Marking,
    /// Reduction tasks, prioritized by the destination vertex's class.
    Reduction(Priority),
}

impl Lane {
    /// Dense index used by mailbox arrays: marking 0, reduction
    /// vital/eager/reserve 1/2/3.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Lane::Marking => 0,
            Lane::Reduction(Priority::Vital) => 1,
            Lane::Reduction(Priority::Eager) => 2,
            Lane::Reduction(Priority::Reserve) => 3,
        }
    }

    /// All lanes in scheduling-preference order.
    pub const ALL: [Lane; 4] = [
        Lane::Marking,
        Lane::Reduction(Priority::Vital),
        Lane::Reduction(Priority::Eager),
        Lane::Reduction(Priority::Reserve),
    ];
}

/// One slot per lane, indexed by [`Lane::index`].
pub(crate) type PerLane<T> = [T; Lane::ALL.len()];

/// A message addressed to a processing element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The PE whose mailbox receives the message.
    pub dst: PeId,
    /// The scheduling lane.
    pub lane: Lane,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(dst: PeId, lane: Lane, msg: M) -> Self {
        Envelope { dst, lane, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_indices_are_dense_and_ordered() {
        for (i, lane) in Lane::ALL.iter().enumerate() {
            assert_eq!(lane.index(), i);
        }
    }

    #[test]
    fn reduction_lanes() {
        let want = [Priority::Vital, Priority::Eager, Priority::Reserve];
        assert_eq!(Lane::ALL[0], Lane::Marking);
        assert_eq!(Lane::ALL[1..], want.map(Lane::Reduction));
    }

    #[test]
    fn envelope_construction() {
        let e = Envelope::new(PeId::new(1), Lane::Marking, 42u32);
        assert_eq!(e.dst, PeId::new(1));
        assert_eq!(e.lane, Lane::Marking);
        assert_eq!(e.msg, 42);
    }
}
