//! Delivery statistics for the simulator.

use crate::msg::{Lane, PerLane};

/// Counters kept by [`DetSim`](crate::DetSim), each with a reader:
/// messages delivered per lane (the GC driver's per-phase event counts and
/// the benchmark's task count), the current per-lane backlog (the bound
/// the simulator sweeps its lane mirrors against), its high water since
/// the last reset (the marking backlog peak a cycle reports) and rounds.
///
/// These are plain fields updated inline by the simulator — they are
/// always on (the `telemetry` feature only affects the shared registry
/// layer, not the simulator's own accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    delivered: PerLane<u64>,
    /// Messages currently pending per lane.
    lane_depth: PerLane<usize>,
    /// Largest per-lane backlog since the last
    /// [`reset_lane_high_water`](SimStats::reset_lane_high_water).
    lane_high_water: PerLane<usize>,
    pub(crate) rounds: u64,
}

impl SimStats {
    #[inline]
    pub(crate) fn record_send(&mut self, lane: Lane) {
        let l = lane.index();
        self.lane_depth[l] += 1;
        self.lane_high_water[l] = self.lane_high_water[l].max(self.lane_depth[l]);
    }

    #[inline]
    pub(crate) fn record_deliver(&mut self, lane: Lane) {
        let l = lane.index();
        self.delivered[l] += 1;
        self.lane_depth[l] -= 1;
    }

    /// A pending message left its lane without a delivery.
    #[inline]
    pub(crate) fn record_drop(&mut self, lane: Lane) {
        self.lane_depth[lane.index()] -= 1;
    }

    /// Re-derives per-lane depths after bulk mailbox surgery
    /// (expunge/relane); high-water marks are raised, never lowered.
    pub(crate) fn set_lane_depths(&mut self, depths: PerLane<usize>) {
        self.lane_depth = depths;
        for (hw, d) in self.lane_high_water.iter_mut().zip(depths.iter()) {
            *hw = (*hw).max(*d);
        }
    }

    /// Messages delivered in the given lane.
    pub fn delivered(&self, lane: Lane) -> u64 {
        self.delivered[lane.index()]
    }

    /// Total messages delivered (executed events).
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Rounds begun under [`SchedPolicy::Rounds`](crate::SchedPolicy::Rounds),
    /// each delivering at least one message; 0 under the other policies.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Messages currently pending in the given lane.
    pub fn lane_depth(&self, lane: Lane) -> usize {
        self.lane_depth[lane.index()]
    }

    /// Largest backlog the given lane has reached since the last
    /// [`reset_lane_high_water`](SimStats::reset_lane_high_water) (or ever).
    pub fn lane_high_water(&self, lane: Lane) -> usize {
        self.lane_high_water[lane.index()]
    }

    /// Restarts per-lane high-water tracking from the current depths —
    /// called at marking-cycle boundaries so each cycle reports its own
    /// backlog peak.
    pub fn reset_lane_high_water(&mut self) {
        self.lane_high_water = self.lane_depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::Priority;

    const VITAL: Lane = Lane::Reduction(Priority::Vital);

    #[test]
    fn counters_accumulate() {
        let mut s = SimStats::default();
        s.record_send(Lane::Marking);
        s.record_send(Lane::Marking);
        s.record_deliver(Lane::Marking);
        assert_eq!(s.delivered(Lane::Marking), 1);
        assert_eq!(s.delivered_total(), 1);
        assert_eq!(s.delivered(VITAL), 0);
    }

    #[test]
    fn lane_depth_tracks_and_high_water_resets() {
        let mut s = SimStats::default();
        s.record_send(Lane::Marking);
        s.record_send(Lane::Marking);
        s.record_send(VITAL);
        assert_eq!(s.lane_depth(Lane::Marking), 2);
        assert_eq!(s.lane_high_water(Lane::Marking), 2);
        s.record_deliver(Lane::Marking);
        s.record_deliver(Lane::Marking);
        assert_eq!(s.lane_depth(Lane::Marking), 0);
        assert_eq!(s.lane_high_water(Lane::Marking), 2, "high water sticks");
        s.reset_lane_high_water();
        assert_eq!(s.lane_high_water(Lane::Marking), 0);
        assert_eq!(
            s.lane_high_water(VITAL),
            1,
            "reset restarts from the current depth"
        );
    }

    #[test]
    fn a_drop_leaves_the_backlog_as_surgery_would() {
        // Three pending marking tasks, one delivered and one dropped: the
        // same stats as surgery that finds one left.
        let mut dropped = SimStats::default();
        (0..3).for_each(|_| dropped.record_send(Lane::Marking));
        let mut surgery = dropped.clone();
        dropped.record_deliver(Lane::Marking);
        dropped.record_drop(Lane::Marking);
        surgery.record_deliver(Lane::Marking);
        surgery.set_lane_depths([1, 0, 0, 0]);
        assert_eq!(dropped, surgery);
        assert_eq!(dropped.delivered(Lane::Marking), 1);
        assert_eq!(dropped.lane_high_water(Lane::Marking), 3);
    }

    #[test]
    fn set_lane_depths_never_lowers_high_water() {
        let mut s = SimStats::default();
        for _ in 0..5 {
            s.record_send(Lane::Marking);
        }
        s.set_lane_depths([2, 0, 0, 0]);
        assert_eq!(s.lane_depth(Lane::Marking), 2);
        assert_eq!(s.lane_high_water(Lane::Marking), 5);
    }
}
