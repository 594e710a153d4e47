//! Delivery statistics for the simulator.

use crate::msg::Lane;

/// Counters kept by [`DetSim`](crate::DetSim): messages sent and delivered
/// per lane and per PE, current and high-water per-lane backlogs, and the
/// maximum total mailbox backlog observed.
///
/// These are plain fields updated inline by the simulator — they are
/// always on (the `telemetry` feature only affects the shared registry
/// layer, not the simulator's own accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    sent: [u64; 5],
    delivered: [u64; 5],
    max_depth: usize,
    /// Deliveries per PE, one slot per PE of the simulator that owns the
    /// counters (none under `Default`, which therefore cannot deliver).
    per_pe_delivered: Vec<u64>,
    /// Messages currently pending per lane.
    lane_depth: [usize; 5],
    /// Largest per-lane backlog since the last
    /// [`reset_lane_high_water`](SimStats::reset_lane_high_water).
    lane_high_water: [usize; 5],
}

impl SimStats {
    /// Counters for a simulator of `num_pes` PEs: sized here, so that a
    /// delivery indexes its PE's slot and never grows anything.
    pub(crate) fn with_pes(num_pes: usize) -> Self {
        SimStats {
            per_pe_delivered: vec![0; num_pes],
            ..Default::default()
        }
    }

    #[inline]
    pub(crate) fn record_send(&mut self, lane: Lane) {
        let l = lane.index();
        self.sent[l] += 1;
        self.lane_depth[l] += 1;
        self.lane_high_water[l] = self.lane_high_water[l].max(self.lane_depth[l]);
    }

    #[inline]
    pub(crate) fn record_deliver(&mut self, pe: usize, lane: Lane) {
        let l = lane.index();
        self.delivered[l] += 1;
        self.lane_depth[l] -= 1;
        self.per_pe_delivered[pe] += 1;
    }

    #[inline]
    pub(crate) fn observe_depth(&mut self, depth: usize) {
        self.max_depth = self.max_depth.max(depth);
    }

    /// Re-derives per-lane depths after bulk mailbox surgery
    /// (expunge/relane); high-water marks are raised, never lowered.
    pub(crate) fn set_lane_depths(&mut self, depths: [usize; 5]) {
        self.lane_depth = depths;
        for (hw, d) in self.lane_high_water.iter_mut().zip(depths.iter()) {
            *hw = (*hw).max(*d);
        }
    }

    /// Messages sent in the given lane.
    pub fn sent(&self, lane: Lane) -> u64 {
        self.sent[lane.index()]
    }

    /// Messages delivered in the given lane.
    pub fn delivered(&self, lane: Lane) -> u64 {
        self.delivered[lane.index()]
    }

    /// Total messages sent.
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages delivered (executed events).
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Largest number of simultaneously pending messages observed.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Messages delivered on the given PE (0 for PEs never delivered to,
    /// and for PEs the simulator does not have).
    pub fn delivered_on(&self, pe: u16) -> u64 {
        self.per_pe_delivered.get(pe as usize).copied().unwrap_or(0)
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

    #[test]
    fn counters_accumulate() {
        let mut s = SimStats::with_pes(2);
        s.record_send(Lane::Marking);
        s.record_send(Lane::Marking);
        s.record_deliver(1, Lane::Marking);
        s.observe_depth(2);
        s.observe_depth(1);
        assert_eq!(s.sent(Lane::Marking), 2);
        assert_eq!(s.delivered(Lane::Marking), 1);
        assert_eq!(s.sent_total(), 2);
        assert_eq!(s.delivered_total(), 1);
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.sent(Lane::Mutator), 0);
        assert_eq!(s.delivered_on(1), 1);
        assert_eq!(s.delivered_on(0), 0);
        assert_eq!(s.delivered_on(9), 0, "unknown PEs read as zero");
    }

    #[test]
    fn per_pe_slots_are_sized_at_construction() {
        let mut s = SimStats::with_pes(3);
        assert_eq!(s.per_pe_delivered, vec![0, 0, 0]);
        s.record_send(Lane::Mutator);
        s.record_deliver(2, Lane::Mutator);
        assert_eq!(s.per_pe_delivered.len(), 3, "a delivery grows nothing");
        assert_eq!((s.delivered_on(1), s.delivered_on(2)), (0, 1));
        assert_eq!(s.delivered_on(3), 0, "past the last PE reads zero");
        assert_eq!(SimStats::default().delivered_on(0), 0);
    }

    #[test]
    fn lane_depth_tracks_and_high_water_resets() {
        let mut s = SimStats::with_pes(1);
        s.record_send(Lane::Marking);
        s.record_send(Lane::Marking);
        s.record_send(Lane::Mutator);
        assert_eq!(s.lane_depth(Lane::Marking), 2);
        assert_eq!(s.lane_high_water(Lane::Marking), 2);
        s.record_deliver(0, Lane::Marking);
        s.record_deliver(0, Lane::Marking);
        assert_eq!(s.lane_depth(Lane::Marking), 0);
        assert_eq!(s.lane_high_water(Lane::Marking), 2, "high water sticks");
        s.reset_lane_high_water();
        assert_eq!(s.lane_high_water(Lane::Marking), 0);
        assert_eq!(
            s.lane_high_water(Lane::Mutator),
            1,
            "reset restarts from the current depth"
        );
    }

    #[test]
    fn set_lane_depths_never_lowers_high_water() {
        let mut s = SimStats::default();
        for _ in 0..5 {
            s.record_send(Lane::Marking);
        }
        s.set_lane_depths([0, 2, 0, 0, 0]);
        assert_eq!(s.lane_depth(Lane::Marking), 2);
        assert_eq!(s.lane_high_water(Lane::Marking), 5);
    }
}
