//! Per-cycle reports and aggregate GC statistics.

use dgr_graph::VertexId;

use crate::classify::TaskCensus;

/// What one mark-and-restructure cycle did, and how long each phase took:
/// the one per-cycle record, returned by the cycle and kept in
/// [`GcDriver::timeline`](crate::GcDriver::timeline).
///
/// The phase durations, marking counts and tallies are always populated;
/// `sends_local` / `sends_remote` are zero unless the `telemetry`
/// feature is on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleReport {
    /// Cycle number (1-based).
    pub cycle: u32,
    /// Whether `M_T` ran this cycle.
    pub ran_mt: bool,
    /// Vertices carrying an `M_T` mark when restructuring read the marks
    /// (zero for an aborted cycle, which never restructures).
    pub marked_t: usize,
    /// Vertices carrying an `M_R` mark when restructuring read the marks,
    /// by priority (index 0 = priority 3 / vital, 1 = priority 2 / eager,
    /// 2 = priority 1 / reserve).
    pub marked_by_priority: [usize; 3],
    /// Marking-task events executed (both processes).
    pub mark_events: u64,
    /// Marks `M_R` settled in place: each a mark and its return to a
    /// child on its parent's own PE that were never sent (DESIGN note
    /// 14), and not counted in `mark_events`.
    pub marks_in_place: u64,
    /// Reduction-task events that executed *during* the marking phases
    /// (the measure of concurrency — a stop-the-world collector would have
    /// zero).
    pub reduction_events_during_marking: u64,
    /// Census of pending tasks at restructuring time.
    pub census: TaskCensus,
    /// Garbage vertices identified by the marks (counted whether or not
    /// `reclaim` is enabled).
    pub garbage: usize,
    /// Garbage vertices returned to the free list.
    pub reclaimed: usize,
    /// Irrelevant tasks expunged from the pools.
    pub expunged: usize,
    /// Pending tasks moved to a different priority lane.
    pub relaned: usize,
    /// Deadlocked vertices found (empty when `M_T` did not run).
    pub deadlocked: Vec<VertexId>,
    /// A marking phase exceeded its event budget and the cycle was
    /// abandoned without restructuring (the graph stays safe; the next
    /// cycle retries).
    pub aborted: bool,
    /// Wall-clock duration of the synchronous `M_T` phase, microseconds.
    pub mt_us: u64,
    /// Wall-clock duration of the concurrent `M_R` phase, microseconds.
    pub mr_us: u64,
    /// Wall-clock duration of the settle drive, microseconds.
    pub settle_us: u64,
    /// Wall-clock duration of restructuring (census + reclaim),
    /// microseconds.
    pub restructure_us: u64,
    /// Wall-clock duration of the whole cycle, microseconds.
    pub total_us: u64,
    /// Intra-PE sends during the cycle.
    pub sends_local: u64,
    /// Cross-PE sends during the cycle.
    pub sends_remote: u64,
    /// High-water mark of the marking-lane backlog during the cycle.
    pub mark_backlog_hw: u64,
}

impl CycleReport {
    /// Vertices carrying an `M_R` mark, all priorities together.
    pub fn marked_r(&self) -> usize {
        self.marked_by_priority.iter().sum()
    }
}

/// Aggregate statistics over all cycles run so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Completed cycles.
    pub cycles: u32,
    /// Cycles in which `M_T` ran.
    pub mt_cycles: u32,
    /// Total vertices reclaimed.
    pub reclaimed_total: usize,
    /// Total irrelevant tasks expunged.
    pub expunged_total: usize,
    /// Total tasks re-laned.
    pub relaned_total: usize,
    /// Total marking events executed.
    pub mark_events_total: u64,
    /// Total marks settled in place.
    pub marks_in_place_total: u64,
    /// Largest number of marking events in one cycle (the bound on how
    /// much marking work a cycle injects — the concurrent analogue of a
    /// pause).
    pub max_cycle_mark_events: u64,
    /// Total deadlocked vertices reported.
    pub deadlocks_total: usize,
    /// Cycles abandoned on phase budget.
    pub aborted_cycles: u32,
}

impl GcStats {
    /// Folds one cycle report into the aggregate.
    pub fn absorb(&mut self, r: &CycleReport) {
        self.cycles += 1;
        if r.ran_mt {
            self.mt_cycles += 1;
        }
        self.reclaimed_total += r.reclaimed;
        self.expunged_total += r.expunged;
        self.relaned_total += r.relaned;
        self.mark_events_total += r.mark_events;
        self.marks_in_place_total += r.marks_in_place;
        self.max_cycle_mark_events = self.max_cycle_mark_events.max(r.mark_events);
        self.deadlocks_total += r.deadlocked.len();
        if r.aborted {
            self.aborted_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut s = GcStats::default();
        s.absorb(&CycleReport {
            cycle: 1,
            ran_mt: true,
            reclaimed: 3,
            expunged: 2,
            mark_events: 10,
            marks_in_place: 4,
            ..Default::default()
        });
        s.absorb(&CycleReport {
            cycle: 2,
            reclaimed: 1,
            mark_events: 30,
            aborted: true,
            ..Default::default()
        });
        assert_eq!(s.cycles, 2);
        assert_eq!(s.mt_cycles, 1);
        assert_eq!(s.reclaimed_total, 4);
        assert_eq!(s.expunged_total, 2);
        assert_eq!(s.max_cycle_mark_events, 30);
        assert_eq!(s.marks_in_place_total, 4);
        assert_eq!(s.aborted_cycles, 1);
    }

    #[test]
    fn marked_r_sums_priorities() {
        let r = CycleReport {
            marked_by_priority: [4, 2, 1],
            ..Default::default()
        };
        assert_eq!(r.marked_r(), 7);
    }
}
