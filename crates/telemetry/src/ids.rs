//! Identifiers for the fixed metric set and the phase tags.
//!
//! The registry deliberately uses a closed enum of metrics instead of
//! string registration: a counter bump is then an array index plus one
//! relaxed atomic add, with no hashing or locking on the hot path, and a
//! snapshot is a plain array copy.

/// Phase tag attached to spans and instant events.
///
/// `Mt`/`Mr` are the paper's two marking processes; `Classify` covers the
/// restructuring work that reads the finished marks (GAR reclaim, IRR
/// expunge, re-laning, deadlock report); `Gc` tags whole-cycle
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The task-marking process `M_T`.
    Mt,
    /// The priority-marking process `M_R`.
    Mr,
    /// Restructuring: classification and the actions taken on it.
    Classify,
    /// Whole-cycle bookkeeping (cycle spans, settle, aborts).
    Gc,
}

impl Phase {
    /// Stable display name (also the JSON value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mt => "M_T",
            Phase::Mr => "M_R",
            Phase::Classify => "classify",
            Phase::Gc => "gc",
        }
    }
}

/// The fixed set of counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Messages handled by the threaded runtime (any kind).
    Tasks,
    /// Marking-lane deliveries (mark + return tasks). A threaded pass,
    /// whose returns run in place where their marks end, adds 2 per task,
    /// per duplicate visit settled at the spawn site and per leaf marked
    /// there — a mark and its return each — so its counters sum to its
    /// `messages`.
    MarkEvents,
    /// Reduction-lane deliveries.
    RedEvents,
    /// Sends whose destination PE is the sending PE.
    SendsLocal,
    /// Sends that cross a PE boundary.
    SendsRemote,
    /// Cross-PE batches flushed by the threaded runtime.
    Batches,
    /// Times a threaded worker found its mailbox empty and parked.
    Parks,
    /// Garbage vertices reclaimed by restructuring.
    Reclaimed,
    /// Irrelevant tasks expunged by restructuring.
    Expunged,
    /// Pending tasks moved to a different priority lane.
    Relaned,
    /// Successful steal operations by the work-stealing runtime (each may
    /// transfer several tasks).
    Steals,
    /// Steal attempts that found the victim empty or lost the race.
    StealFails,
    /// Successful steal operations with **this PE as the victim** (the
    /// thief bumps the victim's shard — the per-victim steal outcome
    /// bucket).
    StolenFrom,
    /// Tasks taken from this PE's deque by thieves.
    StolenTasks,
    /// Failed steal attempts against this PE as the victim (empty deque
    /// or lost race).
    StealMisses,
}

impl CounterId {
    /// Number of counters.
    pub const COUNT: usize = 15;

    /// Every counter, in `index` order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::Tasks,
        CounterId::MarkEvents,
        CounterId::RedEvents,
        CounterId::SendsLocal,
        CounterId::SendsRemote,
        CounterId::Batches,
        CounterId::Parks,
        CounterId::Reclaimed,
        CounterId::Expunged,
        CounterId::Relaned,
        CounterId::Steals,
        CounterId::StealFails,
        CounterId::StolenFrom,
        CounterId::StolenTasks,
        CounterId::StealMisses,
    ];

    /// Dense index into shard/snapshot arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Tasks => "tasks",
            CounterId::MarkEvents => "mark_events",
            CounterId::RedEvents => "red_events",
            CounterId::SendsLocal => "sends_local",
            CounterId::SendsRemote => "sends_remote",
            CounterId::Batches => "batches",
            CounterId::Parks => "parks",
            CounterId::Reclaimed => "reclaimed",
            CounterId::Expunged => "expunged",
            CounterId::Relaned => "relaned",
            CounterId::Steals => "steals",
            CounterId::StealFails => "steal_fails",
            CounterId::StolenFrom => "stolen_from",
            CounterId::StolenTasks => "stolen_tasks",
            CounterId::StealMisses => "steal_misses",
        }
    }
}

/// The fixed set of gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeId {
    /// Largest marking-lane backlog a GC cycle reached (set with
    /// `gauge_max` on PE 0 when the cycle closes: the simulator's lanes
    /// are global, so the system has one such peak, not one per PE).
    MailboxHighWater,
    /// Tasks in a PE's work-stealing deque right now.
    DequeDepth,
    /// Largest deque depth observed (set with `gauge_max`).
    DequeHighWater,
    /// Largest private spill-stack depth observed by a work-stealing
    /// worker (set with `gauge_max`).
    SpillHighWater,
}

impl GaugeId {
    /// Number of gauges.
    pub const COUNT: usize = 4;

    /// Every gauge, in `index` order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::MailboxHighWater,
        GaugeId::DequeDepth,
        GaugeId::DequeHighWater,
        GaugeId::SpillHighWater,
    ];

    /// Dense index into shard/snapshot arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::MailboxHighWater => "mailbox_high_water",
            GaugeId::DequeDepth => "deque_depth",
            GaugeId::DequeHighWater => "deque_high_water",
            GaugeId::SpillHighWater => "spill_high_water",
        }
    }
}

/// The fixed set of histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Messages per cross-PE batch in the threaded runtime.
    BatchSize,
    /// Wall microseconds per completed marking cycle.
    CycleUs,
    /// Tasks transferred per successful `steal_half`.
    StealBatch,
    /// Per-pass deque-depth high-water, one observation per worker per
    /// pass (the distribution of peak backlogs across PEs).
    DequeDepthPeak,
    /// Microseconds from a timed park to waking (timeout or unpark).
    ParkWakeUs,
}

impl HistId {
    /// Number of histograms.
    pub const COUNT: usize = 5;

    /// Every histogram, in `index` order.
    pub const ALL: [HistId; HistId::COUNT] = [
        HistId::BatchSize,
        HistId::CycleUs,
        HistId::StealBatch,
        HistId::DequeDepthPeak,
        HistId::ParkWakeUs,
    ];

    /// Dense index into shard/snapshot arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            HistId::BatchSize => "batch_size",
            HistId::CycleUs => "cycle_us",
            HistId::StealBatch => "steal_batch",
            HistId::DequeDepthPeak => "deque_depth_peak",
            HistId::ParkWakeUs => "park_wake_us",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
