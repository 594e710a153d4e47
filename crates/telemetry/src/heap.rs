//! Heap-pressure accounting: per-PE live-bytes clocks, allocation/free
//! meters, peak waterlines, and size-class histograms.
//!
//! The graph store keeps the *functional* byte clock (one add per alloc,
//! one subtract per free — always on, so `GcTrigger::HeapBytes` works in
//! every build) and journals each delta. `reduction::System` drains that
//! journal after every dispatch and replays it into a [`Tracker`],
//! attributing each vertex's bytes to the PE that owns it under the
//! current partition — Hudak's PEs own only local store, so heap pressure
//! is a per-PE quantity here too:
//!
//! 1. [`Tracker::alloc`] stamps a vertex's byte weight at allocation,
//!    feeds the per-PE live clock, the peak waterline, and the
//!    power-of-two size-class histogram (same [`bucket_index`] edge math
//!    as every other histogram in this crate);
//! 2. [`Tracker::free`] releases the bytes. A free whose vertex carried
//!    an allocation stamp is **exact** (the ≥95 % bytes-exactness the
//!    bench harness asserts); a tracker attached mid-run counts the rest
//!    as inexact;
//! 3. [`Tracker::close_cycle`] is called by the GC driver once per
//!    marking cycle: it snapshots the traffic since the previous close
//!    into a [`CycleHeap`] ledger (the source of the `hp_*` instants);
//! 4. [`Tracker::record_trigger`] tallies *why* each cycle started
//!    ([`TriggerCause`]), which `/metrics` exports as
//!    `dgr_gc_trigger_total{cause}`;
//! 5. [`Tracker::begin_episode`] resets the waterlines (a bench resets
//!    between sweep cells so each cell reports its own peak).
//!
//! Like [`lifecycle`](crate::lifecycle), everything here is always
//! compiled; the `telemetry` feature only decides whether the
//! `HeapTracker` alias at the crate root names this [`Tracker`] or the
//! zero-sized [`noop::HeapTracker`](crate::noop::HeapTracker).

use crate::ids::Phase;
use crate::ledger::{ratio, Ledger};
use crate::lifecycle::quantile;
use crate::metrics::{bucket_index, HIST_BUCKETS};

/// Why a GC cycle started, under pressure-coupled triggering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerCause {
    /// The event-count period elapsed.
    Period,
    /// Live bytes crossed the configured `HeapBytes` bound.
    HeapBytes,
}

impl TriggerCause {
    /// The `cause` label value on `dgr_gc_trigger_total`.
    pub fn name(self) -> &'static str {
        match self {
            TriggerCause::Period => "period",
            TriggerCause::HeapBytes => "heap",
        }
    }

    /// The numeric code a [`CycleHeap`] carries.
    pub fn code(self) -> u64 {
        match self {
            TriggerCause::Period => 0,
            TriggerCause::HeapBytes => 1,
        }
    }

    /// Decodes a [`CycleHeap::cause`] code.
    pub fn from_code(code: u64) -> Option<TriggerCause> {
        [TriggerCause::Period, TriggerCause::HeapBytes]
            .into_iter()
            .find(|cause| cause.code() == code)
    }
}

/// One marking cycle's heap ledger — the allocation traffic between two
/// [`Tracker::close_cycle`] calls, plus what started the cycle — as
/// emitted via `hp_*` instants ([`Ledger::wire`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleHeap {
    /// The cycle number this record describes.
    pub cycle: u64,
    /// What started the cycle, as a [`TriggerCause::code`]. The tracker
    /// leaves it 0; the collector that knows the cause stamps it.
    pub cause: u64,
    /// The live-bytes bound in force (0 when the trigger watches none),
    /// stamped by the collector like `cause`.
    pub bound: u64,
    /// Vertices allocated in the window.
    pub allocs: u64,
    /// Vertices freed in the window.
    pub frees: u64,
    /// Bytes charged by allocations.
    pub alloc_bytes: u64,
    /// Bytes released by frees.
    pub freed_bytes: u64,
    /// Of the freed bytes, how many came off stamped vertices.
    pub exact_bytes: u64,
    /// Total live bytes when the cycle closed.
    pub live_end: u64,
    /// Peak total live bytes observed inside the window.
    pub peak: u64,
}

impl Ledger for CycleHeap {
    const PHASE: Phase = Phase::Gc;

    fn open(_pe: u16, cycle: u32) -> (u64, Self) {
        let cycle = u64::from(cycle);
        (
            cycle,
            CycleHeap {
                cycle,
                ..Default::default()
            },
        )
    }

    fn wire(&mut self, mut field: impl FnMut(&'static str, &mut u64)) {
        field("hp_cause", &mut self.cause);
        field("hp_bound", &mut self.bound);
        field("hp_live", &mut self.live_end);
        field("hp_peak", &mut self.peak);
        field("hp_alloc_bytes", &mut self.alloc_bytes);
        field("hp_freed_bytes", &mut self.freed_bytes);
        field("hp_allocs", &mut self.allocs);
        field("hp_frees", &mut self.frees);
        field("hp_exact_bytes", &mut self.exact_bytes);
    }
}

impl CycleHeap {
    /// The trigger cause's label (`"?"` for a code this build does not
    /// know).
    pub fn cause_name(&self) -> &'static str {
        TriggerCause::from_code(self.cause).map_or("?", TriggerCause::name)
    }

    /// Fraction of the window's freed bytes that came off stamped
    /// vertices (1 when nothing was freed).
    pub fn exact_fraction(&self) -> f64 {
        ratio(self.exact_bytes, self.freed_bytes, 1.0)
    }

    /// Peak live bytes over the bound (0 when no bound was in force):
    /// above 1, the cycle started too late to hold the waterline.
    pub fn pressure(&self) -> f64 {
        ratio(self.peak, self.bound, 0.0)
    }
}

/// One PE's byte meters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeHeap {
    /// Live bytes owned by this PE now.
    pub live: u64,
    /// Peak live bytes since the episode began.
    pub peak: u64,
    /// Cumulative bytes this PE's vertices ever allocated.
    pub alloc_bytes: u64,
    /// Cumulative bytes this PE's vertices ever freed.
    pub free_bytes: u64,
    /// Allocation count.
    pub allocs: u64,
    /// Free count.
    pub frees: u64,
}

/// Cheap copyable totals of a [`Tracker`], suitable for publishing into
/// an `ObserveHub` once per cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapSnapshot {
    /// Per-PE byte meters, indexed by PE.
    pub per_pe: Vec<PeHeap>,
    /// Total live bytes across all PEs.
    pub live: u64,
    /// Peak total live bytes since the episode began.
    pub peak: u64,
    /// Cumulative bytes ever allocated.
    pub alloc_bytes: u64,
    /// Cumulative bytes ever freed.
    pub freed_bytes: u64,
    /// Total allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Frees whose vertex carried an allocation stamp.
    pub exact_frees: u64,
    /// Freed bytes that came off stamped vertices.
    pub exact_bytes: u64,
    /// Allocation-size histogram (power-of-two buckets of bytes).
    pub size: [u64; HIST_BUCKETS],
    /// Observations in the size histogram (= allocations).
    pub size_count: u64,
    /// Sum of histogrammed allocation sizes.
    pub size_sum: u64,
    /// Largest single allocation observed.
    pub size_max: u64,
    /// Cycles whose trigger cause was the event-count period.
    pub trigger_period: u64,
    /// Cycles whose trigger cause was the live-bytes bound.
    pub trigger_heap: u64,
    /// Closed cycles.
    pub cycles: u64,
}

impl HeapSnapshot {
    /// `true` if the tracker never saw an allocation or closed a cycle.
    pub fn is_empty(&self) -> bool {
        self.allocs == 0 && self.frees == 0 && self.cycles == 0
    }

    /// Fraction of freed *bytes* that came off stamped vertices
    /// (1 when nothing was freed).
    pub fn exact_fraction(&self) -> f64 {
        ratio(self.exact_bytes, self.freed_bytes, 1.0)
    }

    /// Mean allocation size in bytes (0 when nothing was allocated).
    pub fn mean_alloc_bytes(&self) -> f64 {
        ratio(self.size_sum, self.size_count, 0.0)
    }

    /// Bucket-estimated allocation-size quantile in bytes (same
    /// convention as [`HistSnapshot::quantile`](crate::HistSnapshot)).
    pub fn size_quantile(&self, q: f64) -> u64 {
        quantile(&self.size, self.size_count, self.size_max, q)
    }

    /// Trigger tallies as `(cause name, count)` pairs in fixed order.
    pub fn triggers(&self) -> [(&'static str, u64); 2] {
        [
            (TriggerCause::Period.name(), self.trigger_period),
            (TriggerCause::HeapBytes.name(), self.trigger_heap),
        ]
    }
}

/// Sentinel for "no stamp" in the per-vertex byte-stamp array (stored
/// values are `bytes + 1`).
const UNSTAMPED: u64 = 0;

/// The recording heap tracker (see the module docs for the protocol).
/// Single-threaded by design: it is fed from the system's dispatch loop
/// and the collector's restructure path, which already own the graph.
#[derive(Debug, Default)]
pub struct Tracker {
    /// Per-vertex: allocation-stamped byte weight + 1.
    stamps: Vec<u64>,
    /// The open window's ledger (traffic since the last `close_cycle`).
    cur: CycleHeap,
    /// Running totals.
    snap: HeapSnapshot,
}

impl Tracker {
    /// A fresh tracker with `num_pes` per-PE meters.
    pub fn new(num_pes: usize) -> Self {
        Tracker {
            snap: HeapSnapshot {
                per_pe: vec![PeHeap::default(); num_pes],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// `true`: this is the recording implementation.
    #[inline(always)]
    pub const fn enabled(&self) -> bool {
        true
    }

    fn pe_slot(&mut self, pe: usize) -> &mut PeHeap {
        if pe >= self.snap.per_pe.len() {
            self.snap.per_pe.resize(pe + 1, PeHeap::default());
        }
        &mut self.snap.per_pe[pe]
    }

    fn stamp_slot(&mut self, idx: usize) -> &mut u64 {
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, UNSTAMPED);
        }
        &mut self.stamps[idx]
    }

    fn note_peak(&mut self) {
        self.snap.peak = self.snap.peak.max(self.snap.live);
        self.cur.peak = self.cur.peak.max(self.snap.live);
    }

    /// Records vertex `idx` (owned by `pe`) allocating `bytes`: stamps
    /// the weight, feeds the clocks, waterlines and size histogram.
    pub fn alloc(&mut self, pe: usize, idx: usize, bytes: u64) {
        *self.stamp_slot(idx) = bytes + 1;
        let shard = self.pe_slot(pe);
        shard.live += bytes;
        shard.peak = shard.peak.max(shard.live);
        shard.alloc_bytes += bytes;
        shard.allocs += 1;
        self.snap.live += bytes;
        self.snap.alloc_bytes += bytes;
        self.snap.allocs += 1;
        self.snap.size[bucket_index(bytes)] += 1;
        self.snap.size_count += 1;
        self.snap.size_sum += bytes;
        self.snap.size_max = self.snap.size_max.max(bytes);
        self.cur.allocs += 1;
        self.cur.alloc_bytes += bytes;
        self.note_peak();
    }

    /// Records vertex `idx` (owned by `pe`) freeing `bytes`. Exact when
    /// the vertex carried an allocation stamp; inexact otherwise (the
    /// tracker attached after the vertex was built).
    pub fn free(&mut self, pe: usize, idx: usize, bytes: u64) {
        let exact = idx < self.stamps.len() && self.stamps[idx] != UNSTAMPED;
        if exact {
            self.stamps[idx] = UNSTAMPED;
        }
        let shard = self.pe_slot(pe);
        shard.live = shard.live.saturating_sub(bytes);
        shard.free_bytes += bytes;
        shard.frees += 1;
        self.snap.live = self.snap.live.saturating_sub(bytes);
        self.snap.freed_bytes += bytes;
        self.snap.frees += 1;
        self.cur.frees += 1;
        self.cur.freed_bytes += bytes;
        if exact {
            self.snap.exact_frees += 1;
            self.snap.exact_bytes += bytes;
            self.cur.exact_bytes += bytes;
        }
    }

    /// Tallies why a GC cycle started.
    pub fn record_trigger(&mut self, cause: TriggerCause) {
        match cause {
            TriggerCause::Period => self.snap.trigger_period += 1,
            TriggerCause::HeapBytes => self.snap.trigger_heap += 1,
        }
    }

    /// Resets the waterlines to the current live level — the start of a
    /// fresh measurement episode (a bench sweep cell). Cumulative meters
    /// and stamps are untouched.
    pub fn begin_episode(&mut self) {
        self.snap.peak = self.snap.live;
        for shard in &mut self.snap.per_pe {
            shard.peak = shard.live;
        }
        self.cur.peak = self.snap.live;
    }

    /// Closes the window at GC cycle `cycle`: stamps the cycle number
    /// and closing live level into the ledger, returns it, and opens a
    /// fresh window whose peak starts at the current live level.
    pub fn close_cycle(&mut self, cycle: u64) -> CycleHeap {
        self.cur.cycle = cycle;
        self.cur.live_end = self.snap.live;
        self.snap.cycles += 1;
        let closed = self.cur;
        self.cur = CycleHeap {
            peak: self.snap.live,
            ..Default::default()
        };
        closed
    }

    /// Total live bytes across all PEs, as accounted by the tracker.
    pub fn live_bytes(&self) -> u64 {
        self.snap.live
    }

    /// Peak total live bytes since the episode began.
    pub fn peak_bytes(&self) -> u64 {
        self.snap.peak
    }

    /// Running totals (the open window is visible in the scalar meters;
    /// per-cycle ledgers come from [`Tracker::close_cycle`]).
    pub fn snapshot(&self) -> HeapSnapshot {
        self.snap.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_meters_and_histogram_track_alloc_free() {
        let mut t = Tracker::new(2);
        t.alloc(0, 0, 32);
        t.alloc(1, 1, 16);
        t.alloc(0, 2, 100);
        assert_eq!(t.live_bytes(), 148);
        assert_eq!(t.peak_bytes(), 148);
        t.free(0, 2, 100);
        assert_eq!(t.live_bytes(), 48);
        assert_eq!(t.peak_bytes(), 148, "waterline holds after a free");
        let s = t.snapshot();
        assert_eq!(s.per_pe[0].live, 32);
        assert_eq!(s.per_pe[0].peak, 132);
        assert_eq!(s.per_pe[1].live, 16);
        assert_eq!((s.allocs, s.frees), (3, 1));
        assert_eq!((s.alloc_bytes, s.freed_bytes), (148, 100));
        assert_eq!(s.size_count, 3);
        assert_eq!(s.size_sum, 148);
        assert_eq!(s.size_max, 100);
        assert_eq!(s.size[bucket_index(16)], 1);
        assert_eq!(s.size[bucket_index(32)], 1);
        assert_eq!(s.size[bucket_index(100)], 1);
        assert!((s.mean_alloc_bytes() - 148.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.size_quantile(0.5), 63, "upper edge of 32's bucket");
    }

    #[test]
    fn stamped_frees_are_exact_and_unstamped_are_not() {
        let mut t = Tracker::new(1);
        t.alloc(0, 5, 40);
        t.free(0, 5, 40);
        t.free(0, 9, 60); // never stamped
        let s = t.snapshot();
        assert_eq!(s.exact_frees, 1);
        assert_eq!(s.exact_bytes, 40);
        assert_eq!(s.freed_bytes, 100);
        assert!((s.exact_fraction() - 0.4).abs() < 1e-9);
        // A re-allocated slot is stamped again.
        t.alloc(0, 5, 8);
        t.free(0, 5, 8);
        assert_eq!(t.snapshot().exact_frees, 2);
    }

    #[test]
    fn close_cycle_windows_the_traffic() {
        let mut t = Tracker::new(1);
        t.alloc(0, 0, 50);
        let c1 = t.close_cycle(1);
        assert_eq!(c1.cycle, 1);
        assert_eq!(c1.allocs, 1);
        assert_eq!(c1.alloc_bytes, 50);
        assert_eq!(c1.live_end, 50);
        assert_eq!(c1.peak, 50);
        t.alloc(0, 1, 30);
        t.free(0, 0, 50);
        let c2 = t.close_cycle(2);
        assert_eq!((c2.allocs, c2.frees), (1, 1));
        assert_eq!(c2.peak, 80, "peak inside the second window only");
        assert_eq!(c2.live_end, 30);
        assert_eq!(c2.exact_bytes, 50);
        assert_eq!(t.snapshot().cycles, 2);
    }

    #[test]
    fn episodes_reset_waterlines_but_not_meters() {
        let mut t = Tracker::new(2);
        t.alloc(0, 0, 100);
        t.free(0, 0, 100);
        t.alloc(1, 1, 10);
        assert_eq!(t.peak_bytes(), 100);
        t.begin_episode();
        assert_eq!(t.peak_bytes(), 10, "waterline restarts at live");
        assert_eq!(t.snapshot().per_pe[0].peak, 0);
        assert_eq!(t.snapshot().alloc_bytes, 110, "meters survive");
        t.alloc(1, 2, 5);
        assert_eq!(t.peak_bytes(), 15);
    }

    #[test]
    fn trigger_tallies_land_under_their_cause() {
        let mut t = Tracker::new(1);
        t.record_trigger(TriggerCause::Period);
        t.record_trigger(TriggerCause::HeapBytes);
        t.record_trigger(TriggerCause::HeapBytes);
        let s = t.snapshot();
        assert_eq!(s.trigger_period, 1);
        assert_eq!(s.trigger_heap, 2);
        assert_eq!(s.triggers(), [("period", 1), ("heap", 2)]);
    }

    #[test]
    fn cause_codes_roundtrip() {
        for cause in [TriggerCause::Period, TriggerCause::HeapBytes] {
            assert_eq!(TriggerCause::from_code(cause.code()), Some(cause));
        }
        assert_eq!(TriggerCause::from_code(7), None);
    }

    #[test]
    fn ledger_metrics_read_the_stamped_cause_and_bound() {
        let row = CycleHeap {
            cause: TriggerCause::HeapBytes.code(),
            bound: 1000,
            peak: 1200,
            freed_bytes: 200,
            exact_bytes: 50,
            ..Default::default()
        };
        assert_eq!(row.cause_name(), "heap");
        assert!((row.pressure() - 1.2).abs() < 1e-9);
        assert!((row.exact_fraction() - 0.25).abs() < 1e-9);
        let blank = CycleHeap {
            cause: 7,
            ..Default::default()
        };
        assert_eq!(blank.cause_name(), "?");
        assert_eq!(blank.pressure(), 0.0);
        assert_eq!(blank.exact_fraction(), 1.0);
    }

    #[test]
    fn empty_snapshot_is_empty_and_safe() {
        let s = HeapSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.exact_fraction(), 1.0);
        assert_eq!(s.mean_alloc_bytes(), 0.0);
        assert_eq!(s.size_quantile(0.99), 0);
    }
}
