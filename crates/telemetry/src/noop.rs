//! The zero-cost stand-in used when the `telemetry` feature is off.
//!
//! Every type here is zero-sized and every method an empty `#[inline]`
//! body, so instrumentation calls compile away entirely — the marking
//! hot loops carry **no atomics and no branches** from telemetry in a
//! default build. The API mirrors [`active`](crate::active) exactly;
//! `lib.rs` re-exports one or the other under the same names.

use crate::heap::{CycleHeap, HeapSnapshot, TriggerCause};
use crate::ids::{CounterId, GaugeId, HistId, Phase};
use crate::ledger::Ledger;
use crate::lifecycle::{CycleLifecycle, LifecycleSnapshot};
use crate::metrics::MetricsSnapshot;
use crate::ring::Event;
use crate::sched::{PeSchedSnapshot, SchedState};

/// No-op counterpart of
/// [`active::HeartbeatHandle`](crate::active::HeartbeatHandle).
///
/// Zero-sized: a driver field holding one adds no bytes and every beat
/// compiles away. [`HeartbeatHandle::shared`] still returns a (fresh,
/// never-beaten) concrete heartbeat so observer code written against the
/// facade type-checks in both feature states.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeartbeatHandle;

impl HeartbeatHandle {
    /// A no-op handle.
    #[inline(always)]
    pub fn new() -> Self {
        HeartbeatHandle
    }

    /// Ignores the shared heartbeat (nothing will beat it).
    #[inline(always)]
    pub fn from_shared(_hb: std::sync::Arc<crate::heartbeat::Heartbeat>) -> Self {
        HeartbeatHandle
    }

    /// A fresh, never-beaten heartbeat (no state is shared).
    #[inline(always)]
    pub fn shared(&self) -> std::sync::Arc<crate::heartbeat::Heartbeat> {
        std::sync::Arc::new(crate::heartbeat::Heartbeat::new())
    }

    /// `false`: nothing is recorded.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        false
    }

    /// Does nothing.
    #[inline(always)]
    pub fn begin_phase(&self, _cycle: u32, _phase: Phase) {}

    /// Does nothing.
    #[inline(always)]
    pub fn end_phase(&self) {}

    /// Does nothing.
    #[inline(always)]
    pub fn progress(&self, _n: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn cycle_done(&self) {}
}

/// No-op counterpart of [`active::PeShard`](crate::active::PeShard).
#[derive(Debug)]
pub struct PeShard;

impl PeShard {
    /// Does nothing.
    #[inline(always)]
    pub fn inc(&self, _id: CounterId) {}

    /// Does nothing.
    #[inline(always)]
    pub fn add(&self, _id: CounterId, _n: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn gauge_set(&self, _id: GaugeId, _v: i64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn gauge_max(&self, _id: GaugeId, _v: i64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn observe(&self, _id: HistId, _v: u64) {}
}

/// No-op counterpart of [`active::Registry`](crate::active::Registry).
#[derive(Debug)]
pub struct Registry;

impl Registry {
    /// A no-op registry (ignores the PE count).
    #[inline(always)]
    pub fn new(_num_pes: u16) -> Self {
        Registry
    }

    /// `false`: nothing is recorded.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        false
    }

    /// The shared zero-sized shard.
    #[inline(always)]
    pub fn pe(&self, _pe: u16) -> &PeShard {
        &PeShard
    }

    /// Always 0 (no clock is read).
    #[inline(always)]
    pub fn now_us(&self) -> u64 {
        0
    }

    /// Does nothing (no clock is read).
    #[inline(always)]
    pub fn sched_enter(&self, _pe: u16, _state: SchedState) {}

    /// Does nothing.
    #[inline(always)]
    pub fn sched_finish(&self, _pe: u16) {}

    /// Always the empty clock.
    #[inline(always)]
    pub fn sched_snapshot(&self, _pe: u16) -> PeSchedSnapshot {
        PeSchedSnapshot::default()
    }

    /// Does nothing.
    #[inline(always)]
    pub fn begin(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str) {}

    /// Does nothing.
    #[inline(always)]
    pub fn end(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str) {}

    /// Does nothing.
    #[inline(always)]
    pub fn instant(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str, _value: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn emit<L: Ledger>(&self, _pe: u16, _cycle: u32, _ledger: &L) {}

    /// A zero-sized guard.
    #[inline(always)]
    pub fn span(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str) -> SpanGuard<'_> {
        SpanGuard(std::marker::PhantomData)
    }

    /// Does nothing.
    #[inline(always)]
    pub fn flow_send(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str, _flow: u64) {
    }

    /// Does nothing.
    #[inline(always)]
    pub fn flow_recv(&self, _pe: u16, _cycle: u32, _phase: Phase, _name: &'static str, _flow: u64) {
    }

    /// Always 0.
    #[inline(always)]
    pub fn flows_in_flight(&self) -> usize {
        0
    }

    /// An empty snapshot.
    #[inline(always)]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Always empty.
    #[inline(always)]
    pub fn drain_events(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Always 0.
    #[inline(always)]
    pub fn dropped_events(&self) -> u64 {
        0
    }
}

/// No-op counterpart of [`active::SpanGuard`](crate::active::SpanGuard).
#[derive(Debug)]
pub struct SpanGuard<'a>(std::marker::PhantomData<&'a ()>);

/// No-op counterpart of the recording
/// [`lifecycle::Tracker`](crate::lifecycle::Tracker).
///
/// Zero-sized: a collector field holding one adds no bytes, every stamp
/// compiles away, and [`LifecycleTracker::enabled`] returning `false`
/// lets call sites skip their whole-graph census loops.
#[derive(Debug, Default)]
pub struct LifecycleTracker;

impl LifecycleTracker {
    /// A no-op tracker.
    #[inline(always)]
    pub fn new() -> Self {
        LifecycleTracker
    }

    /// `false`: nothing is recorded (skip the census loop).
    #[inline(always)]
    pub const fn enabled(&self) -> bool {
        false
    }

    /// Does nothing.
    #[inline(always)]
    pub fn begin_cycle(&mut self, _cycle: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn garbage_vertex(&mut self, _idx: usize) {}

    /// Does nothing.
    #[inline(always)]
    pub fn reclaim_vertex(&mut self, _idx: usize) {}

    /// Does nothing.
    #[inline(always)]
    pub fn meter_msgs(&mut self, _mt: u64, _mr: u64, _bound: u64) {}

    /// Does nothing; returns the zero record.
    #[inline(always)]
    pub fn end_cycle(&mut self) -> CycleLifecycle {
        CycleLifecycle::default()
    }

    /// Always the empty snapshot.
    #[inline(always)]
    pub fn snapshot(&self) -> LifecycleSnapshot {
        LifecycleSnapshot::default()
    }

    /// Always empty.
    #[inline(always)]
    pub fn worst_floaters(&self, _k: usize) -> Vec<(u32, u64)> {
        Vec::new()
    }
}

/// No-op counterpart of the recording
/// [`heap::Tracker`](crate::heap::Tracker).
///
/// Zero-sized: a system field holding one adds no bytes, every byte
/// stamp compiles away, and [`HeapTracker::enabled`] returning `false`
/// lets call sites skip their journal-drain loops.
#[derive(Debug, Default)]
pub struct HeapTracker;

impl HeapTracker {
    /// A no-op tracker (ignores the PE count).
    #[inline(always)]
    pub fn new(_num_pes: usize) -> Self {
        HeapTracker
    }

    /// `false`: nothing is recorded (skip the journal drain).
    #[inline(always)]
    pub const fn enabled(&self) -> bool {
        false
    }

    /// Does nothing.
    #[inline(always)]
    pub fn alloc(&mut self, _pe: usize, _idx: usize, _bytes: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn free(&mut self, _pe: usize, _idx: usize, _bytes: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn record_trigger(&mut self, _cause: TriggerCause) {}

    /// Does nothing.
    #[inline(always)]
    pub fn begin_episode(&mut self) {}

    /// Does nothing; returns the zero record.
    #[inline(always)]
    pub fn close_cycle(&mut self, _cycle: u64) -> CycleHeap {
        CycleHeap::default()
    }

    /// Always 0.
    #[inline(always)]
    pub fn live_bytes(&self) -> u64 {
        0
    }

    /// Always 0.
    #[inline(always)]
    pub fn peak_bytes(&self) -> u64 {
        0
    }

    /// Always the empty snapshot.
    #[inline(always)]
    pub fn snapshot(&self) -> HeapSnapshot {
        HeapSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The type-layer guarantee the `telemetry`-off build relies on: the
    /// no-op registry, shard and span guard occupy zero bytes, so no
    /// atomics (or any state at all) can hide behind an instrumentation
    /// call compiled against them.
    #[test]
    fn noop_types_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Registry>(), 0);
        assert_eq!(std::mem::size_of::<PeShard>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard<'_>>(), 0);
        assert_eq!(std::mem::size_of::<HeartbeatHandle>(), 0);
        assert_eq!(std::mem::size_of::<LifecycleTracker>(), 0);
        assert_eq!(std::mem::size_of::<HeapTracker>(), 0);
    }

    #[test]
    fn noop_heap_tracks_nothing() {
        let mut t = HeapTracker::new(4);
        assert!(!t.enabled());
        t.alloc(0, 1, 32);
        t.free(0, 1, 32);
        t.record_trigger(TriggerCause::HeapBytes);
        t.begin_episode();
        let rec = t.close_cycle(3);
        assert_eq!(rec, CycleHeap::default());
        assert_eq!(t.live_bytes(), 0);
        assert_eq!(t.peak_bytes(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn noop_lifecycle_tracks_nothing() {
        let mut t = LifecycleTracker::new();
        assert!(!t.enabled());
        t.begin_cycle(1);
        t.garbage_vertex(1);
        t.reclaim_vertex(1);
        t.meter_msgs(3, 4, 10);
        let rec = t.end_cycle();
        assert_eq!(rec, CycleLifecycle::default());
        assert!(t.snapshot().is_empty());
        assert!(t.worst_floaters(8).is_empty());
    }

    #[test]
    fn noop_heartbeat_beats_nothing() {
        let hb = HeartbeatHandle::new();
        assert!(!hb.enabled());
        hb.begin_phase(1, Phase::Mr);
        hb.progress(10);
        hb.end_phase();
        hb.cycle_done();
        let shared = hb.shared();
        assert_eq!(shared.beats(), 0, "no beat ever reaches the shared pulse");
        assert_eq!(shared.progress_total(), 0);
        assert_eq!(shared.phase(), None);
    }

    #[test]
    fn noop_api_observes_nothing() {
        let r = Registry::new(4);
        assert!(!r.enabled());
        r.pe(0).inc(CounterId::MarkEvents);
        r.pe(1).add(CounterId::SendsRemote, 10);
        r.pe(2).observe(HistId::BatchSize, 3);
        r.begin(0, 1, Phase::Mr, "M_R");
        r.instant(0, 1, Phase::Mr, "marked", 7);
        r.end(0, 1, Phase::Mr, "M_R");
        {
            let _g = r.span(0, 1, Phase::Gc, "cycle");
        }
        r.emit(0, 1, &CycleHeap::default());
        r.flow_send(0, 1, Phase::Mt, "mark", 7);
        r.flow_recv(1, 1, Phase::Mt, "mark", 7);
        r.sched_enter(0, SchedState::Work);
        r.sched_finish(0);
        assert!(r.sched_snapshot(0).is_empty());
        assert_eq!(r.snapshot().merged().sched().total_ns(), 0);
        assert_eq!(r.flows_in_flight(), 0);
        assert_eq!(r.snapshot().merged().counter(CounterId::MarkEvents), 0);
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
        assert_eq!(r.now_us(), 0);
    }
}
