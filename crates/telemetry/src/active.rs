//! The live registry: per-PE metric shards plus per-PE event rings.
//!
//! This module is always compiled (so it is always tested); the
//! `telemetry` feature only controls whether the crate-root `Registry`
//! alias points here or at [`noop`](crate::noop). The two expose an
//! identical API, so instrumentation sites are written once.
//!
//! Sharding: every PE writes its own shard, so hot-path updates never
//! contend. Readers merge shards at snapshot time. PEs beyond the shard
//! count wrap around (`pe % shards`), which keeps `pe()` panic-free for
//! any input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::heartbeat::Heartbeat;
use crate::ids::{CounterId, GaugeId, HistId, Phase};
use crate::ledger::Ledger;
use crate::metrics::{Counter, Gauge, HistSnapshot, Histogram, MetricsSnapshot, PeSnapshot};
use crate::ring::{Event, EventKind, EventRing};
use crate::sched::{PeSchedSnapshot, SchedState, StateClock};

/// Default per-PE event-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The recording handle instrumented drivers beat their liveness pulse
/// through: a cloneable `Arc` around a concrete
/// [`Heartbeat`](crate::heartbeat::Heartbeat).
///
/// The noop counterpart is zero-sized, so a driver field holding one
/// costs nothing in a default build. An observer (the `dgr-observe`
/// watchdog) reads the shared concrete heartbeat from another thread.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatHandle(Arc<Heartbeat>);

impl HeartbeatHandle {
    /// A handle around a fresh heartbeat.
    pub fn new() -> Self {
        HeartbeatHandle::default()
    }

    /// Wraps an existing shared heartbeat (how an observability hub
    /// hands its pulse to a driver).
    pub fn from_shared(hb: Arc<Heartbeat>) -> Self {
        HeartbeatHandle(hb)
    }

    /// The shared concrete heartbeat behind this handle.
    pub fn shared(&self) -> Arc<Heartbeat> {
        Arc::clone(&self.0)
    }

    /// `true`: beats are recorded.
    pub fn enabled(&self) -> bool {
        true
    }

    /// Records that a marking phase of `cycle` entered force.
    pub fn begin_phase(&self, cycle: u32, phase: Phase) {
        self.0.begin_phase(cycle, phase);
    }

    /// Records that the current phase left force.
    pub fn end_phase(&self) {
        self.0.end_phase();
    }

    /// Records `n` more deliveries.
    pub fn progress(&self, n: u64) {
        self.0.progress(n);
    }

    /// Records a completed mark-and-restructure cycle.
    pub fn cycle_done(&self) {
        self.0.cycle_done();
    }
}

/// One PE's metrics and event ring.
#[derive(Debug)]
pub struct PeShard {
    counters: [Counter; CounterId::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    hists: [Histogram; HistId::COUNT],
    /// Uncontended in practice (each PE writes its own shard); a mutex
    /// keeps the API `&self` without unsafe.
    ring: Mutex<EventRing>,
    /// The PE's Lamport clock: ticked by flow sends, merged by flow
    /// receives.
    lamport: AtomicU64,
}

impl PeShard {
    fn new() -> Self {
        PeShard {
            counters: std::array::from_fn(|_| Counter::new()),
            gauges: std::array::from_fn(|_| Gauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: Mutex::new(EventRing::new(DEFAULT_RING_CAPACITY)),
            lamport: AtomicU64::new(0),
        }
    }

    /// The PE's current Lamport clock.
    pub fn lamport(&self) -> u64 {
        self.lamport.load(Ordering::Relaxed)
    }

    /// Adds one to a counter.
    pub fn inc(&self, id: CounterId) {
        self.counters[id.index()].inc();
    }

    /// Adds `n` to a counter.
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.index()].add(n);
    }

    /// Overwrites a gauge.
    pub fn gauge_set(&self, id: GaugeId, v: i64) {
        self.gauges[id.index()].set(v);
    }

    /// Raises a gauge to `v` if larger.
    pub fn gauge_max(&self, id: GaugeId, v: i64) {
        self.gauges[id.index()].raise(v);
    }

    /// Records a histogram observation.
    pub fn observe(&self, id: HistId, v: u64) {
        self.hists[id.index()].observe(v);
    }

    fn push_event(&self, e: Event) {
        self.ring.lock().expect("telemetry ring poisoned").push(e);
    }

    fn snapshot(&self) -> PeSnapshot {
        let counters = std::array::from_fn(|i| self.counters[i].get());
        let gauges = std::array::from_fn(|i| self.gauges[i].get());
        let hists: [HistSnapshot; HistId::COUNT] =
            std::array::from_fn(|i| self.hists[i].snapshot());
        PeSnapshot::from_parts(counters, gauges, hists)
    }
}

/// The metrics/tracing registry: per-PE shards behind a shared reference.
#[derive(Debug)]
pub struct Registry {
    shards: Box<[PeShard]>,
    /// Per-PE scheduler state clocks (one slot per shard).
    sched: StateClock,
    t0: Instant,
    /// Sender Lamport clock of every flow sent but not yet delivered —
    /// the receive side merges it and removes the entry, so what remains
    /// is exactly the in-flight set.
    flows: Mutex<HashMap<u64, u64>>,
}

impl Registry {
    /// A registry with one shard per PE and the default ring capacity.
    pub fn new(num_pes: u16) -> Self {
        let n = (num_pes as usize).max(1);
        Registry {
            shards: (0..n).map(|_| PeShard::new()).collect(),
            sched: StateClock::new(n),
            t0: Instant::now(),
            flows: Mutex::new(HashMap::new()),
        }
    }

    /// `true`: this is the recording implementation.
    pub fn enabled(&self) -> bool {
        true
    }

    /// The shard for a PE (wrapping beyond the shard count).
    pub fn pe(&self, pe: u16) -> &PeShard {
        &self.shards[pe as usize % self.shards.len()]
    }

    /// Microseconds since the registry was created.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Transitions PE `pe`'s scheduler state clock into `state`. Entering
    /// the state already in force is free; see
    /// [`StateClock::enter`](crate::sched::StateClock::enter).
    pub fn sched_enter(&self, pe: u16, state: SchedState) {
        self.sched.enter(pe, state);
    }

    /// Closes PE `pe`'s state-clock episode, charging the in-force state
    /// up to now.
    pub fn sched_finish(&self, pe: u16) {
        self.sched.finish(pe);
    }

    /// One PE's state-clock snapshot (also embedded per PE in
    /// [`Registry::snapshot`]).
    pub fn sched_snapshot(&self, pe: u16) -> PeSchedSnapshot {
        self.sched.snapshot_pe(pe)
    }

    fn event(
        &self,
        pe: u16,
        cycle: u32,
        phase: Phase,
        kind: EventKind,
        name: &'static str,
        value: u64,
    ) {
        self.pe(pe).push_event(Event {
            ts_us: self.now_us(),
            pe,
            cycle,
            phase,
            kind,
            name,
            value,
            lamport: 0,
        });
    }

    /// Opens a span.
    pub fn begin(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str) {
        self.event(pe, cycle, phase, EventKind::Begin, name, 0);
    }

    /// Closes a span.
    pub fn end(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str) {
        self.event(pe, cycle, phase, EventKind::End, name, 0);
    }

    /// Records a point event with a value payload.
    pub fn instant(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str, value: u64) {
        self.event(pe, cycle, phase, EventKind::Instant, name, value);
    }

    /// Writes a whole [`Ledger`] at `(pe, cycle)`: one instant per field
    /// of its wire format, in wire order.
    pub fn emit<L: Ledger>(&self, pe: u16, cycle: u32, ledger: &L) {
        let mut fields = *ledger;
        fields.wire(|name, value| self.instant(pe, cycle, L::PHASE, name, *value));
    }

    /// Opens a span closed automatically when the guard drops.
    pub fn span(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str) -> SpanGuard<'_> {
        self.begin(pe, cycle, phase, name);
        SpanGuard {
            reg: self,
            pe,
            cycle,
            phase,
            name,
        }
    }

    /// Records a message leaving PE `pe` under an externally chosen flow
    /// id (a simulator sequence number, say). Ticks the PE's Lamport
    /// clock and remembers it for the matching [`Registry::flow_recv`].
    pub fn flow_send(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str, flow: u64) {
        let shard = self.pe(pe);
        let lamport = shard.lamport.fetch_add(1, Ordering::Relaxed) + 1;
        self.flows
            .lock()
            .expect("telemetry flow map poisoned")
            .insert(flow, lamport);
        shard.push_event(Event {
            ts_us: self.now_us(),
            pe,
            cycle,
            phase,
            kind: EventKind::FlowSend,
            name,
            value: flow,
            lamport,
        });
    }

    /// Records the delivery of flow `flow` on PE `pe`, closing the
    /// happens-before edge: the receiver's Lamport clock becomes
    /// `max(local, sender) + 1`. Unknown flow ids (the send was recorded
    /// before the registry existed, or never) merge against 0.
    pub fn flow_recv(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str, flow: u64) {
        let sent = self
            .flows
            .lock()
            .expect("telemetry flow map poisoned")
            .remove(&flow)
            .unwrap_or(0);
        let shard = self.pe(pe);
        shard.lamport.fetch_max(sent, Ordering::Relaxed);
        let lamport = shard.lamport.fetch_add(1, Ordering::Relaxed) + 1;
        shard.push_event(Event {
            ts_us: self.now_us(),
            pe,
            cycle,
            phase,
            kind: EventKind::FlowRecv,
            name,
            value: flow,
            lamport,
        });
    }

    /// Number of flows sent but not yet delivered.
    pub fn flows_in_flight(&self) -> usize {
        self.flows
            .lock()
            .expect("telemetry flow map poisoned")
            .len()
    }

    /// Copies every shard's metrics out, each with its PE's scheduler
    /// state clock attached.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_pe: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut snap = s.snapshot();
                    snap.set_sched(self.sched.snapshot_pe(i as u16));
                    snap
                })
                .collect(),
        }
    }

    /// Removes and returns all buffered events, stably sorted by
    /// timestamp (ties keep per-shard insertion order, so a single PE's
    /// begin/end nesting survives equal timestamps).
    pub fn drain_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(s.ring.lock().expect("telemetry ring poisoned").drain());
        }
        out.sort_by_key(|e| e.ts_us);
        out
    }

    /// Total events lost to ring wraparound so far.
    pub fn dropped_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.ring.lock().expect("telemetry ring poisoned").dropped())
            .sum()
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    reg: &'a Registry,
    pe: u16,
    cycle: u32,
    phase: Phase,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.reg.end(self.pe, self.cycle, self.phase, self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_wrap_and_merge() {
        let r = Registry::new(2);
        r.pe(0).inc(CounterId::Tasks);
        r.pe(1).add(CounterId::Tasks, 2);
        r.pe(2).add(CounterId::Tasks, 10); // wraps to shard 0
        let snap = r.snapshot();
        assert_eq!(snap.per_pe.len(), 2);
        assert_eq!(snap.per_pe[0].counter(CounterId::Tasks), 11);
        assert_eq!(snap.per_pe[1].counter(CounterId::Tasks), 2);
        assert_eq!(snap.merged().counter(CounterId::Tasks), 13);
        assert_eq!(snap.counter_total(CounterId::Tasks), 13);
    }

    #[test]
    fn zero_pes_still_gets_a_shard() {
        let r = Registry::new(0);
        r.pe(7).inc(CounterId::Parks);
        assert_eq!(r.snapshot().counter_total(CounterId::Parks), 1);
    }

    #[test]
    fn spans_nest_and_drain_ordered() {
        let r = Registry::new(1);
        {
            let _cycle = r.span(0, 1, Phase::Gc, "cycle");
            let _mr = r.span(0, 1, Phase::Mr, "M_R");
            r.instant(0, 1, Phase::Mr, "marked", 42);
        }
        let evs = r.drain_events();
        assert_eq!(evs.len(), 5);
        assert_eq!(
            evs.iter().map(|e| (e.kind, e.name)).collect::<Vec<_>>(),
            vec![
                (EventKind::Begin, "cycle"),
                (EventKind::Begin, "M_R"),
                (EventKind::Instant, "marked"),
                (EventKind::End, "M_R"),
                (EventKind::End, "cycle"),
            ],
            "LIFO guard drop closes inner span first"
        );
        assert!(evs.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(evs[2].value, 42);
        assert!(r.drain_events().is_empty(), "drain clears");
    }

    #[test]
    fn flow_clocks_respect_happens_before() {
        let r = Registry::new(2);
        // PE 0 sends two flows; PE 1 receives them in order.
        r.flow_send(0, 1, Phase::Mr, "mark", 1);
        r.flow_send(0, 1, Phase::Mr, "mark", 2);
        assert_eq!(r.flows_in_flight(), 2);
        r.flow_recv(1, 1, Phase::Mr, "mark", 1);
        r.flow_recv(1, 1, Phase::Mr, "mark", 2);
        assert_eq!(r.flows_in_flight(), 0);
        let evs = r.drain_events();
        assert_eq!(evs.len(), 4);
        let sends: Vec<&Event> = evs
            .iter()
            .filter(|e| e.kind == EventKind::FlowSend)
            .collect();
        let recvs: Vec<&Event> = evs
            .iter()
            .filter(|e| e.kind == EventKind::FlowRecv)
            .collect();
        assert_eq!(sends.len(), 2);
        assert_eq!(recvs.len(), 2);
        for (s, r) in sends.iter().zip(recvs.iter()) {
            assert_eq!(s.value, r.value, "flow ids pair up");
            assert!(r.lamport > s.lamport, "delivery is after the send");
        }
    }

    #[test]
    fn flow_recv_merges_the_senders_clock() {
        let r = Registry::new(2);
        // Advance PE 0's clock well past PE 1's, then send 0 -> 1: the
        // receive must jump over the sender's clock, not just tick.
        for flow in 0..9 {
            r.flow_send(0, 0, Phase::Mr, "m", flow);
            r.flow_recv(0, 0, Phase::Mr, "m", flow);
        }
        r.flow_send(0, 0, Phase::Mr, "m", 9);
        r.flow_recv(1, 0, Phase::Mr, "m", 9);
        let evs = r.drain_events();
        let recv = evs.iter().rfind(|e| e.kind == EventKind::FlowRecv).unwrap();
        assert_eq!(recv.pe, 1);
        assert_eq!(recv.lamport, 20, "max(0, 19) + 1");
    }

    #[test]
    fn emit_writes_a_ledger_in_wire_order() {
        use crate::heap::CycleHeap;
        let r = Registry::new(2);
        let row = CycleHeap {
            cause: 1,
            bound: 64,
            live_end: 5,
            exact_bytes: 9,
            ..Default::default()
        };
        r.emit(0, 7, &row);
        let evs = r.drain_events();
        let names: Vec<&str> = evs.iter().map(|e| e.name).collect();
        let mut wire = Vec::new();
        { row }.wire(|name, _| wire.push(name));
        assert_eq!(names, wire);
        assert_eq!(evs.len(), 9);
        assert!(evs
            .iter()
            .all(|e| (e.pe, e.cycle, e.phase, e.kind) == (0, 7, Phase::Gc, EventKind::Instant)));
        assert_eq!((evs[0].value, evs[1].value, evs[2].value), (1, 64, 5));
        assert_eq!(evs[8].value, 9);
    }

    #[test]
    fn sched_clocks_ride_the_snapshot() {
        let r = Registry::new(2);
        r.sched_enter(1, SchedState::Work);
        assert_eq!(r.sched_snapshot(1).current, Some(SchedState::Work));
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.sched_enter(1, SchedState::Quiesce);
        r.sched_finish(1);
        assert_eq!(r.sched_snapshot(1).current, None);
        let snap = r.snapshot();
        let sched = snap.per_pe[1].sched();
        assert!(sched.state_ns(SchedState::Work) >= 1_000_000);
        assert_eq!(sched.total_ns(), sched.span_ns);
        assert!(snap.per_pe[0].sched().is_empty(), "PE 0 never entered");
        // The merged view adds state times across PEs.
        assert_eq!(
            snap.merged().sched().state_ns(SchedState::Work),
            sched.state_ns(SchedState::Work)
        );
    }

    #[test]
    fn gauges_and_hists_reach_snapshots() {
        let r = Registry::new(1);
        r.pe(0).gauge_set(GaugeId::DequeDepth, 3);
        r.pe(0).gauge_max(GaugeId::MailboxHighWater, 9);
        r.pe(0).gauge_max(GaugeId::MailboxHighWater, 4);
        r.pe(0).observe(HistId::BatchSize, 5);
        let m = r.snapshot().merged();
        assert_eq!(m.gauge(GaugeId::DequeDepth), 3);
        assert_eq!(m.gauge(GaugeId::MailboxHighWater), 9);
        assert_eq!(m.hist(HistId::BatchSize).count, 1);
        assert_eq!(m.hist(HistId::BatchSize).sum, 5);
    }
}
