//! The registry — per-PE metric shards plus per-PE event rings — and the
//! heartbeat handle drivers beat their liveness pulse through.
//!
//! Each type here is generic over a [`Switch`] defaulting to the build's
//! [`Build`] (see the crate docs): under [`Off`](crate::Off) it is
//! zero-sized and every method returns its empty value.
//!
//! Sharding: every PE writes its own shard, so hot-path updates never
//! contend. Readers merge shards at snapshot time. PEs beyond the shard
//! count wrap around (`pe % shards`), which keeps `pe()` panic-free for
//! any input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::heartbeat::Heartbeat;
use crate::ids::{CounterId, GaugeId, HistId, Phase};
use crate::ledger::Ledger;
use crate::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, PeSnapshot};
use crate::ring::{Event, EventKind, EventRing};
use crate::sched::{PeSchedSnapshot, SchedState, StateClock};
use crate::switch::Switch;
use crate::Build;

/// Default per-PE event-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The handle instrumented drivers beat their liveness pulse through: a
/// cloneable `Arc` around a concrete [`Heartbeat`], which an observer
/// (the `dgr-observe` watchdog) reads from another thread. Under
/// [`Off`](crate::Off) it is zero-sized and every beat compiles away.
#[derive(Debug, Clone)]
pub struct HeartbeatHandle<R: Switch = Build>(R::Keep<Arc<Heartbeat>>);

impl<R: Switch> Default for HeartbeatHandle<R> {
    fn default() -> Self {
        HeartbeatHandle(R::keep(Arc::default))
    }
}

impl HeartbeatHandle {
    /// A handle around a fresh heartbeat.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Switch> HeartbeatHandle<R> {
    /// Wraps an existing shared heartbeat (how an observability hub
    /// hands its pulse to a driver).
    pub fn from_shared(hb: Arc<Heartbeat>) -> Self {
        HeartbeatHandle(R::keep(|| hb))
    }

    /// The shared heartbeat behind this handle; under [`Off`](crate::Off)
    /// a fresh one that nothing beats.
    pub fn shared(&self) -> Arc<Heartbeat> {
        R::with(&self.0, None, |hb| Some(Arc::clone(hb))).unwrap_or_default()
    }

    /// Whether beats are recorded.
    pub const fn enabled(&self) -> bool {
        R::ON
    }

    /// Records that a marking phase of `cycle` entered force.
    pub fn begin_phase(&self, cycle: u32, phase: Phase) {
        R::with(&self.0, (), |hb| hb.begin_phase(cycle, phase));
    }

    /// Records that the current phase left force.
    pub fn end_phase(&self) {
        R::with(&self.0, (), |hb| hb.end_phase());
    }

    /// Records `n` more deliveries.
    pub fn progress(&self, n: u64) {
        R::with(&self.0, (), |hb| hb.progress(n));
    }

    /// Records a completed mark-and-restructure cycle.
    pub fn cycle_done(&self) {
        R::with(&self.0, (), |hb| hb.cycle_done());
    }
}

/// One PE's metrics, event ring and Lamport clock.
#[derive(Debug)]
struct Shard {
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

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| Counter::new()),
            gauges: std::array::from_fn(|_| Gauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: Mutex::new(EventRing::new(DEFAULT_RING_CAPACITY)),
            lamport: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> MutexGuard<'_, EventRing> {
        self.ring.lock().expect("telemetry ring poisoned")
    }

    fn snapshot(&self) -> PeSnapshot {
        PeSnapshot::from_parts(
            std::array::from_fn(|i| self.counters[i].get()),
            std::array::from_fn(|i| self.gauges[i].get()),
            std::array::from_fn(|i| self.hists[i].snapshot()),
        )
    }
}

/// One PE's metrics, as [`Registry::pe`] hands them out.
#[derive(Debug)]
pub struct PeShard<'a, R: Switch = Build>(R::Keep<&'a Shard>);

impl<R: Switch> PeShard<'_, R> {
    /// Adds one to a counter.
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, id: CounterId, n: u64) {
        R::with(&self.0, (), |s| s.counters[id.index()].add(n));
    }

    /// Overwrites a gauge.
    pub fn gauge_set(&self, id: GaugeId, v: i64) {
        R::with(&self.0, (), |s| s.gauges[id.index()].set(v));
    }

    /// Raises a gauge to `v` if larger.
    pub fn gauge_max(&self, id: GaugeId, v: i64) {
        R::with(&self.0, (), |s| s.gauges[id.index()].raise(v));
    }

    /// Records a histogram observation.
    pub fn observe(&self, id: HistId, v: u64) {
        R::with(&self.0, (), |s| s.hists[id.index()].observe(v));
    }
}

/// What a recording [`Registry`] keeps.
#[derive(Debug)]
struct Live {
    shards: Box<[Shard]>,
    /// Per-PE scheduler state clocks (one slot per shard).
    sched: StateClock,
    t0: Instant,
    /// Sender Lamport clock of every flow sent but not yet delivered —
    /// the receive side merges it and removes the entry, so what remains
    /// is exactly the in-flight set.
    flows: Mutex<HashMap<u64, u64>>,
}

impl Live {
    fn shard(&self, pe: u16) -> &Shard {
        &self.shards[pe as usize % self.shards.len()]
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn flows(&self) -> MutexGuard<'_, HashMap<u64, u64>> {
        self.flows.lock().expect("telemetry flow map poisoned")
    }
}

/// The metrics/tracing registry: per-PE shards behind a shared reference.
#[derive(Debug)]
pub struct Registry<R: Switch = Build>(R::Keep<Live>);

impl Registry {
    /// A registry of the build's switch with one shard per PE.
    pub fn new(num_pes: u16) -> Self {
        Self::with_pes(num_pes)
    }
}

impl<R: Switch> Registry<R> {
    /// A registry with one shard per PE (at least one) and the default
    /// ring capacity.
    pub fn with_pes(num_pes: u16) -> Self {
        Registry(R::keep(|| {
            let n = (num_pes as usize).max(1);
            Live {
                shards: (0..n).map(|_| Shard::new()).collect(),
                sched: StateClock::new(n),
                t0: Instant::now(),
                flows: Mutex::default(),
            }
        }))
    }

    /// Whether this registry records.
    pub const fn enabled(&self) -> bool {
        R::ON
    }

    /// The shard for a PE (wrapping beyond the shard count).
    pub fn pe(&self, pe: u16) -> PeShard<'_, R> {
        PeShard(R::map(&self.0, |s| s.shard(pe)))
    }

    /// Microseconds since the registry was created (0 under `Off`).
    pub fn now_us(&self) -> u64 {
        R::with(&self.0, 0, Live::now_us)
    }

    /// Transitions PE `pe`'s scheduler state clock into `state`. Entering
    /// the state already in force is free; see [`StateClock::enter`].
    pub fn sched_enter(&self, pe: u16, state: SchedState) {
        R::with(&self.0, (), |s| s.sched.enter(pe, state));
    }

    /// Closes PE `pe`'s state-clock episode, charging the in-force state
    /// up to now.
    pub fn sched_finish(&self, pe: u16) {
        R::with(&self.0, (), |s| s.sched.finish(pe));
    }

    /// One PE's state-clock snapshot (also embedded per PE in
    /// [`Registry::snapshot`]).
    pub fn sched_snapshot(&self, pe: u16) -> PeSchedSnapshot {
        R::with(&self.0, PeSchedSnapshot::default(), |s| {
            s.sched.snapshot_pe(pe)
        })
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
        R::with(&self.0, (), |s| {
            s.shard(pe).ring().push(Event {
                ts_us: s.now_us(),
                pe,
                cycle,
                phase,
                kind,
                name,
                value,
                lamport: 0,
            })
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
    pub fn span(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str) -> SpanGuard<'_, R> {
        self.begin(pe, cycle, phase, name);
        SpanGuard(R::map(&self.0, |_| (self, pe, cycle, phase, name)))
    }

    /// Records a message leaving PE `pe` under an externally chosen flow
    /// id (a simulator sequence number, say). Ticks the PE's Lamport
    /// clock and remembers it for the matching [`Registry::flow_recv`].
    pub fn flow_send(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str, flow: u64) {
        R::with(&self.0, (), |s| {
            let shard = s.shard(pe);
            let lamport = shard.lamport.fetch_add(1, Ordering::Relaxed) + 1;
            s.flows().insert(flow, lamport);
            shard.ring().push(Event {
                ts_us: s.now_us(),
                pe,
                cycle,
                phase,
                kind: EventKind::FlowSend,
                name,
                value: flow,
                lamport,
            })
        });
    }

    /// Records the delivery of flow `flow` on PE `pe`, closing the
    /// happens-before edge: the receiver's Lamport clock becomes
    /// `max(local, sender) + 1`. Unknown flow ids (the send was recorded
    /// before the registry existed, or never) merge against 0.
    pub fn flow_recv(&self, pe: u16, cycle: u32, phase: Phase, name: &'static str, flow: u64) {
        R::with(&self.0, (), |s| {
            let sent = s.flows().remove(&flow).unwrap_or(0);
            let shard = s.shard(pe);
            shard.lamport.fetch_max(sent, Ordering::Relaxed);
            let lamport = shard.lamport.fetch_add(1, Ordering::Relaxed) + 1;
            shard.ring().push(Event {
                ts_us: s.now_us(),
                pe,
                cycle,
                phase,
                kind: EventKind::FlowRecv,
                name,
                value: flow,
                lamport,
            })
        });
    }

    /// Number of flows sent but not yet delivered.
    pub fn flows_in_flight(&self) -> usize {
        R::with(&self.0, 0, |s| s.flows().len())
    }

    /// Copies every shard's metrics out, each with its PE's scheduler
    /// state clock attached.
    pub fn snapshot(&self) -> MetricsSnapshot {
        R::with(&self.0, MetricsSnapshot::default(), |s| MetricsSnapshot {
            per_pe: (s.shards.iter().enumerate())
                .map(|(i, shard)| {
                    let mut snap = shard.snapshot();
                    snap.set_sched(s.sched.snapshot_pe(i as u16));
                    snap
                })
                .collect(),
        })
    }

    /// Removes and returns all buffered events, stably sorted by
    /// timestamp (ties keep per-shard insertion order, so a single PE's
    /// begin/end nesting survives equal timestamps).
    pub fn drain_events(&self) -> Vec<Event> {
        R::with(&self.0, Vec::new(), |s| {
            let mut out: Vec<Event> = s.shards.iter().flat_map(|sh| sh.ring().drain()).collect();
            out.sort_by_key(|e| e.ts_us);
            out
        })
    }

    /// Total events lost to ring wraparound so far.
    pub fn dropped_events(&self) -> u64 {
        R::with(&self.0, 0, |s| {
            s.shards.iter().map(|sh| sh.ring().dropped()).sum()
        })
    }
}

/// What a [`SpanGuard`] closes: the registry and the span's key.
type Span<'a, R> = (&'a Registry<R>, u16, u32, Phase, &'static str);

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a, R: Switch = Build>(R::Keep<Span<'a, R>>);

impl<R: Switch> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        R::with(&self.0, (), |&(reg, pe, cycle, phase, name)| {
            reg.end(pe, cycle, phase, name)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::On;

    type Registry = super::Registry<On>;

    #[test]
    fn shards_wrap_and_merge() {
        let r = Registry::with_pes(2);
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
        let r = Registry::with_pes(0);
        r.pe(7).inc(CounterId::Parks);
        assert_eq!(r.snapshot().counter_total(CounterId::Parks), 1);
    }

    #[test]
    fn spans_nest_and_drain_ordered() {
        let r = Registry::with_pes(1);
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
        let r = Registry::with_pes(2);
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
        let r = Registry::with_pes(2);
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
        let r = Registry::with_pes(2);
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
        let r = Registry::with_pes(2);
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
        let r = Registry::with_pes(1);
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
