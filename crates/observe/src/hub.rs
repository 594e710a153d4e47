//! The shared state the live plane serves: drivers and harnesses
//! *publish* into an [`ObserveHub`]; the HTTP server and the watchdog
//! *read* from it on their own threads.
//!
//! Publishing is push-based on purpose: the GC driver and the reduction
//! system are `!Sync` by design, so the scrape path can never reach into
//! them. Instead the driving loop copies out cheap snapshots (a
//! [`MetricsSnapshot`] is a few arrays; the census and the GC totals are
//! `dgr-gc`'s own [`TaskCensus`] and [`GcStats`]) once per cycle, and the
//! drivers beat the hub's [`Heartbeat`] through the zero-cost
//! `HeartbeatHandle` facade.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dgr_gc::{GcStats, TaskCensus};
use dgr_telemetry::heartbeat::Heartbeat;
use dgr_telemetry::{Event, HeapSnapshot, HeartbeatHandle, LifecycleSnapshot, MetricsSnapshot};

/// Bound on the event tail kept for watchdog flight dumps.
pub const EVENT_TAIL_CAP: usize = 4096;

/// Health as the watchdog last judged it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Health {
    /// Steady state.
    #[default]
    Ok,
    /// The watchdog saw a stall or a runaway; the string says which.
    Degraded(String),
}

impl Health {
    /// `true` in steady state.
    pub fn is_ok(&self) -> bool {
        matches!(self, Health::Ok)
    }
}

/// The shared state behind the live plane: one per exported process.
#[derive(Debug)]
pub struct ObserveHub {
    t0: Instant,
    heartbeat: Arc<Heartbeat>,
    metrics: Mutex<MetricsSnapshot>,
    census: Mutex<TaskCensus>,
    gc: Mutex<GcStats>,
    lifecycle: Mutex<LifecycleSnapshot>,
    heap: Mutex<HeapSnapshot>,
    dot: Mutex<String>,
    events: Mutex<VecDeque<Event>>,
    health: Mutex<Health>,
    incidents: AtomicU64,
    scrapes: AtomicU64,
    shutdown: AtomicBool,
}

impl Default for ObserveHub {
    fn default() -> Self {
        ObserveHub::new()
    }
}

impl ObserveHub {
    /// A fresh hub with an idle heartbeat and empty snapshots.
    pub fn new() -> Self {
        ObserveHub {
            t0: Instant::now(),
            heartbeat: Arc::new(Heartbeat::new()),
            metrics: Mutex::new(MetricsSnapshot::default()),
            census: Mutex::new(TaskCensus::default()),
            gc: Mutex::new(GcStats::default()),
            lifecycle: Mutex::new(LifecycleSnapshot::default()),
            heap: Mutex::new(HeapSnapshot::default()),
            dot: Mutex::new(String::new()),
            events: Mutex::new(VecDeque::new()),
            health: Mutex::new(Health::Ok),
            incidents: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Seconds this hub has been alive.
    pub fn uptime_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The concrete shared pulse (what the watchdog polls).
    pub fn heartbeat(&self) -> &Arc<Heartbeat> {
        &self.heartbeat
    }

    /// A facade handle on this hub's pulse, for wiring into drivers
    /// (`GcDriver::attach_heartbeat`, `StealRuntime::run_observed`).
    /// Zero-sized — and silent — in a default (no-`telemetry`) build.
    pub fn heartbeat_handle(&self) -> HeartbeatHandle {
        HeartbeatHandle::from_shared(Arc::clone(&self.heartbeat))
    }

    /// Publishes the latest metrics snapshot (replaces the previous one).
    pub fn publish_metrics(&self, snap: MetricsSnapshot) {
        *self.metrics.lock().expect("hub metrics poisoned") = snap;
    }

    /// The most recently published metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.lock().expect("hub metrics poisoned").clone()
    }

    /// Publishes the latest task census (`CycleReport::census` of the
    /// newest cycle).
    pub fn publish_census(&self, census: TaskCensus) {
        *self.census.lock().expect("hub census poisoned") = census;
    }

    /// The most recently published census.
    pub fn census(&self) -> TaskCensus {
        *self.census.lock().expect("hub census poisoned")
    }

    /// Publishes aggregate GC progress: the totals over every cycle the
    /// exported process ran.
    pub fn publish_gc(&self, gc: GcStats) {
        *self.gc.lock().expect("hub gc poisoned") = gc;
    }

    /// The most recently published GC progress.
    pub fn gc(&self) -> GcStats {
        *self.gc.lock().expect("hub gc poisoned")
    }

    /// Publishes the latest vertex-lifecycle snapshot
    /// (`GcDriver::lifecycle_snapshot`, copied out once per cycle like
    /// the metrics snapshot).
    pub fn publish_lifecycle(&self, snap: LifecycleSnapshot) {
        *self.lifecycle.lock().expect("hub lifecycle poisoned") = snap;
    }

    /// The most recently published lifecycle snapshot.
    pub fn lifecycle(&self) -> LifecycleSnapshot {
        self.lifecycle
            .lock()
            .expect("hub lifecycle poisoned")
            .clone()
    }

    /// Publishes the latest heap snapshot (`System::heap_snapshot`,
    /// copied out once per cycle like the metrics snapshot).
    pub fn publish_heap(&self, snap: HeapSnapshot) {
        *self.heap.lock().expect("hub heap poisoned") = snap;
    }

    /// The most recently published heap snapshot.
    pub fn heap(&self) -> HeapSnapshot {
        self.heap.lock().expect("hub heap poisoned").clone()
    }

    /// Publishes a bounded DOT snapshot of the live graph.
    pub fn publish_dot(&self, dot: String) {
        *self.dot.lock().expect("hub dot poisoned") = dot;
    }

    /// The most recently published DOT snapshot (empty until one is
    /// published).
    pub fn dot(&self) -> String {
        self.dot.lock().expect("hub dot poisoned").clone()
    }

    /// Appends drained events to the bounded tail kept for flight dumps
    /// (oldest dropped beyond [`EVENT_TAIL_CAP`]).
    pub fn publish_events(&self, events: Vec<Event>) {
        let mut tail = self.events.lock().expect("hub events poisoned");
        for e in events {
            if tail.len() == EVENT_TAIL_CAP {
                tail.pop_front();
            }
            tail.push_back(e);
        }
    }

    /// A copy of the retained event tail, oldest first.
    pub fn event_tail(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("hub events poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// The current health verdict.
    pub fn health(&self) -> Health {
        self.health.lock().expect("hub health poisoned").clone()
    }

    /// Overwrites the health verdict (the watchdog's job). Returns the
    /// previous verdict so the caller can detect transitions.
    pub fn set_health(&self, h: Health) -> Health {
        let mut g = self.health.lock().expect("hub health poisoned");
        std::mem::replace(&mut *g, h)
    }

    /// Watchdog incidents so far (healthy → degraded transitions).
    pub fn incidents(&self) -> u64 {
        self.incidents.load(Ordering::Relaxed)
    }

    /// Records one watchdog incident.
    pub fn record_incident(&self) {
        self.incidents.fetch_add(1, Ordering::Relaxed);
    }

    /// Scrapes served so far (any endpoint).
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Records one served scrape.
    pub fn record_scrape(&self) {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
    }

    /// `true` once [`ObserveHub::request_shutdown`] ran: the server's
    /// accept loop and the watchdog's poll loop exit on seeing it.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Asks every thread reading this hub to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_read_round_trip() {
        let hub = ObserveHub::new();
        assert!(hub.health().is_ok());
        assert_eq!(hub.census().total(), 0);
        hub.publish_census(TaskCensus {
            vital: 1,
            eager: 2,
            reserve: 3,
            irrelevant: 4,
            dangling: 0,
        });
        assert_eq!(hub.census().total(), 10);
        hub.publish_gc(GcStats {
            cycles: 7,
            ..Default::default()
        });
        assert_eq!(hub.gc().cycles, 7);
        hub.publish_dot("digraph g {}".into());
        assert_eq!(hub.dot(), "digraph g {}");
        let prev = hub.set_health(Health::Degraded("stall".into()));
        assert!(prev.is_ok());
        assert!(!hub.health().is_ok());
        assert!(hub.uptime_s() >= 0.0);
    }

    #[test]
    fn event_tail_is_bounded() {
        use dgr_telemetry::{EventKind, Phase};
        let hub = ObserveHub::new();
        let ev = |i: u64| Event {
            ts_us: i,
            pe: 0,
            cycle: 0,
            phase: Phase::Gc,
            kind: EventKind::Instant,
            name: "x",
            value: i,
            lamport: 0,
        };
        hub.publish_events((0..EVENT_TAIL_CAP as u64 + 10).map(ev).collect());
        let tail = hub.event_tail();
        assert_eq!(tail.len(), EVENT_TAIL_CAP);
        assert_eq!(tail[0].value, 10, "oldest events dropped first");
    }

    #[test]
    fn heartbeat_handle_reaches_the_shared_pulse_iff_enabled() {
        let hub = ObserveHub::new();
        let handle = hub.heartbeat_handle();
        handle.progress(5);
        let expected = if handle.enabled() { 5 } else { 0 };
        assert_eq!(hub.heartbeat().progress_total(), expected);
    }
}
