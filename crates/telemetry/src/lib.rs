//! dgr-telemetry: zero-dependency tracing and metrics for the
//! distributed-reduction runtime.
//!
//! The crate has three layers:
//!
//! * **Metrics** ([`metrics`], [`ids`]): a closed enum of counters,
//!   gauges and fixed-bucket histograms behind per-PE shards. A hot-path
//!   update is one array index plus one relaxed atomic op — no hashing,
//!   no locking, no allocation.
//! * **Events** ([`ring`], [`trace`]): span begin/end and instant events
//!   (PE, cycle, phase tag, value) in a fixed-capacity overwrite-oldest
//!   ring per PE, drained to JSON Lines or Chrome `trace_event` format.
//! * **Ledgers** ([`ledger`], [`heap`], [`lifecycle`], [`sched`]): the
//!   per-cycle and per-pass records the trackers close, each written to
//!   the event stream as one instant per field. (The GC driver's own
//!   per-cycle record, phase durations included, is `dgr_gc::CycleReport`.)
//!
//! # The `telemetry` feature
//!
//! Instrumentation sites hold a [`Registry`] (usually by reference) and
//! call it unconditionally. Each facade type — [`Registry`], [`PeShard`],
//! [`SpanGuard`], [`HeartbeatHandle`], [`HeapTracker`], [`LifecycleTracker`]
//! — is defined once, generic over a [`Switch`]: [`On`] keeps the state
//! and records; [`Off`] keeps `()`, so the type is zero-sized, every
//! method's body ([`Switch::with`]) is skipped for its empty value, and
//! the hot loops carry no telemetry atomics at all
//! (`tests::off_types_are_zero_sized`). The
//! default parameter is [`Build`], the one place the feature is read:
//! [`On`] with it **on**, [`Off`] (the default) without. Code that must
//! record in any build names `On`: `Registry::<On>::with_pes(n)`.

pub mod active;
pub mod flight;
pub mod heap;
pub mod heartbeat;
pub mod ids;
pub mod ledger;
pub mod lifecycle;
pub mod metrics;
pub mod ring;
pub mod sched;
pub mod switch;
pub mod trace;

pub use flight::{flight_json, flight_path, write_flight, FLIGHT_DIR_ENV};
pub use heap::{CycleHeap, HeapSnapshot, PeHeap, TriggerCause};
pub use heartbeat::Heartbeat;
pub use ids::{CounterId, GaugeId, HistId, Phase};
pub use ledger::Ledger;
pub use lifecycle::{CycleLifecycle, Floater, LifecycleSnapshot};
pub use metrics::{
    bucket_index, bucket_label, bucket_lower_edge, bucket_upper_edge, HistSnapshot,
    MetricsSnapshot, PeSnapshot, HIST_BUCKETS,
};
pub use ring::{Event, EventKind};
pub use sched::{PeSchedSnapshot, SchedState, StateClock};
pub use trace::{chrome_trace_json, events_jsonl, json_escape};

pub use active::{HeartbeatHandle, PeShard, Registry, SpanGuard};
pub use heap::Tracker as HeapTracker;
pub use lifecycle::Tracker as LifecycleTracker;
pub use switch::{Off, On, Switch};

/// The switch every facade type defaults to: the `telemetry` feature is on.
#[cfg(feature = "telemetry")]
pub type Build = On;
/// The switch every facade type defaults to: the `telemetry` feature is off.
#[cfg(not(feature = "telemetry"))]
pub type Build = Off;

/// `true` when this build records telemetry (the `telemetry` feature is
/// on), `false` when every facade type defaults to [`Off`].
pub const TELEMETRY_ENABLED: bool = Build::ON;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_matches_the_feature() {
        let r = Registry::new(2);
        assert_eq!(r.enabled(), TELEMETRY_ENABLED);
        r.pe(0).inc(CounterId::Tasks);
        let total = r.snapshot().counter_total(CounterId::Tasks);
        assert_eq!(total, if TELEMETRY_ENABLED { 1 } else { 0 });
    }

    /// The type-layer guarantee a default build relies on: under `Off`
    /// every facade type occupies zero bytes, so no atomics (or any state
    /// at all) can hide behind an instrumentation call compiled against
    /// it — in every build, not only the one where `Off` is the default.
    #[test]
    fn off_types_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Registry<Off>>(), 0);
        assert_eq!(std::mem::size_of::<PeShard<'_, Off>>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard<'_, Off>>(), 0);
        assert_eq!(std::mem::size_of::<HeartbeatHandle<Off>>(), 0);
        assert_eq!(std::mem::size_of::<LifecycleTracker<Off>>(), 0);
        assert_eq!(std::mem::size_of::<HeapTracker<Off>>(), 0);
    }

    #[test]
    fn off_registry_observes_nothing() {
        let r = Registry::<Off>::with_pes(4);
        assert!(!r.enabled());
        r.pe(0).inc(CounterId::MarkEvents);
        r.pe(1).add(CounterId::SendsRemote, 10);
        r.pe(2).gauge_max(GaugeId::MailboxHighWater, 9);
        r.pe(2).observe(HistId::BatchSize, 3);
        r.begin(0, 1, Phase::Mr, "M_R");
        r.instant(0, 1, Phase::Mr, "marked", 7);
        r.end(0, 1, Phase::Mr, "M_R");
        drop(r.span(0, 1, Phase::Gc, "cycle"));
        r.emit(0, 1, &CycleHeap::default());
        r.flow_send(0, 1, Phase::Mt, "mark", 7);
        r.flow_recv(1, 1, Phase::Mt, "mark", 7);
        r.sched_enter(0, SchedState::Work);
        r.sched_finish(0);
        assert!(r.sched_snapshot(0).is_empty());
        assert!(r.snapshot().per_pe.is_empty());
        assert_eq!(r.flows_in_flight(), 0);
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
        assert_eq!(r.now_us(), 0);
    }
}
