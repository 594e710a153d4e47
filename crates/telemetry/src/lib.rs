//! dgr-telemetry: zero-dependency tracing, metrics and marking-cycle
//! timelines for the distributed-reduction runtime.
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
//! * **Cycle reports** ([`cycle`]): one [`CycleReport`] per marking
//!   cycle — phase durations, local/remote traffic, backlog high-water,
//!   per-priority marked counts, census and reclaim tallies — with
//!   plain-text and JSON timeline renderers.
//!
//! # The `telemetry` feature
//!
//! Instrumentation sites hold a [`Registry`] (usually by reference) and
//! call it unconditionally. With the `telemetry` feature **on**, that
//! alias is [`active::Registry`] and everything records. With it **off**
//! (the default), the alias is [`noop::Registry`]: a zero-sized type
//! whose methods are empty `#[inline(always)]` bodies, so the calls
//! compile away and the hot loops carry no telemetry atomics at all —
//! `noop::tests::noop_types_are_zero_sized` pins this at the type layer.
//!
//! Both implementations are always compiled and tested; the feature only
//! switches which one the root re-export names. Code that needs the real
//! registry regardless of features (e.g. a bench binary) can use
//! [`active::Registry`] by its full path.

pub mod active;
pub mod cycle;
pub mod flight;
pub mod heap;
pub mod heartbeat;
pub mod ids;
pub mod ledger;
pub mod lifecycle;
pub mod metrics;
pub mod noop;
pub mod ring;
pub mod sched;
pub mod trace;

pub use cycle::{timeline_json, timeline_text, CycleReport};
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

#[cfg(feature = "telemetry")]
pub use active::{HeartbeatHandle, PeShard, Registry, SpanGuard};
#[cfg(feature = "telemetry")]
pub use heap::Tracker as HeapTracker;
#[cfg(feature = "telemetry")]
pub use lifecycle::Tracker as LifecycleTracker;

#[cfg(not(feature = "telemetry"))]
pub use noop::HeapTracker;
#[cfg(not(feature = "telemetry"))]
pub use noop::LifecycleTracker;
#[cfg(not(feature = "telemetry"))]
pub use noop::{HeartbeatHandle, PeShard, Registry, SpanGuard};

/// `true` when this build records telemetry (the `telemetry` feature is
/// on), `false` when [`Registry`] is the zero-sized no-op.
pub const TELEMETRY_ENABLED: bool = cfg!(feature = "telemetry");

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
}
