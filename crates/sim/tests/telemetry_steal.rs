//! Telemetry primitives under real parallelism: worker threads of the
//! work-stealing runtime hammer shared counters/histograms concurrently
//! and the totals must still balance.
//!
//! The first two tests target `dgr_telemetry::metrics` directly (those
//! types are always the real atomics, regardless of the `telemetry`
//! feature); the feature-gated one goes through the feature-switched
//! registry facade via [`StealRuntime::run_observed`].

use dgr_graph::PeId;
use dgr_sim::StealRuntime;
use dgr_telemetry::metrics::{Counter, Histogram};

#[test]
fn concurrent_counter_increments_all_land() {
    let counter = Counter::new();
    let initial: Vec<_> = (0..128).map(|i| (PeId::new(i % 4), 3u64)).collect();
    let stats = StealRuntime::new(4).run(initial, |scope, hops| {
        counter.inc();
        if hops > 0 {
            let next = PeId::new((scope.me().raw() + 1) % 4);
            scope.spawn(next, hops - 1);
        }
    });
    assert_eq!(stats.executed, 128 * 4);
    assert_eq!(
        counter.get(),
        stats.executed,
        "no increment lost under contention"
    );
}

#[test]
fn concurrent_histogram_observations_balance() {
    let hist = Histogram::new();
    let initial: Vec<_> = (0..64).map(|i| (PeId::new(i % 4), u64::from(i))).collect();
    StealRuntime::new(4).run(initial, |_, v| hist.observe(v));
    let s = hist.snapshot();
    assert_eq!(s.count, 64);
    assert_eq!(s.sum, (0..64).sum::<u64>());
    assert_eq!(s.max, 63);
    assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
}

#[cfg(feature = "telemetry")]
#[test]
fn run_observed_accounts_for_every_task() {
    use dgr_telemetry::{CounterId, HeartbeatHandle, Registry};

    let telem = Registry::new(4);
    // Tasks that spawn: each keeps its last local spawn as a direct
    // continuation, which is executed but never sent.
    let chained = Counter::new();
    let initial: Vec<_> = (0..32).map(|i| (PeId::new(i % 4), 2u64)).collect();
    let stats = StealRuntime::new(4).run_observed(
        initial,
        |scope, hops| {
            if hops > 0 {
                chained.inc();
                scope.spawn(scope.me(), hops - 1);
                scope.spawn(scope.me(), hops - 1);
                let next = PeId::new((scope.me().raw() + 1) % 4);
                scope.spawn(next, 0);
            }
        },
        &telem,
        &HeartbeatHandle::new(),
    );
    let snap = telem.snapshot();
    assert_eq!(
        snap.counter_total(CounterId::Tasks),
        stats.executed,
        "per-PE task tallies sum to the runtime's own count"
    );
    assert_eq!(
        snap.counter_total(CounterId::SendsLocal) + snap.counter_total(CounterId::SendsRemote),
        stats.executed - 32 - chained.get(),
        "every non-seed task was sent through a scope or chained"
    );
    assert!(snap.counter_total(CounterId::SendsLocal) > 0);
    assert!(stats.envelopes > 0);
    assert_eq!(
        snap.counter_total(CounterId::SendsRemote),
        stats.envelopes,
        "every remote spawn crossed the mailbox grid"
    );
    assert!(
        snap.counter_total(CounterId::Batches) > 0,
        "envelopes only arrive through a mailbox drain"
    );
}

#[cfg(feature = "telemetry")]
#[test]
fn the_pulse_counts_every_executed_task() {
    use dgr_telemetry::{HeartbeatHandle, Registry};

    // Workers beat in batches and flush the rest when they run out of
    // local work, so no task is missing from the pulse at quiescence.
    for pes in [1u16, 2, 4] {
        let hb = HeartbeatHandle::new();
        let initial: Vec<_> = (0..7).map(|i| (PeId::new(i % pes), 9u64)).collect();
        let stats = StealRuntime::new(pes).run_observed(
            initial,
            |scope, n| {
                if n > 0 {
                    let next = PeId::new((scope.me().raw() + 1) % pes);
                    scope.spawn(scope.me(), n - 1);
                    scope.spawn(next, n - 1);
                }
            },
            &Registry::new(pes),
            &hb,
        );
        assert_eq!(stats.executed, 7 * ((1 << 10) - 1), "{pes} PEs");
        assert_eq!(hb.shared().progress_total(), stats.executed, "{pes} PEs");
    }
}
