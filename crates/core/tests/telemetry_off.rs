//! Pins the zero-cost contract of the default build: without the
//! `telemetry` feature, the registry the marking hot loops are compiled
//! against is a zero-sized no-op, so instrumentation can hide no atomics
//! (or any state at all) behind the calls in `run_pass` and the threaded
//! mark loop. The recording counterparts run on the `On` instantiation in
//! every build; only the instrumented pass, which takes the build's
//! registry, needs the feature to check the same sites do record.

use dgr_core::driver::{run_mark1_with, MarkRunConfig};
use dgr_graph::{GraphStore, NodeLabel};
use dgr_telemetry::{
    CounterId, HeapTracker, HeartbeatHandle, LifecycleTracker, On, Phase, Registry, SchedState,
    TriggerCause,
};

fn chain(n: i64) -> GraphStore {
    let mut g = GraphStore::with_capacity(n as usize);
    let ids: Vec<_> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
        .collect();
    for w in ids.windows(2) {
        g.connect(w[0], w[1]);
    }
    g.set_root(ids[0]);
    g
}

#[cfg(not(feature = "telemetry"))]
mod feature_off {
    use super::*;

    /// The registry type the mark hot loop was compiled against is
    /// zero-sized — the type-layer proof that a default build carries no
    /// telemetry atomics in the hot path.
    #[test]
    fn registry_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Registry>(), 0);
        assert_eq!(std::mem::size_of::<dgr_telemetry::PeShard<'_>>(), 0);
        assert_eq!(std::mem::size_of::<dgr_telemetry::SpanGuard<'_>>(), 0);
    }

    /// The heartbeat handle drivers hold (`GcDriver::attach_heartbeat`,
    /// the observed threaded entry points) is zero-sized and silent:
    /// beating it never reaches the shared pulse it was built from.
    #[test]
    fn heartbeat_handle_is_zero_sized_and_silent() {
        use dgr_telemetry::heartbeat::Heartbeat;
        assert_eq!(std::mem::size_of::<HeartbeatHandle>(), 0);
        let pulse = std::sync::Arc::new(Heartbeat::new());
        let handle: HeartbeatHandle = HeartbeatHandle::from_shared(std::sync::Arc::clone(&pulse));
        assert!(!handle.enabled());
        handle.begin_phase(1, Phase::Mr);
        handle.progress(10);
        handle.end_phase();
        handle.cycle_done();
        assert_eq!(pulse.beats(), 0, "no beat reached the shared pulse");
        assert_eq!(pulse.progress_total(), 0);
        assert_eq!(handle.shared().beats(), 0, "it shares a fresh pulse");
    }

    /// The lifecycle tracker collectors thread through their reclaim
    /// paths is zero-sized and silent: census, reclaim and meter calls
    /// vanish, and a closed cycle reports the default ledger.
    #[test]
    fn lifecycle_tracker_is_zero_sized_and_silent() {
        use dgr_telemetry::CycleLifecycle;
        assert_eq!(std::mem::size_of::<LifecycleTracker>(), 0);
        let mut lc = LifecycleTracker::new();
        assert!(!lc.enabled());
        lc.begin_cycle(3);
        lc.garbage_vertex(7);
        lc.reclaim_vertex(7);
        lc.meter_msgs(10, 20, 60);
        assert_eq!(lc.end_cycle(), CycleLifecycle::default());
        assert!(lc.snapshot().is_empty());
        assert!(lc.worst_floaters(4).is_empty());
    }

    /// The heap tracker the reduction system stamps allocation traffic
    /// through is zero-sized and silent: alloc/free, trigger
    /// tallies and cycle closes all vanish, and a closed cycle reports
    /// the default ledger.
    #[test]
    fn heap_tracker_is_zero_sized_and_silent() {
        use dgr_telemetry::CycleHeap;
        assert_eq!(std::mem::size_of::<HeapTracker>(), 0);
        let mut hp = HeapTracker::new(4);
        assert!(!hp.enabled());
        hp.alloc(0, 7, 64);
        hp.free(0, 7, 64);
        hp.record_trigger(TriggerCause::HeapBytes);
        hp.begin_episode();
        assert_eq!(hp.close_cycle(1), CycleHeap::default());
        assert_eq!(hp.live_bytes(), 0);
        assert_eq!(hp.peak_bytes(), 0);
        assert!(hp.snapshot().is_empty());
    }

    #[test]
    fn instrumented_pass_records_nothing() {
        let telem = Registry::new(4);
        let mut g = chain(32);
        let stats = run_mark1_with(&mut g, &MarkRunConfig::default(), &telem);
        assert_eq!(stats.marked, 32, "marking itself is unaffected");
        assert_eq!(telem.snapshot().counter_total(CounterId::MarkEvents), 0);
        assert!(telem.drain_events().is_empty());
        assert_eq!(telem.flows_in_flight(), 0, "flow bookkeeping is a no-op");
    }

    /// The scheduler state clock is silent feature-off: transitions read
    /// no clock, charge no bucket, and report no state — the steal
    /// runtime's per-iteration `sched_enter` calls compile away.
    #[test]
    fn state_clock_records_nothing() {
        let telem = Registry::new(4);
        telem.sched_enter(0, SchedState::Work);
        telem.sched_enter(0, SchedState::Park);
        assert_eq!(
            telem.sched_snapshot(0).current,
            None,
            "no state is ever in force"
        );
        telem.sched_finish(0);
        assert!(telem.sched_snapshot(0).is_empty());
        let snap = telem.snapshot();
        assert!(snap.per_pe.is_empty(), "noop snapshot has no shards");
        assert_eq!(snap.merged().sched().total_ns(), 0);
        assert_eq!(snap.merged().sched().span_ns, 0);
    }
}

/// The same handle API on `On`: every beat reaches the shared pulse a
/// watchdog would poll.
#[test]
fn heartbeat_handle_reaches_the_shared_pulse() {
    let handle = HeartbeatHandle::<On>::default();
    assert!(handle.enabled());
    handle.begin_phase(2, Phase::Mr);
    handle.progress(10);
    handle.end_phase();
    handle.cycle_done();
    let pulse = handle.shared();
    assert_eq!(pulse.beats(), 3, "begin + end + cycle_done");
    assert_eq!(pulse.progress_total(), 10);
    assert_eq!(pulse.cycle(), 2);
    assert_eq!(pulse.phase(), None, "back to idle after end_phase");
}

/// The same state-clock API on `On`: transitions charge buckets and the
/// per-PE clock rides the metrics snapshot.
#[test]
fn state_clock_records_time() {
    let telem = Registry::<On>::with_pes(2);
    telem.sched_enter(1, SchedState::Work);
    assert_eq!(telem.sched_snapshot(1).current, Some(SchedState::Work));
    std::thread::sleep(std::time::Duration::from_millis(1));
    telem.sched_finish(1);
    let sched = *telem.snapshot().per_pe[1].sched();
    assert!(sched.state_ns(SchedState::Work) >= 1_000_000);
    assert_eq!(
        sched.total_ns(),
        sched.span_ns,
        "a finished episode accounts for its whole span"
    );
}

/// The same tracker API on `On`: a census stamp turns into an exact
/// latency at reclaim.
#[test]
fn lifecycle_tracker_records_exact_latencies() {
    let mut lc = LifecycleTracker::<On>::default();
    assert!(lc.enabled());
    lc.begin_cycle(1);
    lc.garbage_vertex(7);
    lc.end_cycle();
    lc.begin_cycle(4);
    lc.garbage_vertex(7);
    lc.reclaim_vertex(7);
    let led = lc.end_cycle();
    assert_eq!(led.reclaimed, 1);
    assert_eq!(led.exact, 1);
    assert_eq!(led.latency_sum, 3, "stamped at cycle 1, freed at 4");
    let s = lc.snapshot();
    assert_eq!(s.latency_max, 3);
    assert_eq!(s.float_now, 0);
}

/// The same tracker API on `On`: an allocation stamps its byte weight,
/// the clocks move, and the eventual free is exact.
#[test]
fn heap_tracker_records_exact_byte_traffic() {
    let mut hp = HeapTracker::<On>::with_pes(2);
    assert!(hp.enabled());
    hp.alloc(1, 7, 64);
    assert_eq!(hp.live_bytes(), 64);
    assert_eq!(hp.peak_bytes(), 64);
    hp.free(1, 7, 64);
    hp.record_trigger(TriggerCause::HeapBytes);
    let cy = hp.close_cycle(1);
    assert_eq!(cy.exact_bytes, 64, "the free matched the stamp");
    assert_eq!(cy.peak, 64);
    assert_eq!(cy.live_end, 0);
    let s = hp.snapshot();
    assert_eq!(s.alloc_bytes, 64);
    assert_eq!(s.per_pe[1].peak, 64);
    assert_eq!(s.trigger_heap, 1);
}

#[cfg(feature = "telemetry")]
mod feature_on {
    use super::*;

    #[test]
    fn instrumented_pass_records_events_and_counters() {
        let telem = Registry::new(4);
        let mut g = chain(32);
        let stats = run_mark1_with(&mut g, &MarkRunConfig::default(), &telem);
        assert_eq!(
            telem.snapshot().counter_total(CounterId::MarkEvents),
            stats.events,
            "every delivered marking event was counted"
        );
        let events = telem.drain_events();
        assert!(
            events.iter().any(|e| e.name == "M_R"),
            "the pass span was recorded"
        );
        let sends = events
            .iter()
            .filter(|e| e.kind == dgr_telemetry::EventKind::FlowSend)
            .count();
        let recvs = events
            .iter()
            .filter(|e| e.kind == dgr_telemetry::EventKind::FlowRecv)
            .count();
        assert!(sends > 0, "marking traffic was flow-stamped");
        assert_eq!(sends, recvs, "every stamped send was resolved");
        assert_eq!(telem.flows_in_flight(), 0, "no flow left open");
    }

    /// A threaded pass's per-PE mark-event counters sum to its message
    /// count, duplicate visits settled at the spawn site included.
    #[test]
    fn threaded_pass_counts_every_message() {
        use dgr_core::threaded::{reset_shared_r, run_mark1_shared_observed};
        use dgr_graph::{PartitionStrategy, VertexId};
        use dgr_sim::SharedGraph;

        // A chain with arcs back to every earlier third vertex: plenty of
        // vertices with several parents.
        let mut g = chain(300);
        for i in 1..300u32 {
            g.connect(VertexId::new(i), VertexId::new(i / 3 * 3));
        }
        let shared = SharedGraph::from_store(g);
        for pes in [1u16, 2] {
            reset_shared_r(&shared);
            let telem = Registry::new(pes);
            let stats = run_mark1_shared_observed(
                &shared,
                pes,
                PartitionStrategy::Block,
                &telem,
                &HeartbeatHandle::new(),
            );
            assert_eq!(
                telem.snapshot().counter_total(CounterId::MarkEvents),
                stats.messages,
                "{pes} PEs"
            );
        }
    }
}
