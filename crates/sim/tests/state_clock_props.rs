//! Property tests for the per-PE scheduler state clock.
//!
//! The clock's contract is exact accounting: a worker that entered the
//! scheduler and finished has charged **every** nanosecond between its
//! first enter and its last transition to exactly one state, so the
//! per-state durations sum to the episode span, and the span fits
//! inside the wall-clock window the caller observed around the run.
//! Both halves are feature-dependent by construction: a default build
//! routes the same calls to the zero-sized no-op registry, which must
//! record nothing — CI runs this file in both feature states.

use dgr_graph::PeId;
use dgr_sim::steal::StealRuntime;
use dgr_telemetry::{HeartbeatHandle, Registry};
use proptest::prelude::*;

/// Drives a fan-out workload through the work-stealing runtime with an
/// explicit (fresh) registry and returns the observed wall-clock window
/// in nanoseconds. Tasks with depth > 0 spawn two children on the next
/// PE, so every PE sees traffic and idle PEs get to steal.
fn run_workload(telem: &Registry, num_pes: u16, seeds: u16, depth: u64) -> u64 {
    let rt = StealRuntime::new(num_pes);
    let initial: Vec<(PeId, u64)> = (0..seeds)
        .map(|i| (PeId::new(i % num_pes), depth))
        .collect();
    let start = std::time::Instant::now();
    rt.run_observed(
        initial,
        |scope, d| {
            if d > 0 {
                let next = PeId::new((scope.me().raw() + 1) % num_pes);
                scope.spawn(next, d - 1);
                scope.spawn(scope.me(), d - 1);
            }
        },
        telem,
        &HeartbeatHandle::new(),
    );
    u64::try_from(start.elapsed().as_nanos()).expect("test runs are short")
}

#[cfg(feature = "telemetry")]
mod with_feature {
    use super::*;
    use dgr_telemetry::SchedState;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every PE's finished episode satisfies the exact-sum invariant
        /// (state durations sum to the span with **zero** tolerance) and
        /// the span fits in the caller's wall-clock window.
        #[test]
        fn state_durations_sum_exactly_to_each_pes_span(
            num_pes in 1u16..6,
            seeds in 1u16..12,
            depth in 0u64..6,
        ) {
            let telem = Registry::new(num_pes);
            let wall_ns = run_workload(&telem, num_pes, seeds, depth);
            let mut saw_work = false;
            for pe in 0..num_pes {
                let snap = telem.sched_snapshot(pe);
                prop_assert_eq!(
                    snap.total_ns(), snap.span_ns,
                    "pe {}: charged {} ns over a {} ns episode", pe, snap.total_ns(), snap.span_ns
                );
                prop_assert!(
                    snap.span_ns <= wall_ns,
                    "pe {}: span {} ns exceeds the {} ns wall window", pe, snap.span_ns, wall_ns
                );
                prop_assert!(snap.current.is_none(), "pe {}: episode still open", pe);
                saw_work |= snap.state_ns(SchedState::Work) > 0;
            }
            prop_assert!(saw_work, "some PE executed the seeds");
        }
    }

    /// The pass-end `sched_*` instants report per-pass deltas: over two
    /// passes on one shared registry, summing the instants reproduces
    /// the cumulative clock — exactly how the blame analyzer folds them.
    /// The summed span instants equal the accounted time (and stay
    /// short of the cumulative `span_ns`, which includes the idle gap
    /// between the passes that belongs to neither).
    #[test]
    fn sched_instants_are_per_pass_deltas() {
        use std::collections::BTreeMap;
        let telem = Registry::new(2);
        run_workload(&telem, 2, 4, 3);
        run_workload(&telem, 2, 4, 3);
        let mut work: BTreeMap<u16, u64> = BTreeMap::new();
        let mut span: BTreeMap<u16, u64> = BTreeMap::new();
        for e in telem.drain_events() {
            match e.name {
                "sched_work" => *work.entry(e.pe).or_insert(0) += e.value,
                "sched_span" => *span.entry(e.pe).or_insert(0) += e.value,
                _ => {}
            }
        }
        for pe in 0..2u16 {
            let snap = telem.sched_snapshot(pe);
            assert_eq!(
                work[&pe],
                snap.state_ns(SchedState::Work),
                "pe {pe}: summed work deltas reproduce the cumulative clock"
            );
            assert_eq!(
                span[&pe],
                snap.total_ns(),
                "pe {pe}: summed pass spans are the accounted time"
            );
            assert!(
                span[&pe] < snap.span_ns,
                "pe {pe}: the inter-pass gap belongs to no pass"
            );
        }
    }

    /// The clock keeps accumulating across passes on a shared registry —
    /// the documented reason pass-exact blame wants a fresh registry.
    #[test]
    fn a_shared_registry_accumulates_across_passes() {
        let telem = Registry::new(2);
        run_workload(&telem, 2, 4, 3);
        let first = telem.sched_snapshot(0).total_ns();
        run_workload(&telem, 2, 4, 3);
        let second = telem.sched_snapshot(0).total_ns();
        assert!(
            second > first,
            "second pass added time: {first} then {second}"
        );
        assert!(
            telem.sched_snapshot(0).total_ns() < telem.sched_snapshot(0).span_ns,
            "the finish-to-reenter gap between passes is charged to no state"
        );
    }
}

#[cfg(not(feature = "telemetry"))]
mod without_feature {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The no-op registry records nothing: the same runs that fill
        /// the clock under the feature leave every snapshot empty.
        #[test]
        fn the_noop_clock_stays_empty(
            num_pes in 1u16..6,
            seeds in 1u16..12,
            depth in 0u64..6,
        ) {
            let telem = Registry::new(num_pes);
            run_workload(&telem, num_pes, seeds, depth);
            for pe in 0..num_pes {
                let snap = telem.sched_snapshot(pe);
                prop_assert!(snap.is_empty());
                prop_assert_eq!(snap.span_ns, 0);
                prop_assert!(telem.sched_snapshot(pe).current.is_none());
            }
        }
    }
}
