//! Round trip of the ledger seam: record → `Registry::emit` →
//! `events_jsonl` → `parse_events` → fold gives the record back.
//!
//! The ledgers are written out field by field (no `..Default`), so a
//! field added to a record but not to its wire format fails to compile
//! here first and to round-trip second. Uses `active::Registry` by full
//! path, so the property runs in both feature states.

use dgr_telemetry::active::Registry;
use dgr_telemetry::{
    events_jsonl, CycleHeap, CycleLifecycle, Floater, PeSchedSnapshot, Phase, SchedState,
};
use dgr_trace::{blame, heap, lifecycle, parse_events};
use proptest::prelude::*;

/// Values small enough that summing a few passes cannot overflow.
const VALUE: std::ops::Range<u64> = 0..1 << 40;

fn cycle_heap(cycle: u32, v: &[u64]) -> CycleHeap {
    CycleHeap {
        cycle: u64::from(cycle),
        cause: v[0],
        bound: v[1],
        allocs: v[2],
        frees: v[3],
        alloc_bytes: v[4],
        freed_bytes: v[5],
        exact_bytes: v[6],
        live_end: v[7],
        peak: v[8],
    }
}

fn cycle_lifecycle(cycle: u32, v: &[u64]) -> CycleLifecycle {
    CycleLifecycle {
        cycle: u64::from(cycle),
        garbage: v[0],
        reclaimed: v[1],
        exact: v[2],
        latency_sum: v[3],
        float: v[4],
        msgs_mt: v[5],
        msgs_mr: v[6],
        bound: v[7],
    }
}

fn pass_clock(v: &[u64]) -> PeSchedSnapshot {
    PeSchedSnapshot {
        ns: std::array::from_fn(|i| v[i]),
        current: None,
        span_ns: v[SchedState::COUNT],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-cycle ledgers: the last emission of a cycle wins, whatever
    /// else shares the stream.
    #[test]
    fn cycle_ledgers_fold_back_to_the_last_emission(
        cycles in proptest::collection::vec(
            (proptest::collection::vec(VALUE, 9..10), proptest::collection::vec(VALUE, 8..9)),
            1..12,
        ),
        stale in proptest::collection::vec(VALUE, 9..10),
    ) {
        let reg = Registry::new(2);
        let mut heaps = Vec::new();
        let mut lifecycles = Vec::new();
        for (i, (hp, lc)) in cycles.iter().enumerate() {
            let cycle = 3 * i as u32 + 1; // gaps: a cycle without a ledger has no row
            // An earlier emission for the same cycle, to be overwritten.
            reg.emit(0, cycle, &cycle_heap(cycle, &stale));
            reg.emit(0, cycle, &cycle_lifecycle(cycle, &stale));
            reg.instant(0, cycle, Phase::Gc, "reclaimed", lc[1]);
            reg.begin(1, cycle, Phase::Mr, "M_R");
            let (hp, lc) = (cycle_heap(cycle, hp), cycle_lifecycle(cycle, lc));
            reg.emit(0, cycle, &hp);
            reg.emit(0, cycle, &lc);
            reg.end(1, cycle, Phase::Mr, "M_R");
            heaps.push(hp);
            lifecycles.push(lc);
        }
        let parsed = parse_events(&events_jsonl(&reg.drain_events()));
        prop_assert_eq!(heap(&parsed).rows, heaps);
        prop_assert_eq!(lifecycle(&parsed).rows, lifecycles);
        prop_assert!(lifecycle(&parsed).worst_floaters.is_empty());
        prop_assert!(blame(&parsed).pes.is_empty());
    }

    /// Per-PE pass clocks: several passes of one PE sum.
    #[test]
    fn pass_clocks_fold_back_to_their_sum(
        passes in proptest::collection::vec(
            (0u16..4, proptest::collection::vec(VALUE, 8..9)),
            1..16,
        ),
    ) {
        let reg = Registry::new(4);
        let mut want = std::collections::BTreeMap::new();
        for (pe, v) in &passes {
            let pass = pass_clock(v);
            reg.emit(*pe, 0, &pass);
            let sum: &mut PeSchedSnapshot = want.entry(u64::from(*pe)).or_default();
            for (total, ns) in sum.ns.iter_mut().zip(pass.ns) {
                *total += ns;
            }
            sum.span_ns += pass.span_ns;
        }
        let parsed = parse_events(&events_jsonl(&reg.drain_events()));
        prop_assert_eq!(blame(&parsed).pes, want);
        prop_assert!(heap(&parsed).rows.is_empty());
    }

    /// Floaters: every offender comes back, at the oldest age it reached.
    #[test]
    fn floaters_fold_back_to_their_oldest_sighting(
        sightings in proptest::collection::vec((0u32..6, 0u64..100_000), 1..24),
    ) {
        let reg = Registry::new(1);
        let mut want = std::collections::BTreeMap::new();
        for (i, &(vertex, age)) in sightings.iter().enumerate() {
            reg.emit(0, i as u32 / 4 + 1, &Floater::new(vertex, age));
            let oldest: &mut u64 = want.entry(vertex).or_default();
            *oldest = (*oldest).max(age.min(0xFFFF));
        }
        let mut want: Vec<(u32, u64)> = want.into_iter().collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let parsed = parse_events(&events_jsonl(&reg.drain_events()));
        let report = lifecycle(&parsed);
        prop_assert_eq!(report.worst_floaters, want);
        prop_assert!(report.rows.is_empty(), "a floater alone closes no ledger");
    }
}
