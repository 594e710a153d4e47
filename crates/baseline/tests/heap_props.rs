//! Property tests for heap-byte accounting against a shadow ledger.
//!
//! The tracker's contract, checked against an independently-maintained
//! shadow over random alloc/free/episode traffic:
//!
//! * the live clock is exactly `alloc_bytes − freed_bytes` as summed by
//!   the shadow (the tracker never drifts from the ledger it meters);
//! * the peak waterline equals the maximum live level the shadow saw
//!   since the last `begin_episode` (monotone within an episode,
//!   reset to the live level at each episode boundary);
//! * every free in this drive targets a stamped vertex, so every freed
//!   byte must be exact;
//! * cycle ledgers window the traffic: the per-window sums re-add to
//!   the running totals.
//!
//! The drive is generic over the recording switch: the properties run
//! it on `On`, and the same drive on `Off` must stay silent and
//! zero-sized — both in every build.

use std::collections::BTreeMap;

use dgr_telemetry::{CycleHeap, HeapTracker, Off, On, Switch, TriggerCause};
use proptest::prelude::*;

/// What the tracker *should* report, maintained independently.
#[derive(Debug, Default, Clone)]
struct Shadow {
    /// Vertex index → (owning PE, live byte weight). The PE is fixed at
    /// allocation, as the system's partition map fixes it in practice.
    live_set: BTreeMap<usize, (usize, u64)>,
    live: u64,
    /// Max live since the last episode boundary.
    peak: u64,
    alloc_bytes: u64,
    freed_bytes: u64,
    allocs: u64,
    frees: u64,
    episodes: u64,
    cycles: Vec<CycleHeap>,
}

/// Drives `ops` pseudo-random heap operations (xorshift64 from `seed`)
/// through a fresh tracker and the shadow in lockstep. Every free hits
/// a stamped vertex. Returns both plus the per-op `(tracker live,
/// tracker peak)` trace.
fn drive<R: Switch>(
    ops: usize,
    seed: u64,
    pes: usize,
) -> (HeapTracker<R>, Shadow, Vec<(u64, u64)>) {
    let mut t = HeapTracker::with_pes(pes);
    let mut sh = Shadow::default();
    let mut rng = seed | 1;
    let mut next_idx = 0usize;
    let mut trace = Vec::with_capacity(ops);
    let mut cycle = 0u64;
    for _ in 0..ops {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let pe = (rng >> 8) as usize % pes;
        let bytes = 8 + (rng >> 16) % 120;
        match rng % 10 {
            // Alloc dominates so the live set keeps material in it.
            0..=4 => {
                let idx = next_idx;
                next_idx += 1;
                t.alloc(pe, idx, bytes);
                sh.live_set.insert(idx, (pe, bytes));
                sh.live += bytes;
                sh.peak = sh.peak.max(sh.live);
                sh.alloc_bytes += bytes;
                sh.allocs += 1;
            }
            5..=7 => {
                if let Some((&idx, &(pe, w))) = sh.live_set.iter().next() {
                    t.free(pe, idx, w);
                    sh.live_set.remove(&idx);
                    sh.live -= w;
                    sh.freed_bytes += w;
                    sh.frees += 1;
                }
            }
            8 => {
                t.record_trigger(if rng & 1 == 0 {
                    TriggerCause::Period
                } else {
                    TriggerCause::HeapBytes
                });
                cycle += 1;
                sh.cycles.push(t.close_cycle(cycle));
            }
            _ => {
                t.begin_episode();
                sh.peak = sh.live;
                sh.episodes += 1;
            }
        }
        trace.push((t.live_bytes(), t.peak_bytes()));
    }
    (t, sh, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Op by op the tracker's clocks equal the shadow's, and the
    /// final snapshot reproduces the ledger: live = alloc − freed,
    /// peak = max live since the episode boundary, every freed
    /// byte exact, per-PE clocks summing to the total.
    #[test]
    fn clocks_match_the_shadow_ledger(
        ops in 20usize..200,
        seed in 0u64..1024,
        pes in 1usize..5,
    ) {
        let (t, sh, trace) = drive::<On>(ops, seed, pes);
        prop_assert!(t.enabled());
        let (live_end, peak_end) = *trace.last().expect("ops >= 20");
        prop_assert_eq!(live_end, sh.live, "live clock drifted");
        prop_assert_eq!(peak_end, sh.peak, "waterline drifted");
        let s = t.snapshot();
        prop_assert_eq!(s.live, sh.alloc_bytes - sh.freed_bytes,
            "live is exactly the alloc/free ledger difference");
        prop_assert_eq!(s.alloc_bytes, sh.alloc_bytes);
        prop_assert_eq!(s.freed_bytes, sh.freed_bytes);
        prop_assert_eq!((s.allocs, s.frees), (sh.allocs, sh.frees));
        prop_assert_eq!(s.exact_bytes, sh.freed_bytes,
            "every free in this drive hits a stamped vertex");
        prop_assert_eq!(s.exact_frees, sh.frees);
        prop_assert!((s.exact_fraction() - 1.0).abs() < 1e-12);
        prop_assert!(s.peak >= s.live, "peak never dips below live");
        prop_assert_eq!(
            s.per_pe.iter().map(|p| p.live).sum::<u64>(), s.live,
            "per-PE clocks sum to the total"
        );
        prop_assert_eq!(s.cycles, sh.cycles.len() as u64);
        prop_assert_eq!(s.trigger_period + s.trigger_heap, s.cycles,
            "every closed cycle carries exactly one recorded cause");
    }

    /// The waterline is monotone between episode boundaries: over
    /// any boundary-free stretch of the trace, peak never falls and
    /// always dominates live.
    #[test]
    fn peak_is_monotone_within_an_episode(
        ops in 20usize..200,
        seed in 0u64..1024,
    ) {
        let (_, _, trace) = drive::<On>(ops, seed, 2);
        let mut prev_peak = 0u64;
        for &(live, peak) in &trace {
            prop_assert!(peak >= live, "peak {} below live {}", peak, live);
            // An episode reset is the only way peak can fall, and it
            // falls exactly to the live level.
            if peak < prev_peak {
                prop_assert_eq!(peak, live, "a falling peak is a reset to live");
            }
            prev_peak = peak;
        }
    }

    /// Cycle windows partition the traffic: windowed sums re-add to
    /// the running totals (plus the still-open window's remainder).
    #[test]
    fn cycle_ledgers_window_the_traffic(
        ops in 20usize..200,
        seed in 0u64..1024,
    ) {
        let (t, sh, _) = drive::<On>(ops, seed, 3);
        let s = t.snapshot();
        let windowed: u64 = sh.cycles.iter().map(|c| c.alloc_bytes).sum();
        let freed_windowed: u64 = sh.cycles.iter().map(|c| c.freed_bytes).sum();
        prop_assert!(windowed <= s.alloc_bytes);
        prop_assert!(freed_windowed <= s.freed_bytes);
        for (i, c) in sh.cycles.iter().enumerate() {
            prop_assert_eq!(c.cycle, i as u64 + 1, "cycles close in order");
            prop_assert!(c.peak >= c.live_end, "window peak dominates its close");
            prop_assert_eq!(c.exact_bytes, c.freed_bytes,
                "window exactness matches the all-stamped drive");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-sized `Off` tracker records nothing: the same drive
    /// that fills the ledgers on `On` returns defaults.
    #[test]
    fn the_off_tracker_stays_empty(
        ops in 20usize..200,
        seed in 0u64..1024,
        pes in 1usize..5,
    ) {
        let (t, sh, trace) = drive::<Off>(ops, seed, pes);
        prop_assert!(!t.enabled());
        prop_assert_eq!(std::mem::size_of::<HeapTracker<Off>>(), 0);
        prop_assert!(sh.alloc_bytes > 0, "the drive itself did allocate");
        for &(live, peak) in &trace {
            prop_assert_eq!(live, 0);
            prop_assert_eq!(peak, 0);
        }
        prop_assert!(t.snapshot().is_empty());
        for c in &sh.cycles {
            prop_assert_eq!(*c, CycleHeap::default());
        }
    }
}
