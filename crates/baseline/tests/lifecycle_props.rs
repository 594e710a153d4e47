//! Property tests for lifecycle exactness against the graph oracle.
//!
//! The tracker's contract, checked against an independently-maintained
//! shadow ledger over randomly evolving graphs:
//!
//! * every reclaimed vertex's reclaim cycle is ≥ its unreachable
//!   (first-census) cycle, and its latency is exactly the difference;
//! * the per-cycle float count equals the stamped-but-unreclaimed set —
//!   cumulative distinct garbage minus cumulative reclaims;
//! * per-cycle garbage/reclaim totals match the oracle's garbage set
//!   (`oracle::garbage` is the DetSim ground truth the whole repo
//!   verifies marking against).
//!
//! The drive is generic over the recording switch: the property runs it
//! on `On`, and the same drive on `Off` must stay silent — both in every
//! build.

use std::collections::BTreeMap;

use dgr_graph::{oracle, GraphStore, VertexId};
use dgr_telemetry::{CycleLifecycle, LifecycleTracker, Off, On, Switch};
use dgr_workloads::graphs::random_digraph;
use proptest::prelude::*;

/// What the tracker *should* have recorded for one cycle, maintained
/// independently from the oracle's garbage sets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ShadowCycle {
    garbage: u64,
    reclaimed: u64,
    latency_sum: u64,
    float: u64,
}

/// Deterministically severs up to `count` outgoing arcs from random
/// live vertices (xorshift64), creating garbage without ever
/// resurrecting anything — so a stamped vertex stays garbage until
/// reclaimed and the resurrection sweep never fires.
fn sever(g: &mut GraphStore, rng: &mut u64, count: usize) {
    let ids: Vec<VertexId> = g.live_ids().collect();
    if ids.is_empty() {
        return;
    }
    for _ in 0..count {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let v = ids[(*rng as usize) % ids.len()];
        let Some(&t) = g.vertex(v).args().first() else {
            continue;
        };
        g.disconnect(v, t);
    }
}

/// Evolves a random digraph for `cycles` cycles, censusing the oracle's
/// garbage set every cycle and reclaiming it every `reclaim_every`-th,
/// with the tracker and the shadow ledger fed identically. Returns the
/// tracker, its per-cycle ledgers, and the shadow expectations.
fn drive<R: Switch>(
    n: usize,
    seed: u64,
    cycles: u64,
    reclaim_every: u64,
) -> (LifecycleTracker<R>, Vec<CycleLifecycle>, Vec<ShadowCycle>) {
    let mut g = random_digraph(n, 2.0, seed);
    let mut lc = LifecycleTracker::default();
    let mut rng = seed | 1;
    let mut first_seen: BTreeMap<usize, u64> = BTreeMap::new();
    let mut ledgers = Vec::new();
    let mut shadow = Vec::new();
    for c in 0..cycles {
        sever(&mut g, &mut rng, 4);
        let reach = oracle::reachable_r(&g);
        let garbage = oracle::garbage(&g, &reach);
        lc.begin_cycle(c);
        let mut sc = ShadowCycle {
            garbage: garbage.len() as u64,
            ..Default::default()
        };
        for w in garbage.iter() {
            lc.garbage_vertex(w.index());
            first_seen.entry(w.index()).or_insert(c);
        }
        if c % reclaim_every == reclaim_every - 1 {
            for w in garbage.iter() {
                let born = first_seen.remove(&w.index()).expect("censused this cycle");
                assert!(c >= born, "reclaim cycle precedes the unreachable cycle");
                sc.latency_sum += c - born;
                sc.reclaimed += 1;
                g.free(w);
                lc.reclaim_vertex(w.index());
            }
        }
        sc.float = first_seen.len() as u64;
        ledgers.push(lc.end_cycle());
        shadow.push(sc);
    }
    (lc, ledgers, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cycle by cycle, the tracker's ledger equals the shadow built
    /// from the oracle's garbage sets: census totals, reclaim
    /// totals, exact latencies (reclaim − first-census cycle), and
    /// the float count (distinct garbage − reclaims so far).
    #[test]
    fn ledgers_match_the_oracle_shadow(
        n in 30usize..120,
        seed in 0u64..1024,
        cycles in 4u64..10,
        reclaim_every in 1u64..4,
    ) {
        let (lc, ledgers, shadow) = drive::<On>(n, seed, cycles, reclaim_every);
        let mut total_latency = 0u64;
        let mut total_reclaimed = 0u64;
        for (c, (led, sc)) in ledgers.iter().zip(&shadow).enumerate() {
            prop_assert_eq!(led.cycle, c as u64);
            prop_assert_eq!(led.garbage, sc.garbage, "cycle {}: census", c);
            prop_assert_eq!(led.reclaimed, sc.reclaimed, "cycle {}: reclaims", c);
            prop_assert_eq!(
                led.exact, led.reclaimed,
                "cycle {}: every reclaim was censused first, so every \
                 latency is exact", c
            );
            prop_assert_eq!(led.latency_sum, sc.latency_sum, "cycle {}: latency", c);
            prop_assert_eq!(led.float, sc.float, "cycle {}: float", c);
            total_latency += sc.latency_sum;
            total_reclaimed += sc.reclaimed;
        }
        let s = lc.snapshot();
        prop_assert_eq!(s.cycles, cycles);
        prop_assert_eq!(s.reclaimed, total_reclaimed);
        prop_assert_eq!(s.exact, total_reclaimed);
        prop_assert_eq!(s.latency_sum, total_latency);
        prop_assert_eq!(s.float_now, shadow.last().expect("cycles >= 1").float);
        prop_assert_eq!(
            s.latency.iter().sum::<u64>(), s.exact,
            "every exact latency landed in exactly one bucket"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-sized `Off` tracker records nothing: the same drive
    /// that fills the ledgers on `On` returns defaults.
    #[test]
    fn the_off_tracker_stays_empty(
        n in 30usize..120,
        seed in 0u64..1024,
        cycles in 4u64..10,
        reclaim_every in 1u64..4,
    ) {
        let (lc, ledgers, _) = drive::<Off>(n, seed, cycles, reclaim_every);
        prop_assert!(!lc.enabled());
        for led in &ledgers {
            prop_assert_eq!(*led, CycleLifecycle::default());
        }
        prop_assert!(lc.snapshot().is_empty());
        prop_assert!(lc.worst_floaters(4).is_empty());
    }
}
