//! Vertex-lifecycle accounting: reclamation latency, floating-garbage
//! census, and per-cycle message-complexity meters.
//!
//! A collector backend (the `gc::GcDriver` cycle loop or one of the
//! `dgr-baseline` collectors) drives a [`Tracker`] once per collection
//! cycle:
//!
//! 1. [`Tracker::begin_cycle`] opens cycle `c`;
//! 2. [`Tracker::garbage_vertex`] is called for every vertex the backend
//!    observes dead-but-unreclaimed this cycle (the *census*). The first
//!    such observation stamps the vertex's `unreachable` cycle; later
//!    ones age it (`age = c − unreachable`) into the float-age histogram;
//! 3. [`Tracker::reclaim_vertex`] is called when a vertex is actually
//!    freed. Its reclamation latency is `c − unreachable` — **exact**
//!    whenever the vertex carried a stamp (the ≥95 % exactness the bench
//!    harness asserts), and counted as inexact otherwise (a tracker
//!    attached mid-run sees reclaims of vertices it never censused);
//! 4. [`Tracker::meter_msgs`] charges the cycle's `M_T`/`M_R` sends and
//!    the paper's Section 4 message bound in the same units;
//! 5. [`Tracker::end_cycle`] closes the cycle, returning its
//!    [`CycleLifecycle`] record, and sweeps stamps that were *not*
//!    re-censused this cycle (a mutator resurrected the vertex — once it
//!    is reachable again its float episode is over).
//!
//! Latencies and float ages land in the same power-of-two buckets as
//! every other histogram in this crate ([`bucket_index`]), so the
//! Prometheus exporter and the offline analyzer share edge math.
//!
//! Like every facade type, [`Tracker`] is generic over a [`Switch`]:
//! `Tracker<Off>` is zero-sized, and [`Tracker::enabled`] returning
//! `false` lets call sites skip their whole-graph census loops.

use crate::ids::Phase;
use crate::ledger::{ratio, Ledger};
use crate::metrics::{bucket_index, HIST_BUCKETS};
use crate::switch::Switch;
use crate::Build;

/// One collection cycle's lifecycle ledger, as returned by
/// [`Tracker::end_cycle`] and emitted via `lc_*` instants
/// ([`Ledger::wire`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleLifecycle {
    /// The cycle number this record describes.
    pub cycle: u64,
    /// Vertices censused dead-but-unreclaimed this cycle (pre-reclaim).
    pub garbage: u64,
    /// Vertices reclaimed this cycle.
    pub reclaimed: u64,
    /// Of those, how many carried an exact latency stamp.
    pub exact: u64,
    /// Sum of the exact latencies (cycles) of this cycle's reclaims.
    pub latency_sum: u64,
    /// Still floating (stamped, unreclaimed) after this cycle's reclaim.
    pub float: u64,
    /// `M_T` messages charged to this cycle.
    pub msgs_mt: u64,
    /// `M_R` messages charged to this cycle.
    pub msgs_mr: u64,
    /// Section 4 message-bound units charged to this cycle (see
    /// [`LifecycleSnapshot::efficiency`]).
    pub bound: u64,
}

impl Ledger for CycleLifecycle {
    const PHASE: Phase = Phase::Gc;

    fn open(_pe: u16, cycle: u32) -> (u64, Self) {
        let cycle = u64::from(cycle);
        (
            cycle,
            CycleLifecycle {
                cycle,
                ..Default::default()
            },
        )
    }

    fn wire(&mut self, mut field: impl FnMut(&'static str, &mut u64)) {
        field("lc_garbage", &mut self.garbage);
        field("lc_reclaimed", &mut self.reclaimed);
        field("lc_exact", &mut self.exact);
        field("lc_latency_sum", &mut self.latency_sum);
        field("lc_float", &mut self.float);
        field("lc_msgs_mt", &mut self.msgs_mt);
        field("lc_msgs_mr", &mut self.msgs_mr);
        field("lc_bound", &mut self.bound);
    }
}

impl CycleLifecycle {
    /// Mean exact reclamation latency in cycles (0 when nothing exact).
    pub fn mean_latency(&self) -> f64 {
        ratio(self.latency_sum, self.exact, 0.0)
    }

    /// Marking messages per reclaimed vertex (0 when nothing reclaimed).
    pub fn msgs_per_reclaimed(&self) -> f64 {
        ratio(self.msgs_mt + self.msgs_mr, self.reclaimed, 0.0)
    }

    /// Observed messages over the bound (0 when no bound was metered).
    pub fn efficiency(&self) -> f64 {
        ratio(self.msgs_mt + self.msgs_mr, self.bound, 0.0)
    }
}

/// One worst-float offender as an `lc_floater` instant carries it: the
/// vertex index and its age in cycles packed into one value, ages
/// saturating at `0xFFFF`. A single-field [`Ledger`], so the one `emit`
/// writes it; a cycle emits several, so a fold offers each instant to a
/// fresh one ([`Ledger::absorb`]) instead of keying them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floater(u64);

impl Floater {
    /// Packs an offender.
    pub fn new(vertex: u32, age: u64) -> Self {
        Floater((u64::from(vertex) << 16) | age.min(0xFFFF))
    }

    /// The floating vertex's index.
    pub fn vertex(self) -> u32 {
        (self.0 >> 16) as u32
    }

    /// Cycles it had floated when emitted (saturated).
    pub fn age(self) -> u64 {
        self.0 & 0xFFFF
    }
}

impl Ledger for Floater {
    const PHASE: Phase = Phase::Gc;

    fn open(_pe: u16, cycle: u32) -> (u64, Self) {
        (u64::from(cycle), Floater(0))
    }

    fn wire(&mut self, mut field: impl FnMut(&'static str, &mut u64)) {
        field("lc_floater", &mut self.0);
    }
}

/// Cheap copyable totals of a [`Tracker`], suitable for publishing into
/// an `ObserveHub` once per cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LifecycleSnapshot {
    /// Reclamation-latency histogram (power-of-two buckets of cycles).
    pub latency: [u64; HIST_BUCKETS],
    /// Sum of all exact latencies observed.
    pub latency_sum: u64,
    /// Maximum exact latency observed.
    pub latency_max: u64,
    /// Total vertices reclaimed.
    pub reclaimed: u64,
    /// Reclaims that carried an exact latency stamp.
    pub exact: u64,
    /// Float-age histogram: one observation per (cycle × floating
    /// vertex), bucketed by the vertex's age at that census.
    pub float_age: [u64; HIST_BUCKETS],
    /// Vertices floating (dead, unreclaimed) after the last closed cycle.
    pub float_now: u64,
    /// Total `M_T` messages metered.
    pub msgs_mt: u64,
    /// Total `M_R` messages metered.
    pub msgs_mr: u64,
    /// Total Section 4 bound units metered.
    pub bound: u64,
    /// Closed cycles.
    pub cycles: u64,
}

impl LifecycleSnapshot {
    /// `true` if the tracker never closed a cycle or observed a vertex.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0 && self.reclaimed == 0 && self.float_now == 0
    }

    /// Mean exact reclamation latency in cycles (0 when nothing exact).
    pub fn mean_latency(&self) -> f64 {
        ratio(self.latency_sum, self.exact, 0.0)
    }

    /// Fraction of reclaims with an exact latency (1 when none reclaimed).
    pub fn exact_fraction(&self) -> f64 {
        ratio(self.exact, self.reclaimed, 1.0)
    }

    /// Messages per reclaimed vertex, split `(M_T, M_R)` (0 when nothing
    /// was reclaimed).
    pub fn msgs_per_reclaimed(&self) -> (f64, f64) {
        (
            ratio(self.msgs_mt, self.reclaimed, 0.0),
            ratio(self.msgs_mr, self.reclaimed, 0.0),
        )
    }

    /// Observed messages over the Section 4 bound units metered alongside
    /// them — ≤ 1 means marking stayed within the paper's budget. 0 when
    /// no bound was metered.
    pub fn efficiency(&self) -> f64 {
        ratio(self.msgs_mt + self.msgs_mr, self.bound, 0.0)
    }

    /// Bucket-estimated latency quantile in cycles (same convention as
    /// [`HistSnapshot::quantile`](crate::HistSnapshot): the upper edge of
    /// the bucket holding the `q`-th observation, with the open-ended
    /// last bucket reporting the observed maximum).
    pub fn latency_quantile(&self, q: f64) -> u64 {
        quantile(&self.latency, self.exact, self.latency_max, q)
    }
}

/// Bucket-estimated quantile over a raw power-of-two bucket array
/// (shared with the [`heap`](crate::heap) snapshot).
pub(crate) fn quantile(buckets: &[u64; HIST_BUCKETS], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return if i == HIST_BUCKETS - 1 {
                max
            } else {
                crate::metrics::bucket_upper_edge(i)
            };
        }
    }
    max
}

/// Sentinel for "no stamp" in the per-vertex cycle arrays (stored values
/// are `cycle + 1`).
const UNSTAMPED: u64 = 0;

/// `since` of a vertex reclaimed this cycle: unstamped, but still on the
/// `floating` list until `end_cycle`'s sweep drops it.
const RECLAIMED: u64 = u64::MAX;

/// What a recording [`Tracker`] keeps.
#[derive(Debug, Default)]
struct Books {
    /// Per-vertex: cycle first censused garbage + 1.
    since: Vec<u64>,
    /// Per-vertex: last cycle censused garbage + 1 (resurrection sweep).
    seen: Vec<u64>,
    /// Indices stamped since the last sweep, each once (compact
    /// sweep/offender list); a reclaim leaves its entry to the sweep.
    floating: Vec<u32>,
    /// The open cycle's ledger.
    cur: CycleLifecycle,
    /// Whether a cycle is open.
    open: bool,
    /// Running totals.
    snap: LifecycleSnapshot,
}

/// `v[idx]`, growing `v` with defaults (`UNSTAMPED`, for a stamp array)
/// to reach it (shared with the [`heap`](crate::heap) tracker).
pub(crate) fn slot<T: Clone + Default>(v: &mut Vec<T>, idx: usize) -> &mut T {
    if idx >= v.len() {
        v.resize(idx + 1, T::default());
    }
    &mut v[idx]
}

/// The vertex-lifecycle tracker (see the module docs for the per-cycle
/// protocol). Single-threaded by design: it is driven from the
/// collector's own restructure path, which already owns the graph.
#[derive(Debug)]
pub struct Tracker<R: Switch = Build>(R::Keep<Books>);

impl<R: Switch> Default for Tracker<R> {
    fn default() -> Self {
        Tracker(R::keep(Books::default))
    }
}

impl Tracker {
    /// A fresh tracker of the build's switch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Switch> Tracker<R> {
    /// Whether this tracker records (when not, skip the census loop).
    pub const fn enabled(&self) -> bool {
        R::ON
    }

    /// Opens cycle `cycle`, resetting the per-cycle ledger.
    pub fn begin_cycle(&mut self, cycle: u64) {
        R::with_mut(&mut self.0, (), |b| {
            b.cur = CycleLifecycle {
                cycle,
                ..Default::default()
            };
            b.open = true;
        });
    }

    /// Censuses a vertex as dead-but-unreclaimed this cycle. First sight
    /// stamps its `unreachable` cycle; every sight ages it into the
    /// float-age histogram. Idempotent within a cycle.
    pub fn garbage_vertex(&mut self, idx: usize) {
        R::with_mut(&mut self.0, (), |b| {
            debug_assert!(b.open, "census outside begin_cycle/end_cycle");
            let cycle = b.cur.cycle;
            let seen = slot(&mut b.seen, idx);
            if *seen == cycle + 1 {
                return; // already censused this cycle
            }
            *seen = cycle + 1;
            let since = slot(&mut b.since, idx);
            if *since == UNSTAMPED {
                b.floating.push(idx as u32);
            }
            let age = if matches!(*since, UNSTAMPED | RECLAIMED) {
                *since = cycle + 1;
                0
            } else {
                cycle - (*since - 1)
            };
            b.cur.garbage += 1;
            b.snap.float_age[bucket_index(age)] += 1;
        });
    }

    /// Records a vertex's reclamation. With a stamp, the latency
    /// `cycle − unreachable` is exact and histogrammed; without one, the
    /// reclaim is counted but its latency is unknown (inexact).
    pub fn reclaim_vertex(&mut self, idx: usize) {
        R::with_mut(&mut self.0, (), |b| {
            debug_assert!(b.open, "reclaim outside begin_cycle/end_cycle");
            let cycle = b.cur.cycle;
            b.cur.reclaimed += 1;
            b.snap.reclaimed += 1;
            let since = slot(&mut b.since, idx);
            if *since == UNSTAMPED || *since == RECLAIMED {
                return; // never censused: latency unknown
            }
            let latency = cycle - (*since - 1);
            *since = RECLAIMED;
            b.seen[idx] = UNSTAMPED;
            b.cur.exact += 1;
            b.cur.latency_sum += latency;
            b.snap.exact += 1;
            b.snap.latency_sum += latency;
            b.snap.latency_max = b.snap.latency_max.max(latency);
            b.snap.latency[bucket_index(latency)] += 1;
        });
    }

    /// Charges this cycle's `M_T`/`M_R` sends and the Section 4 bound
    /// units they are compared against. Additive within a cycle.
    pub fn meter_msgs(&mut self, mt: u64, mr: u64, bound: u64) {
        R::with_mut(&mut self.0, (), |b| {
            b.cur.msgs_mt += mt;
            b.cur.msgs_mr += mr;
            b.cur.bound += bound;
        });
    }

    /// Closes the cycle: sweeps stamps that were not re-censused (the
    /// vertex was resurrected, reclaimed or silently freed — its float
    /// episode is over), fixes the cycle's float count, folds the ledger into the
    /// running totals and returns it.
    pub fn end_cycle(&mut self) -> CycleLifecycle {
        R::with_mut(&mut self.0, CycleLifecycle::default(), |b| {
            let cycle = b.cur.cycle;
            let (since, seen) = (&mut b.since, &mut b.seen);
            b.floating.retain(|&f| {
                let idx = f as usize;
                if seen[idx] == cycle + 1 {
                    true
                } else {
                    since[idx] = UNSTAMPED;
                    seen[idx] = UNSTAMPED;
                    false
                }
            });
            b.cur.float = b.floating.len() as u64;
            b.snap.float_now = b.cur.float;
            b.snap.msgs_mt += b.cur.msgs_mt;
            b.snap.msgs_mr += b.cur.msgs_mr;
            b.snap.bound += b.cur.bound;
            b.snap.cycles += 1;
            b.open = false;
            b.cur
        })
    }

    /// Running totals (valid between cycles; mid-cycle the open ledger is
    /// not yet folded in).
    pub fn snapshot(&self) -> LifecycleSnapshot {
        R::with(&self.0, LifecycleSnapshot::default(), |b| b.snap.clone())
    }

    /// The `k` longest-floating vertices as `(index, age)` pairs, oldest
    /// first. Ages are relative to the last opened cycle.
    pub fn worst_floaters(&self, k: usize) -> Vec<(u32, u64)> {
        R::with(&self.0, Vec::new(), |b| {
            let cycle = b.cur.cycle;
            let mut out: Vec<(u32, u64)> = (b.floating.iter())
                .filter(|&&f| b.since[f as usize] != RECLAIMED)
                .map(|&f| (f, cycle - (b.since[f as usize] - 1)))
                .collect();
            out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            out.truncate(k);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::On;

    type Tracker = super::Tracker<On>;

    #[test]
    fn same_cycle_reclaim_has_zero_exact_latency() {
        let mut t = Tracker::default();
        t.begin_cycle(1);
        t.garbage_vertex(3);
        t.reclaim_vertex(3);
        let rec = t.end_cycle();
        assert_eq!(rec.garbage, 1);
        assert_eq!(rec.reclaimed, 1);
        assert_eq!(rec.exact, 1);
        assert_eq!(rec.latency_sum, 0);
        assert_eq!(rec.float, 0);
        let s = t.snapshot();
        assert_eq!(s.latency[bucket_index(0)], 1);
        assert_eq!(s.exact_fraction(), 1.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn latency_is_cycles_floated_and_float_ages_accumulate() {
        let mut t = Tracker::default();
        for c in 1..=4 {
            t.begin_cycle(c);
            t.garbage_vertex(7);
            if c == 4 {
                t.reclaim_vertex(7);
            }
            let rec = t.end_cycle();
            if c < 4 {
                assert_eq!(rec.float, 1, "floats until reclaimed");
            } else {
                assert_eq!(rec.float, 0);
                assert_eq!(rec.latency_sum, 3, "stamped cycle 1, freed cycle 4");
            }
        }
        let s = t.snapshot();
        assert_eq!(s.reclaimed, 1);
        assert_eq!(s.exact, 1);
        assert_eq!(s.latency_max, 3);
        // Census ages: 0, 1, 2, 3 — one observation per floating cycle.
        let total: u64 = s.float_age.iter().sum();
        assert_eq!(total, 4);
        assert_eq!(s.float_age[bucket_index(0)], 1, "age 0 at first census");
        assert_eq!(s.float_age[2], 2, "ages 2 and 3 share bucket 2");
        assert_eq!(s.latency_quantile(0.5), 3);
        assert!(t.worst_floaters(1).is_empty(), "stamp cleared on reclaim");
    }

    #[test]
    fn unstamped_reclaim_is_counted_but_inexact() {
        let mut t = Tracker::default();
        t.begin_cycle(5);
        t.reclaim_vertex(2);
        let rec = t.end_cycle();
        assert_eq!(rec.reclaimed, 1);
        assert_eq!(rec.exact, 0);
        let s = t.snapshot();
        assert_eq!(s.exact_fraction(), 0.0);
        assert_eq!(s.latency.iter().sum::<u64>(), 0, "no latency histogrammed");
    }

    #[test]
    fn resurrection_sweeps_the_stamp() {
        let mut t = Tracker::default();
        t.begin_cycle(1);
        t.garbage_vertex(9);
        assert_eq!(t.end_cycle().float, 1);
        // Cycle 2 does not re-censure 9 (a mutator re-attached it).
        t.begin_cycle(2);
        assert_eq!(t.end_cycle().float, 0, "swept");
        // It dies again in cycle 5 and is freed in cycle 6: the new
        // episode's latency is 1, not 5.
        t.begin_cycle(5);
        t.garbage_vertex(9);
        t.end_cycle();
        t.begin_cycle(6);
        t.garbage_vertex(9);
        t.reclaim_vertex(9);
        let rec = t.end_cycle();
        assert_eq!(rec.latency_sum, 1);
    }

    #[test]
    fn a_reclaimed_vertex_censused_again_floats_once() {
        let mut t = Tracker::default();
        t.begin_cycle(1);
        t.garbage_vertex(5);
        t.reclaim_vertex(5);
        assert!(t.worst_floaters(4).is_empty(), "reclaimed, not floating");
        t.garbage_vertex(5);
        assert_eq!(t.worst_floaters(4), vec![(5, 0)]);
        assert_eq!(t.end_cycle().float, 1);
        assert_eq!(t.worst_floaters(4), vec![(5, 0)], "listed once");
    }

    #[test]
    fn census_is_idempotent_within_a_cycle() {
        let mut t = Tracker::default();
        t.begin_cycle(3);
        t.garbage_vertex(1);
        t.garbage_vertex(1);
        let rec = t.end_cycle();
        assert_eq!(rec.garbage, 1);
        assert_eq!(t.snapshot().float_age.iter().sum::<u64>(), 1);
    }

    #[test]
    fn worst_floaters_are_oldest_first_and_bounded() {
        let mut t = Tracker::default();
        t.begin_cycle(1);
        t.garbage_vertex(10);
        t.end_cycle();
        t.begin_cycle(3);
        t.garbage_vertex(10);
        t.garbage_vertex(20);
        t.garbage_vertex(30);
        t.end_cycle();
        t.begin_cycle(4);
        for i in [10, 20, 30] {
            t.garbage_vertex(i);
        }
        let worst = t.worst_floaters(2);
        assert_eq!(worst, vec![(10, 3), (20, 1)]);
        t.end_cycle();
    }

    #[test]
    fn message_meters_and_efficiency() {
        let mut t = Tracker::default();
        t.begin_cycle(1);
        t.garbage_vertex(0);
        t.reclaim_vertex(0);
        t.meter_msgs(4, 6, 0);
        t.meter_msgs(0, 0, 20);
        let rec = t.end_cycle();
        assert_eq!((rec.msgs_mt, rec.msgs_mr, rec.bound), (4, 6, 20));
        let s = t.snapshot();
        assert_eq!(s.msgs_per_reclaimed(), (4.0, 6.0));
        assert_eq!(s.efficiency(), 0.5);
    }

    #[test]
    fn cycle_ledger_metrics() {
        let row = CycleLifecycle {
            reclaimed: 4,
            exact: 4,
            latency_sum: 8,
            msgs_mt: 10,
            msgs_mr: 30,
            bound: 50,
            ..Default::default()
        };
        assert!((row.mean_latency() - 2.0).abs() < 1e-9);
        assert!((row.msgs_per_reclaimed() - 10.0).abs() < 1e-9);
        assert!((row.efficiency() - 0.8).abs() < 1e-9);
        let blank = CycleLifecycle::default();
        assert_eq!(blank.mean_latency(), 0.0);
        assert_eq!(blank.msgs_per_reclaimed(), 0.0);
        assert_eq!(blank.efficiency(), 0.0);
    }

    #[test]
    fn unpack_matches_the_driver_packing() {
        let f = Floater::new(1234, 77);
        assert_eq!((f.vertex(), f.age()), (1234, 77));
        assert_eq!(Floater::new(9, 1 << 40).age(), 0xFFFF, "age saturates");
        let (_, mut back) = Floater::open(0, 3);
        assert!(back.absorb("lc_floater", (1234 << 16) | 77));
        assert_eq!(back, f);
        assert!(!back.absorb("lc_float", 1), "a different instant");
    }

    #[test]
    fn empty_snapshot_is_empty_and_safe() {
        let s = LifecycleSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.exact_fraction(), 1.0);
        assert_eq!(s.msgs_per_reclaimed(), (0.0, 0.0));
        assert_eq!(s.efficiency(), 0.0);
        assert_eq!(s.latency_quantile(0.99), 0);
    }
}
