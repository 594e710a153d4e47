//! Concrete atomic metric primitives and their snapshots.
//!
//! Everything here is always compiled, feature or not: the `telemetry`
//! feature only decides whether the [`Registry`](crate::Registry) facade
//! at the crate root aliases [`active`](crate::active) (which is built on
//! these types) or [`noop`](crate::noop). Keeping the primitives
//! unconditional means the unit and property tests exercise the real
//! atomics in every build configuration.
//!
//! All atomics use `Relaxed` ordering: metrics are monotone tallies read
//! after the fact, never used for synchronization.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::ids::{CounterId, GaugeId, HistId};
use crate::sched::PeSchedSnapshot;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value / extreme-value gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets (fixed at compile time).
pub const HIST_BUCKETS: usize = 17;

/// Bucket index for a value: bucket 0 holds zeros, bucket `i` (1..16)
/// holds `2^(i-1) <= v < 2^i`, and the last bucket absorbs everything
/// from `2^15` up.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower edge of a bucket: the smallest value that lands in
/// bucket `i` (see [`bucket_index`]).
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_lower_edge(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper edge of a bucket: the largest value that lands in
/// bucket `i`. The last bucket is open-ended, so its edge is `u64::MAX`;
/// quantile estimation substitutes the observed maximum there.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_upper_edge(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS);
    if i == 0 {
        0
    } else if i == HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Human-readable range label for a bucket index.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_label(i: usize) -> String {
    assert!(i < HIST_BUCKETS);
    match i {
        0 => "0".to_string(),
        1 => "1".to_string(),
        _ if i == HIST_BUCKETS - 1 => format!("\u{2265}{}", 1u64 << (HIST_BUCKETS - 2)),
        _ => format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A fixed-bucket (power-of-two) histogram with count, sum and max.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [Counter; HIST_BUCKETS],
    count: Counter,
    sum: Counter,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].inc();
        self.count.inc();
        self.sum.add(v);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
            count: self.count.get(),
            sum: self.sum.get(),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by locating the bucket
    /// holding the rank-`⌈q·count⌉` observation and interpolating
    /// linearly inside it.
    ///
    /// The estimate is always bounded by the edges of that bucket
    /// ([`bucket_lower_edge`] / [`bucket_upper_edge`], with the observed
    /// maximum standing in for the open upper edge of the last bucket) —
    /// the error is therefore at most one power of two, which is the
    /// resolution the histogram stores. Returns 0 when empty; `q` outside
    /// `[0, 1]` clamps to the extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                let lo = bucket_lower_edge(i);
                let hi = if i == HIST_BUCKETS - 1 {
                    self.max.max(lo)
                } else {
                    bucket_upper_edge(i)
                };
                // Position of the rank within this bucket, in (0, 1].
                let into = rank - (cum - c);
                let frac = into as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
        }
        self.max
    }
}

/// A point-in-time copy of one PE shard's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeSnapshot {
    counters: [u64; CounterId::COUNT],
    gauges: [i64; GaugeId::COUNT],
    hists: [HistSnapshot; HistId::COUNT],
    sched: PeSchedSnapshot,
}

impl Default for PeSnapshot {
    fn default() -> Self {
        PeSnapshot {
            counters: [0; CounterId::COUNT],
            gauges: [0; GaugeId::COUNT],
            hists: [HistSnapshot::default(); HistId::COUNT],
            sched: PeSchedSnapshot::default(),
        }
    }
}

impl PeSnapshot {
    /// Builds a snapshot from raw arrays (used by the active registry).
    pub fn from_parts(
        counters: [u64; CounterId::COUNT],
        gauges: [i64; GaugeId::COUNT],
        hists: [HistSnapshot; HistId::COUNT],
    ) -> Self {
        PeSnapshot {
            counters,
            gauges,
            hists,
            sched: PeSchedSnapshot::default(),
        }
    }

    /// Attaches a scheduler state-clock snapshot (used by the active
    /// registry; defaults to empty so existing constructors are
    /// unaffected).
    pub fn set_sched(&mut self, sched: PeSchedSnapshot) {
        self.sched = sched;
    }

    /// The PE's scheduler state clock (empty when the runtime recorded
    /// none).
    pub fn sched(&self) -> &PeSchedSnapshot {
        &self.sched
    }

    /// A counter's value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// A gauge's value.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()]
    }

    /// A histogram's snapshot.
    pub fn hist(&self, id: HistId) -> &HistSnapshot {
        &self.hists[id.index()]
    }

    /// Folds another shard into this one: counters and histograms add,
    /// gauges take the maximum (the cross-PE reading of a depth gauge is
    /// its worst case, not a sum of unrelated instants).
    pub fn merge(&mut self, other: &PeSnapshot) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (g, o) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *g = (*g).max(*o);
        }
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
        self.sched.merge(&other.sched);
    }
}

/// A point-in-time copy of every PE shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One entry per shard, indexed by PE.
    pub per_pe: Vec<PeSnapshot>,
}

impl MetricsSnapshot {
    /// All shards folded into one (see [`PeSnapshot::merge`]).
    pub fn merged(&self) -> PeSnapshot {
        let mut out = PeSnapshot::default();
        for pe in &self.per_pe {
            out.merge(pe);
        }
        out
    }

    /// Sum of one counter across shards.
    pub fn counter_total(&self, id: CounterId) -> u64 {
        self.per_pe.iter().map(|p| p.counter(id)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(4);
        g.raise(2);
        assert_eq!(g.get(), 4, "raise never lowers");
        g.raise(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Exactly at each boundary: 2^(i-1) opens bucket i.
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(1 << (i - 1)), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index((1 << i) - 1), i, "upper bound of bucket {i}");
        }
        // Everything from 2^15 up lands in the last bucket.
        assert_eq!(bucket_index(1 << 15), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_labels_cover_the_range() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(1), "1");
        assert_eq!(bucket_label(2), "2-3");
        assert_eq!(bucket_label(16), "\u{2265}32768");
    }

    #[test]
    fn histogram_counts_sums_and_maxes() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 900] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 906);
        assert_eq!(s.max, 900);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[bucket_index(900)], 1);
        assert!((s.mean() - 181.2).abs() < 1e-9);
    }

    #[test]
    fn bucket_edges_bracket_their_members() {
        for i in 0..HIST_BUCKETS {
            let lo = bucket_lower_edge(i);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            if i < HIST_BUCKETS - 1 {
                assert_eq!(
                    bucket_index(bucket_upper_edge(i)),
                    i,
                    "upper edge of bucket {i}"
                );
            }
        }
        assert_eq!(bucket_upper_edge(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_are_bounded_by_bucket_edges() {
        let h = Histogram::new();
        let values = [1u64, 2, 3, 5, 8, 13, 21, 900, 900, 40000];
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        let mut sorted = values;
        sorted.sort_unstable();
        for (qi, q) in [(0usize, 0.1), (4, 0.5), (8, 0.9)] {
            let truth = sorted[qi];
            let est = s.quantile(q);
            let b = bucket_index(truth);
            assert!(
                est >= bucket_lower_edge(b) && est <= bucket_upper_edge(b),
                "q={q}: estimate {est} escaped bucket {b} of true value {truth}"
            );
        }
        // The top quantile of the open last bucket is capped at the
        // observed maximum, not the bucket's infinite edge.
        assert_eq!(s.quantile(1.0), 40000);
        assert_eq!(s.quantile(2.0), 40000, "q clamps high");
        // q <= 0 clamps to the smallest observation's bucket.
        let low = s.quantile(0.0);
        assert!(low >= 1 && low <= bucket_upper_edge(bucket_index(1)));
    }

    #[test]
    fn quantile_of_empty_and_uniform_histograms() {
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(7);
        }
        let s = h.snapshot();
        for q in [0.01, 0.5, 0.99] {
            let est = s.quantile(q);
            assert!(
                (4..=7).contains(&est),
                "all-sevens estimate {est} in bucket [4,7]"
            );
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.observe(v * v % 5000);
        }
        let s = h.snapshot();
        let mut last = 0;
        for i in 0..=20 {
            let est = s.quantile(i as f64 / 20.0);
            assert!(est >= last, "quantile must not decrease");
            last = est;
        }
    }

    #[test]
    fn snapshots_merge() {
        let mut a = HistSnapshot::default();
        let h = Histogram::new();
        h.observe(4);
        h.observe(5);
        a.merge(&h.snapshot());
        a.merge(&h.snapshot());
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 18);
        assert_eq!(a.max, 5);

        let mut p = PeSnapshot::default();
        let mut q = PeSnapshot::default();
        p.counters[CounterId::Tasks.index()] = 3;
        q.counters[CounterId::Tasks.index()] = 4;
        p.gauges[GaugeId::DequeDepth.index()] = 9;
        q.gauges[GaugeId::DequeDepth.index()] = 2;
        p.merge(&q);
        assert_eq!(p.counter(CounterId::Tasks), 7);
        assert_eq!(p.gauge(GaugeId::DequeDepth), 9, "gauges merge by max");
    }
}
