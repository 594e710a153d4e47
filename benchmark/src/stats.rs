//! Order statistics over the per-iteration samples.

/// Summary of a sample of timings (or any positive measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Fastest sample.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// The highest percentile that still has at least ten samples beyond
    /// it, as `(percentile, value)`; `None` with ten samples or fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty: every workload measures at least one
    /// iteration before it summarizes.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples to summarize");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        let n = v.len();
        let tail = (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]));
        Summary {
            n,
            min: v[0],
            q1,
            median,
            q3,
            tail,
        }
    }

    /// Distance between the quartiles as a percentage of the median.
    pub fn iqr_pct(&self) -> f64 {
        100.0 * (self.q3 - self.q1) / self.median
    }

    /// `median (q1..q3, pNN x, n=N)` with `scale` applied and `unit`
    /// appended — the detail printed beside every timed metric.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p:.0} {:.3}", v * scale),
            None => "tail n/a".to_string(),
        };
        format!(
            "min {:.3}, median {:.3} {unit} (q1 {:.3}, q3 {:.3}, {tail}, n={})",
            self.min * scale,
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }
}

/// Quartiles of an ascending slice by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver applies to the run-to-run values.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Fastest sample, NaN for an empty sample (which then shows up as a
/// non-finite metric and fails the run).
///
/// Every rate here divides by the fastest time, not a middle one. An
/// iteration repeats an identical event sequence, so whatever a sample
/// has above the fastest is the host's doing, and on the shared 2-vCPU
/// hosts this runs on the host's share swings by tens of percent for
/// minutes at a time: over ten runs the fastest sample moved a third as
/// much as the median and about half as much as the lower quartile.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Median of a small sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Nearest-rank percentile `p` (0..=100) of an unsorted sample; 0 for an
/// empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.tail, None);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }
}
