//! `compare <a.json> <b.json>`: applies the bounds of `BENCHMARK.json`
//! to two result files.

use std::path::Path;

use crate::json::{self, Json};
use crate::report::{manifest_dir, Better, Decl, END_TO_END, PER_LAYER};

/// Verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for an exact count, equal).
    Ok,
    /// `b` is worse than `a` by more than the bound, or an exact count
    /// differs.
    Worse,
    /// The within-run spread of either side is wider than the bound: the
    /// pair cannot say whether the metric moved.
    Unresolved,
    /// Nothing to judge: a per-layer timing (no bound), or counts taken
    /// with different seeds.
    Info,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Within-run spread, percent of the median.
    pub spread_pct: f64,
    /// Whether the metric is an exact count.
    pub exact: bool,
}

/// Judges `b` against `a`. `bound` is the share by which the metric may
/// get worse (`None` for a per-layer metric); exact counts must be equal
/// when both files used the same seed.
pub fn judge(
    a: Reading,
    b: Reading,
    better: Better,
    bound: Option<f64>,
    same_seed: bool,
) -> Verdict {
    if a.exact && b.exact {
        return match (same_seed, a.value == b.value) {
            (true, true) => Verdict::Ok,
            (true, false) => Verdict::Worse,
            (false, _) => Verdict::Info,
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if a.spread_pct.max(b.spread_pct) > 100.0 * bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Higher => b.value < a.value * (1.0 - bound),
        Better::Lower => b.value > a.value * (1.0 + bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn reading(m: &Json) -> Option<Reading> {
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread_pct: m.get("spread_pct")?.as_f64()?,
        exact: matches!(m.get("exact"), Some(Json::Bool(true))),
    })
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let doc = load(&path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()
                })
        })
        .collect()
}

/// Compares two result files row by row. Returns whether any row is
/// `worse`.
///
/// # Errors
///
/// Returns a message if a file cannot be read or is not a result file.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    let seed = |d: &Json| {
        d.get("stamp")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    if !same_seed {
        println!("seeds differ: exact counts are shown but not judged");
    }
    let workloads = |d: &Json| {
        d.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("not a result file: no `workloads` object")
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<13} {:<36} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut any_worse = false;
    for (workload, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<13} only in a");
            continue;
        };
        let metrics = ra.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, ma) in metrics {
            let decl: Option<&Decl> = END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name);
            let mb = rb.get("metrics").and_then(|m| m.get(name));
            let (Some(decl), Some(x), Some(y)) = (decl, reading(ma), mb.and_then(reading)) else {
                println!("{workload:<13} {name:<36} missing on one side");
                continue;
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
            let verdict = judge(x, y, decl.better, bound, same_seed);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<13} {name:<36} {:>16.6} {:>16.6} {:>8.4} {:>7}  {}",
                x.value,
                y.value,
                y.value / x.value,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                verdict.text()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(value: f64, spread_pct: f64) -> Reading {
        Reading {
            value,
            spread_pct,
            exact: false,
        }
    }

    fn count(value: f64) -> Reading {
        Reading {
            value,
            spread_pct: 0.0,
            exact: true,
        }
    }

    #[test]
    fn bounds_follow_the_direction() {
        let b = Some(0.07);
        assert_eq!(
            judge(
                timing(100.0, 1.0),
                timing(94.0, 1.0),
                Better::Higher,
                b,
                true
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                timing(100.0, 1.0),
                timing(92.0, 1.0),
                Better::Higher,
                b,
                true
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                timing(100.0, 1.0),
                timing(120.0, 1.0),
                Better::Higher,
                b,
                true
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(timing(1.0, 1.0), timing(1.08, 1.0), Better::Lower, b, true),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let b = Some(0.07);
        assert_eq!(
            judge(
                timing(100.0, 9.0),
                timing(80.0, 1.0),
                Better::Higher,
                b,
                true
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn counts_must_be_equal_for_one_seed() {
        assert_eq!(
            judge(count(5.0), count(5.0), Better::Lower, Some(0.01), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(count(5.0), count(4.0), Better::Lower, Some(0.01), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(count(5.0), count(4.0), Better::Lower, None, false),
            Verdict::Info
        );
    }

    #[test]
    fn per_layer_timings_are_shown_only() {
        assert_eq!(
            judge(
                timing(10.0, 0.0),
                timing(99.0, 0.0),
                Better::Lower,
                None,
                true
            ),
            Verdict::Info
        );
    }
}
