//! Offline vertex-lifecycle reconstruction from `lc_*` instants.
//!
//! The GC driver closes every completed cycle by emitting its
//! [`CycleLifecycle`] ledger plus up to four [`Floater`] offenders.
//! [`lifecycle`] folds a parsed stream back into the per-cycle
//! float/latency/message-cost table — the same numbers the live `/status`
//! lifecycle block shows, recovered from the JSONL alone. The last value
//! wins per cycle, so re-runs appended to one stream report the final
//! ledger of each cycle.

use std::collections::BTreeMap;

use dgr_telemetry::{CycleLifecycle, Floater, Ledger};

use crate::{fold, Kind, ParsedEvent};

/// The reconstructed lifecycle table plus run-wide aggregates.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReport {
    /// One ledger per cycle that closed one, in cycle order.
    pub rows: Vec<CycleLifecycle>,
    /// Worst floating vertices over the whole stream: `(vertex, age)`
    /// with the maximum age each vertex ever reached, oldest first.
    pub worst_floaters: Vec<(u32, u64)>,
}

impl LifecycleReport {
    /// The run as one ledger: reclaims and latencies summed over all
    /// rows, the float count of the last closed cycle.
    fn total(&self) -> CycleLifecycle {
        let sum = |f: fn(&CycleLifecycle) -> u64| self.rows.iter().map(f).sum();
        CycleLifecycle {
            reclaimed: sum(|r| r.reclaimed),
            exact: sum(|r| r.exact),
            latency_sum: sum(|r| r.latency_sum),
            float: self.rows.last().map_or(0, |r| r.float),
            ..Default::default()
        }
    }
}

/// Folds a parsed stream's `lc_*` instants into the per-cycle table.
pub fn lifecycle(events: &[ParsedEvent]) -> LifecycleReport {
    let mut floaters: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == Kind::Instant) {
        let (_, mut floater) = Floater::open(e.pe, e.cycle);
        if floater.absorb(&e.name, e.value) {
            let age = floaters.entry(floater.vertex()).or_insert(0);
            *age = (*age).max(floater.age());
        }
    }
    let mut worst: Vec<(u32, u64)> = floaters.into_iter().collect();
    worst.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    worst.truncate(8);
    LifecycleReport {
        rows: fold(events).into_values().collect(),
        worst_floaters: worst,
    }
}

/// Renders the lifecycle table as a plain-text report.
pub fn lifecycle_text(r: &LifecycleReport) -> String {
    let mut out = String::new();
    if r.rows.is_empty() {
        out.push_str("no lc_* instants — was the run built with the `telemetry` feature?\n");
        return out;
    }
    let total = r.total();
    let (reclaimed, exact) = (total.reclaimed, total.exact);
    let exact_pct = if reclaimed == 0 {
        100.0
    } else {
        exact as f64 / reclaimed as f64 * 100.0
    };
    out.push_str(&format!(
        "vertex lifecycle over {} cycles: {reclaimed} reclaimed ({exact} exact, {exact_pct:.1}%), \
         mean latency {:.2} cycles, float now {}\n",
        r.rows.len(),
        total.mean_latency(),
        total.float,
    ));
    out.push_str("cycle  garbage  reclaim  exact  mean_lat  float  msgs_mt  msgs_mr  bound  msg/rec    eff\n");
    for row in &r.rows {
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>7}  {:>5}  {:>8.2}  {:>5}  {:>7}  {:>7}  {:>5}  {:>7.2}  {:>5.2}\n",
            row.cycle,
            row.garbage,
            row.reclaimed,
            row.exact,
            row.mean_latency(),
            row.float,
            row.msgs_mt,
            row.msgs_mr,
            row.bound,
            row.msgs_per_reclaimed(),
            row.efficiency(),
        ));
    }
    if !r.worst_floaters.is_empty() {
        out.push_str("worst floaters (vertex: max age in cycles):\n");
        for (v, age) in &r.worst_floaters {
            out.push_str(&format!("  v{v}: {age}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ledger_events;

    fn one_cycle(cycle: u32, reclaimed: u64, float: u64) -> Vec<ParsedEvent> {
        let row = CycleLifecycle {
            garbage: reclaimed + float,
            reclaimed,
            exact: reclaimed,
            latency_sum: reclaimed * 2,
            float,
            msgs_mt: 10,
            msgs_mr: 30,
            bound: 50,
            ..Default::default()
        };
        ledger_events(0, cycle, &row)
    }

    fn floater(cycle: u32, vertex: u32, age: u64) -> Vec<ParsedEvent> {
        ledger_events(0, cycle, &Floater::new(vertex, age))
    }

    #[test]
    fn folds_rows_per_cycle_and_totals() {
        let mut ev = one_cycle(1, 4, 2);
        ev.extend(one_cycle(2, 6, 0));
        ev.extend(floater(1, 7, 3));
        ev.extend(floater(2, 7, 5)); // same vertex, older
        ev.extend(floater(2, 9, 1));
        let r = lifecycle(&ev);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].cycle, 1);
        assert_eq!(r.rows[0].garbage, 6);
        assert_eq!(r.rows[0].float, 2);
        assert!((r.rows[0].mean_latency() - 2.0).abs() < 1e-9);
        assert!((r.rows[0].msgs_per_reclaimed() - 10.0).abs() < 1e-9);
        assert!((r.rows[0].efficiency() - 0.8).abs() < 1e-9);
        assert_eq!(r.total().reclaimed, 10);
        assert!((r.total().mean_latency() - 2.0).abs() < 1e-9);
        assert_eq!(r.total().float, 0, "last cycle drained the float");
        assert_eq!(
            r.worst_floaters,
            vec![(7, 5), (9, 1)],
            "max age per vertex, oldest first"
        );
    }

    #[test]
    fn last_value_wins_within_a_cycle() {
        let mut ev = one_cycle(3, 4, 1);
        ev.extend(one_cycle(3, 9, 1));
        let r = lifecycle(&ev);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].reclaimed, 9);
    }

    #[test]
    fn empty_stream_renders_the_hint() {
        let text = lifecycle_text(&lifecycle(&[]));
        assert!(text.contains("no lc_* instants"), "{text}");
    }

    #[test]
    fn report_renders_the_table_and_offenders() {
        let mut ev = one_cycle(1, 4, 2);
        ev.extend(floater(1, 42, 6));
        let text = lifecycle_text(&lifecycle(&ev));
        assert!(text.contains("4 reclaimed (4 exact, 100.0%)"), "{text}");
        assert!(text.contains("float now 2"), "{text}");
        assert!(text.contains("worst floaters"), "{text}");
        assert!(text.contains("v42: 6"), "{text}");
    }
}
