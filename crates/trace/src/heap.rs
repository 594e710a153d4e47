//! Offline heap-pressure reconstruction from `hp_*` instants.
//!
//! The GC driver closes every cycle's heap window by emitting its
//! [`CycleHeap`] ledger. [`heap`] folds a parsed stream back into the
//! per-cycle live/peak/trigger-cause table — the same numbers the live
//! `/status` heap block shows, recovered from the JSONL alone. The last
//! value wins per cycle, so re-runs appended to one stream report the
//! final window of each cycle.

use dgr_telemetry::{CycleHeap, TriggerCause};

use crate::{fold, ParsedEvent};

/// The reconstructed heap table plus run-wide aggregates.
#[derive(Debug, Clone, Default)]
pub struct HeapReport {
    /// One ledger per closed cycle window, in cycle order.
    pub rows: Vec<CycleHeap>,
}

impl HeapReport {
    /// Largest peak over all windows.
    pub fn peak(&self) -> u64 {
        self.rows.iter().map(|r| r.peak).max().unwrap_or(0)
    }

    /// The run as one window: traffic summed over all windows (no cause,
    /// bound, peak or closing level — those belong to single cycles).
    fn total(&self) -> CycleHeap {
        let sum = |f: fn(&CycleHeap) -> u64| self.rows.iter().map(f).sum();
        CycleHeap {
            alloc_bytes: sum(|r| r.alloc_bytes),
            freed_bytes: sum(|r| r.freed_bytes),
            exact_bytes: sum(|r| r.exact_bytes),
            ..Default::default()
        }
    }

    /// Cycles started by each cause, `(period, heap)`.
    pub fn cause_tally(&self) -> (u64, u64) {
        let heap = TriggerCause::HeapBytes.code();
        let heap = self.rows.iter().filter(|r| r.cause == heap).count() as u64;
        (self.rows.len() as u64 - heap, heap)
    }
}

/// Folds a parsed stream's `hp_*` instants into the per-cycle table.
pub fn heap(events: &[ParsedEvent]) -> HeapReport {
    HeapReport {
        rows: fold(events).into_values().collect(),
    }
}

/// Renders the heap table as a plain-text report.
pub fn heap_text(r: &HeapReport) -> String {
    let mut out = String::new();
    if r.rows.is_empty() {
        out.push_str("no hp_* instants — was the run built with the `telemetry` feature?\n");
        return out;
    }
    let (period, pressure) = r.cause_tally();
    let total = r.total();
    out.push_str(&format!(
        "heap pressure over {} cycles ({period} period-triggered, {pressure} heap-triggered): \
         peak {} bytes, {} allocated, {} freed ({:.1}% exact)\n",
        r.rows.len(),
        r.peak(),
        total.alloc_bytes,
        total.freed_bytes,
        total.exact_fraction() * 100.0,
    ));
    out.push_str(
        "cycle  cause     bound     live     peak    alloc_b   freed_b  allocs  frees  exact%  press\n",
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{:>5}  {:<6} {:>8} {:>8} {:>8} {:>10} {:>9} {:>7} {:>6}  {:>5.1}  {:>5.2}\n",
            row.cycle,
            row.cause_name(),
            row.bound,
            row.live_end,
            row.peak,
            row.alloc_bytes,
            row.freed_bytes,
            row.allocs,
            row.frees,
            row.exact_fraction() * 100.0,
            row.pressure(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ledger_events;

    fn one_cycle(cycle: u32, cause: TriggerCause, peak: u64) -> Vec<ParsedEvent> {
        let row = CycleHeap {
            cause: cause.code(),
            bound: 1000,
            live_end: peak / 2,
            peak,
            alloc_bytes: 400,
            freed_bytes: 200,
            allocs: 10,
            frees: 5,
            exact_bytes: 200,
            ..Default::default()
        };
        ledger_events(0, cycle, &row)
    }

    #[test]
    fn folds_rows_per_cycle_and_totals() {
        let mut ev = one_cycle(1, TriggerCause::Period, 800);
        ev.extend(one_cycle(2, TriggerCause::HeapBytes, 1200));
        let r = heap(&ev);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].cycle, 1);
        assert_eq!(r.rows[0].cause_name(), "period");
        assert_eq!(r.rows[1].cause_name(), "heap");
        assert_eq!(r.rows[1].live_end, 600);
        assert_eq!(r.peak(), 1200);
        assert_eq!(r.total().alloc_bytes, 800);
        assert_eq!(r.total().freed_bytes, 400);
        assert!((r.total().exact_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(r.cause_tally(), (1, 1));
        assert!((r.rows[0].pressure() - 0.8).abs() < 1e-9);
        assert!((r.rows[1].pressure() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn last_value_wins_within_a_cycle() {
        let mut ev = one_cycle(3, TriggerCause::Period, 800);
        ev.extend(one_cycle(3, TriggerCause::Period, 900));
        let r = heap(&ev);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].peak, 900);
        assert_eq!(r.rows[0].alloc_bytes, 400, "replaced, not summed");
    }

    #[test]
    fn empty_stream_renders_the_hint() {
        let text = heap_text(&heap(&[]));
        assert!(text.contains("no hp_* instants"), "{text}");
    }

    #[test]
    fn report_renders_the_table() {
        let mut ev = one_cycle(1, TriggerCause::HeapBytes, 950);
        ev.extend(one_cycle(2, TriggerCause::Period, 700));
        let text = heap_text(&heap(&ev));
        assert!(
            text.contains("1 period-triggered, 1 heap-triggered"),
            "{text}"
        );
        assert!(text.contains("peak 950 bytes"), "{text}");
        assert!(text.contains("heap  "), "{text}");
        assert!(text.contains("period"), "{text}");
    }
}
