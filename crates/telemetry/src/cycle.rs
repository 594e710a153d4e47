//! Per-marking-cycle reports and the timeline renderers built on them.
//!
//! One [`CycleReport`] summarises a complete garbage-collection marking
//! cycle: which phases ran and for how long, how much marking traffic it
//! generated (local vs. remote), the mark-task backlog high-water mark,
//! per-priority marked counts, and what restructuring reclaimed. The GC
//! driver fills one in per cycle; renderers here turn a single report —
//! or a whole timeline of them — into plain text or JSON.

/// Everything measured about one marking cycle.
///
/// Counter-derived fields (`mark_events`, `sends_local`, `sends_remote`,
/// `mark_backlog_hw`, …) are zero when the `telemetry` feature is off;
/// phase durations and census fields are always populated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleReport {
    /// Cycle number (1-based).
    pub cycle: u32,
    /// Whether the synchronous M_T phase ran in this cycle.
    pub ran_mt: bool,
    /// Whether the cycle was aborted before restructuring.
    pub aborted: bool,
    /// Wall-clock duration of the M_T phase, microseconds.
    pub mt_us: u64,
    /// Wall-clock duration of the concurrent M_R phase, microseconds.
    pub mr_us: u64,
    /// Wall-clock duration of the settle drive, microseconds.
    pub settle_us: u64,
    /// Wall-clock duration of restructuring (classify + reclaim), microseconds.
    pub restructure_us: u64,
    /// Total cycle duration, microseconds.
    pub total_us: u64,
    /// Marking events processed during the cycle.
    pub mark_events: u64,
    /// Reduction events that ran concurrently with M_R.
    pub red_events_during_marking: u64,
    /// Intra-PE sends during the cycle.
    pub sends_local: u64,
    /// Cross-PE sends during the cycle.
    pub sends_remote: u64,
    /// High-water mark of the marking-lane backlog during the cycle.
    pub mark_backlog_hw: u64,
    /// Tasks marked by M_T.
    pub marked_t: usize,
    /// Tasks marked by M_R, by priority (index 0 = priority 3 / vital,
    /// 1 = priority 2 / eager, 2 = priority 1 / reserve).
    pub marked_by_priority: [usize; 3],
    /// Garbage tasks found by the classification census (pre-reclaim).
    pub garbage: usize,
    /// Irrelevant tasks found by the census.
    pub irrelevant: usize,
    /// Deadlocked tasks reported by the census.
    pub deadlocked: usize,
    /// Tasks reclaimed from the garbage set.
    pub reclaimed: usize,
    /// Irrelevant tasks expunged.
    pub expunged: usize,
    /// Tasks moved to a different lane by re-laning.
    pub relaned: usize,
}

impl CycleReport {
    /// Total tasks marked by M_R across priorities.
    pub fn marked_r(&self) -> usize {
        self.marked_by_priority.iter().sum()
    }

    /// One-line plain-text rendering.
    pub fn render_text(&self) -> String {
        format!(
            "cycle {:>4} [{}{}] M_T {:>7}us  M_R {:>7}us  settle {:>7}us  restr {:>7}us  \
             marked {}+{} (p3/p2/p1 {}/{}/{})  msgs {}l/{}r  backlog^ {}  \
             gar {} irr {} dead {}  reclaimed {} expunged {} relaned {}",
            self.cycle,
            if self.ran_mt { "T" } else { "-" },
            if self.aborted { "!" } else { "R" },
            self.mt_us,
            self.mr_us,
            self.settle_us,
            self.restructure_us,
            self.marked_t,
            self.marked_r(),
            self.marked_by_priority[0],
            self.marked_by_priority[1],
            self.marked_by_priority[2],
            self.sends_local,
            self.sends_remote,
            self.mark_backlog_hw,
            self.garbage,
            self.irrelevant,
            self.deadlocked,
            self.reclaimed,
            self.expunged,
            self.relaned,
        )
    }

    /// Single JSON object rendering. The key set is stable — it is part
    /// of the format contract covered by golden tests.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"cycle\": {}, \"ran_mt\": {}, \"aborted\": {}, \
             \"mt_us\": {}, \"mr_us\": {}, \"settle_us\": {}, \"restructure_us\": {}, \
             \"total_us\": {}, \"mark_events\": {}, \"red_events_during_marking\": {}, \
             \"sends_local\": {}, \"sends_remote\": {}, \"mark_backlog_hw\": {}, \
             \"marked_t\": {}, \"marked_r\": {}, \"marked_by_priority\": [{}, {}, {}], \
             \"garbage\": {}, \"irrelevant\": {}, \"deadlocked\": {}, \
             \"reclaimed\": {}, \"expunged\": {}, \"relaned\": {}}}",
            self.cycle,
            self.ran_mt,
            self.aborted,
            self.mt_us,
            self.mr_us,
            self.settle_us,
            self.restructure_us,
            self.total_us,
            self.mark_events,
            self.red_events_during_marking,
            self.sends_local,
            self.sends_remote,
            self.mark_backlog_hw,
            self.marked_t,
            self.marked_r(),
            self.marked_by_priority[0],
            self.marked_by_priority[1],
            self.marked_by_priority[2],
            self.garbage,
            self.irrelevant,
            self.deadlocked,
            self.reclaimed,
            self.expunged,
            self.relaned,
        )
    }
}

/// Renders a timeline of cycle reports as a JSON array.
pub fn timeline_json(reports: &[CycleReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.render_json());
        if i + 1 < reports.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders a timeline of cycle reports as a plain-text table, one cycle
/// per line, with a trailing aggregate line.
pub fn timeline_text(reports: &[CycleReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render_text());
        out.push('\n');
    }
    let cycles = reports.len();
    let total_us: u64 = reports.iter().map(|r| r.total_us).sum();
    let marked: usize = reports.iter().map(|r| r.marked_t + r.marked_r()).sum();
    let reclaimed: usize = reports.iter().map(|r| r.reclaimed).sum();
    out.push_str(&format!(
        "total: {cycles} cycles, {total_us}us, {marked} marked, {reclaimed} reclaimed\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleReport {
        CycleReport {
            cycle: 2,
            ran_mt: true,
            aborted: false,
            mt_us: 10,
            mr_us: 200,
            settle_us: 5,
            restructure_us: 30,
            total_us: 245,
            mark_events: 40,
            red_events_during_marking: 12,
            sends_local: 30,
            sends_remote: 10,
            mark_backlog_hw: 6,
            marked_t: 3,
            marked_by_priority: [4, 2, 1],
            garbage: 5,
            irrelevant: 2,
            deadlocked: 1,
            reclaimed: 5,
            expunged: 2,
            relaned: 7,
        }
    }

    #[test]
    fn marked_r_sums_priorities() {
        assert_eq!(sample().marked_r(), 7);
    }

    #[test]
    fn text_rendering_mentions_the_load_bearing_numbers() {
        let s = sample().render_text();
        assert!(s.contains("cycle    2"));
        assert!(s.contains("marked 3+7"));
        assert!(s.contains("p3/p2/p1 4/2/1"));
        assert!(s.contains("30l/10r"));
    }

    #[test]
    fn json_rendering_is_stable() {
        let s = sample().render_json();
        for key in [
            "\"cycle\": 2",
            "\"ran_mt\": true",
            "\"aborted\": false",
            "\"mt_us\": 10",
            "\"mr_us\": 200",
            "\"settle_us\": 5",
            "\"restructure_us\": 30",
            "\"total_us\": 245",
            "\"mark_events\": 40",
            "\"red_events_during_marking\": 12",
            "\"sends_local\": 30",
            "\"sends_remote\": 10",
            "\"mark_backlog_hw\": 6",
            "\"marked_t\": 3",
            "\"marked_r\": 7",
            "\"marked_by_priority\": [4, 2, 1]",
            "\"garbage\": 5",
            "\"irrelevant\": 2",
            "\"deadlocked\": 1",
            "\"reclaimed\": 5",
            "\"expunged\": 2",
            "\"relaned\": 7",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn timeline_json_is_an_array() {
        let t = timeline_json(&[sample(), sample()]);
        assert!(t.starts_with("[\n"));
        assert!(t.ends_with("]\n"));
        assert_eq!(t.matches("\"cycle\": 2").count(), 2);
        assert_eq!(t.matches(",\n").count(), 1, "one separator for two items");
    }

    #[test]
    fn timeline_text_has_aggregate_line() {
        let t = timeline_text(&[sample(), sample()]);
        assert!(t.ends_with("total: 2 cycles, 490us, 20 marked, 10 reclaimed\n"));
    }
}
