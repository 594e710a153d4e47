//! Speedup-gap attribution: where did the other `P-1` processors go?
//!
//! The work-stealing runtime's state clock charges every wall-clock
//! nanosecond of every PE to exactly one scheduler state and emits the
//! totals as `sched_*` instants when a pass ends. This module folds
//! those instants into per-PE clocks, estimates the workload's
//! inherent span (critical path), and splits the gap between observed
//! PE-time and useful work into named causes:
//!
//! * **useful work** — `sched_work`: executing tasks.
//! * **steal overhead** — `sched_steal_search`: probing victims.
//! * **mailbox delay** — `sched_mailbox_drain`: draining remote sends.
//! * **parking** — `sched_park`: blocked on the idle condvar.
//! * **termination** — `sched_quiesce`: the quiescence barrier.
//! * **idle** — `sched_spin` + `sched_yield`, split against the span
//!   estimate: with total work `W`, span `S` and `P` processors, even a
//!   perfect scheduler runs for `max(W/P, S)` wall-clock, so
//!   `max(0, P*S - W)` of idle time is a **true span limit**; whatever
//!   idle remains is **load imbalance** the scheduler failed to smooth.
//!
//! The span estimate comes from the flow-event critical path when the
//! stream carries `flow_send`/`flow_recv` pairs, else from a
//! `bsp_span_us` instant (a round-count estimate a bench can emit: the
//! simulator's rounds under `SchedPolicy::Rounds`, where each PE runs one
//! task per round; the instant keeps its historical name), else idle is attributed wholly to load imbalance and the report says
//! so. By the clock's exact-sum invariant a finished episode accounts
//! for 100% of its span; the report prints the worst PE's accounted
//! fraction so a truncated stream is visible.

use std::collections::BTreeMap;

use dgr_telemetry::{PeSchedSnapshot, SchedState};

use crate::{critical_paths, fold, match_flows, Kind, ParsedEvent};

/// Where the span estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSource {
    /// Summed per-cycle critical paths of matched flow edges.
    Flow,
    /// A `bsp_span_us` instant emitted by the bench harness: serial wall
    /// time scaled by the `SchedPolicy::Rounds` round counts.
    Bsp,
    /// No estimate available; idle is all called load imbalance.
    None,
}

impl SpanSource {
    /// Human-readable label for the report.
    pub fn name(self) -> &'static str {
        match self {
            SpanSource::Flow => "flow critical path",
            SpanSource::Bsp => "bsp round estimate",
            SpanSource::None => "none",
        }
    }
}

/// Per-PE clocks plus the span estimate — the input to [`attribution`].
#[derive(Debug, Clone)]
pub struct BlameReport {
    /// One clock per PE that emitted `sched_*` instants, by PE id: the
    /// sum of its per-pass ledgers.
    pub pes: BTreeMap<u64, PeSchedSnapshot>,
    /// Estimated inherent span of the workload, nanoseconds.
    pub est_span_ns: Option<u64>,
    /// Provenance of `est_span_ns`.
    pub span_source: SpanSource,
}

/// Folds a parsed stream into per-PE state clocks and a span estimate.
///
/// The runtime emits per-pass deltas and the fold sums them, so a stream
/// holding several passes on one registry folds to the true multi-pass
/// clock — each pass's instants carry only its own time, and spans add
/// because the span instant is the pass's accounted time, not the
/// wall-clock window.
pub fn blame(events: &[ParsedEvent]) -> BlameReport {
    let bsp_span_us = events
        .iter()
        .rfind(|e| e.kind == Kind::Instant && e.name == "bsp_span_us")
        .map(|e| e.value);
    let graph = match_flows(events);
    let (est_span_ns, span_source) = if !graph.edges.is_empty() {
        let us: u64 = critical_paths(&graph).iter().map(|p| p.span_us).sum();
        (Some(us * 1000), SpanSource::Flow)
    } else if let Some(us) = bsp_span_us {
        (Some(us * 1000), SpanSource::Bsp)
    } else {
        (None, SpanSource::None)
    };
    BlameReport {
        pes: fold(events),
        est_span_ns,
        span_source,
    }
}

/// The speedup gap split into causes, each a fraction of total PE-time
/// (the sum of every PE's episode span). The fractions plus `work` sum
/// to each PE's accounted share, i.e. to ~1.0 for finished episodes.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Useful work.
    pub work: f64,
    /// Steal overhead (victim probing).
    pub steal: f64,
    /// Mailbox drain delay.
    pub mailbox: f64,
    /// Parked on the idle condvar.
    pub park: f64,
    /// Quiescence/termination barrier.
    pub quiesce: f64,
    /// Idle that even a perfect scheduler could not remove, bounded by
    /// the span estimate. Zero when no estimate is available.
    pub span_limit: f64,
    /// Idle beyond the span bound: work existed elsewhere but this PE
    /// spun or yielded instead of getting it.
    pub imbalance: f64,
    /// Worst per-PE accounted fraction — the report's confidence.
    pub min_accounted: f64,
}

impl Attribution {
    /// The largest non-work cause, as `(label, fraction)`.
    pub fn dominant(&self) -> (&'static str, f64) {
        let causes = [
            ("steal overhead", self.steal),
            ("mailbox delay", self.mailbox),
            ("parking", self.park),
            ("termination", self.quiesce),
            ("true span limit", self.span_limit),
            ("load imbalance", self.imbalance),
        ];
        causes
            .into_iter()
            .fold(("none", 0.0), |acc, c| if c.1 > acc.1 { c } else { acc })
    }
}

/// Computes the attribution from a [`BlameReport`].
pub fn attribution(r: &BlameReport) -> Attribution {
    let total_span: u64 = r.pes.values().map(|c| c.span_ns).sum();
    if total_span == 0 {
        return Attribution {
            min_accounted: 1.0,
            ..Default::default()
        };
    }
    let sum = |s: SchedState| r.pes.values().map(|c| c.state_ns(s)).sum::<u64>();
    let work = sum(SchedState::Work);
    let idle = sum(SchedState::Spin) + sum(SchedState::Yield);
    // max(0, P*S - W) of idle is unavoidable: wall >= max(W/P, S), so a
    // perfect run still burns that much PE-time waiting on the chain.
    let unavoidable = match r.est_span_ns {
        Some(s) => (s.saturating_mul(r.pes.len() as u64)).saturating_sub(work),
        None => 0,
    };
    let span_limit = idle.min(unavoidable);
    let frac = |ns: u64| ns as f64 / total_span as f64;
    Attribution {
        work: frac(work),
        steal: frac(sum(SchedState::StealSearch)),
        mailbox: frac(sum(SchedState::MailboxDrain)),
        park: frac(sum(SchedState::Park)),
        quiesce: frac(sum(SchedState::Quiesce)),
        span_limit: frac(span_limit),
        imbalance: frac(idle - span_limit),
        min_accounted: r
            .pes
            .values()
            .map(PeSchedSnapshot::accounted)
            .fold(1.0f64, f64::min),
    }
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Renders the blame report and its attribution as plain text.
pub fn blame_text(r: &BlameReport) -> String {
    let mut out = String::new();
    if r.pes.is_empty() {
        out.push_str("no sched_* instants — was the run built with the `telemetry` feature?\n");
        return out;
    }
    let a = attribution(r);
    match r.est_span_ns {
        Some(ns) => out.push_str(&format!(
            "speedup-gap attribution over {} PEs (span estimate {} us via {})\n",
            r.pes.len(),
            ns / 1000,
            r.span_source.name()
        )),
        None => out.push_str(&format!(
            "speedup-gap attribution over {} PEs (no span estimate — idle counts as imbalance)\n",
            r.pes.len()
        )),
    }
    out.push_str("pe  span_us  acct%   work%  steal%  spin%  yield%  park%  mbox%  quies%\n");
    for (pe, c) in &r.pes {
        let f = |s: SchedState| {
            if c.span_ns == 0 {
                0.0
            } else {
                c.state_ns(s) as f64 / c.span_ns as f64 * 100.0
            }
        };
        out.push_str(&format!(
            "{:>2}  {:>7}  {:>5.1}  {:>6.1}  {:>6.1}  {:>5.1}  {:>6.1}  {:>5.1}  {:>5.1}  {:>6.1}\n",
            pe,
            c.span_ns / 1000,
            c.accounted() * 100.0,
            f(SchedState::Work),
            f(SchedState::StealSearch),
            f(SchedState::Spin),
            f(SchedState::Yield),
            f(SchedState::Park),
            f(SchedState::MailboxDrain),
            f(SchedState::Quiesce),
        ));
    }
    out.push_str("aggregate (fractions of total PE-time):\n");
    out.push_str(&format!("  useful work      {:>7}\n", pct(a.work)));
    out.push_str(&format!("  steal overhead   {:>7}\n", pct(a.steal)));
    out.push_str(&format!("  mailbox delay    {:>7}\n", pct(a.mailbox)));
    out.push_str(&format!("  parking          {:>7}\n", pct(a.park)));
    out.push_str(&format!("  termination      {:>7}\n", pct(a.quiesce)));
    out.push_str(&format!(
        "  idle             {:>7} = true span limit {} + load imbalance {}\n",
        pct(a.span_limit + a.imbalance),
        pct(a.span_limit),
        pct(a.imbalance)
    ));
    let (cause, frac) = a.dominant();
    out.push_str(&format!(
        "dominant gap cause: {cause} ({} of PE-time)\n",
        pct(frac)
    ));
    out.push_str(&format!(
        "accounting: worst PE covers {} of its wall-clock (target >= 95%)\n",
        pct(a.min_accounted)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{instant, ledger_events};

    /// One pass's ledger for a PE: `work` ns working, `spin` ns spinning.
    fn pass(pe: u16, work: u64, spin: u64) -> Vec<ParsedEvent> {
        let mut clock = PeSchedSnapshot::default();
        clock.ns[SchedState::Work.index()] = work;
        clock.ns[SchedState::Spin.index()] = spin;
        clock.span_ns = work + spin;
        ledger_events(pe, 0, &clock)
    }

    /// A two-PE episode: PE 0 works the whole span, PE 1 works half and
    /// spins the other half.
    fn two_pe_stream(extra: Vec<ParsedEvent>) -> Vec<ParsedEvent> {
        let mut ev = pass(0, 1_000_000, 0);
        ev.extend(pass(1, 500_000, 500_000));
        ev.extend(extra);
        ev
    }

    #[test]
    fn clocks_fold_per_pe_by_summing_pass_deltas() {
        // A second pass appends its own deltas for PE 0; the folded
        // clock is the sum of both passes.
        let r = blame(&two_pe_stream(pass(0, 2_000_000, 0)));
        assert_eq!(r.pes.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(r.pes[&0].state_ns(SchedState::Work), 3_000_000);
        assert_eq!(r.pes[&0].span_ns, 3_000_000);
        assert!((r.pes[&0].accounted() - 1.0).abs() < 1e-12);
        assert_eq!(r.pes[&1].total_ns(), 1_000_000);
        assert!((r.pes[&1].accounted() - 1.0).abs() < 1e-12);
        assert_eq!(r.span_source, SpanSource::None);
    }

    #[test]
    fn without_a_span_estimate_idle_is_all_imbalance() {
        let r = blame(&two_pe_stream(vec![]));
        let a = attribution(&r);
        assert!((a.work - 0.75).abs() < 1e-9, "work {}", a.work);
        assert!((a.imbalance - 0.25).abs() < 1e-9);
        assert_eq!(a.span_limit, 0.0);
        assert_eq!(a.dominant().0, "load imbalance");
        assert!((a.min_accounted - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bsp_span_estimate_reclassifies_unavoidable_idle() {
        // Span estimate 900us: P*S - W = 2*900k - 1500k = 300k ns of the
        // 500k idle is unavoidable; 200k remains imbalance.
        let r = blame(&two_pe_stream(vec![instant(0, 0, "bsp_span_us", 900)]));
        assert_eq!(r.span_source, SpanSource::Bsp);
        assert_eq!(r.est_span_ns, Some(900_000));
        let a = attribution(&r);
        assert!((a.span_limit - 0.15).abs() < 1e-9, "{}", a.span_limit);
        assert!((a.imbalance - 0.10).abs() < 1e-9, "{}", a.imbalance);
        assert_eq!(a.dominant().0, "true span limit");
    }

    #[test]
    fn flow_edges_outrank_the_bsp_estimate() {
        let flow = |ts_us, pe, kind| ParsedEvent {
            ts_us,
            kind,
            ..instant(pe, 1, "M_R", 7)
        };
        let flows = vec![
            flow(10, 0, Kind::FlowSend),
            flow(260, 1, Kind::FlowRecv),
            instant(0, 0, "bsp_span_us", 900),
        ];
        let r = blame(&two_pe_stream(flows));
        assert_eq!(r.span_source, SpanSource::Flow);
        assert_eq!(r.est_span_ns, Some(250_000), "one 250us hop");
    }

    #[test]
    fn report_renders_every_cause_and_the_accounting_line() {
        let ev = two_pe_stream(vec![instant(0, 0, "bsp_span_us", 900)]);
        let text = blame_text(&blame(&ev));
        for needle in [
            "speedup-gap attribution over 2 PEs",
            "bsp round estimate",
            "useful work",
            "steal overhead",
            "mailbox delay",
            "parking",
            "termination",
            "true span limit",
            "load imbalance",
            "dominant gap cause: true span limit",
            "target >= 95%",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_stream_renders_the_hint() {
        let text = blame_text(&blame(&[]));
        assert!(text.contains("no sched_* instants"), "{text}");
    }
}
