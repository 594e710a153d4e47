//! The endless mark-and-restructure cycle, interleaved with reduction.

use std::collections::VecDeque;
use std::sync::LazyLock;
use std::time::Instant;

use dgr_core::{MarkMsg, RMode};
use dgr_graph::{MarkParent, Priority, Requester, Slot, Value};
use dgr_reduction::{RedMsg, RunOutcome, System};
use dgr_sim::Lane;
use dgr_telemetry::heartbeat::PROGRESS_BATCH;
use dgr_telemetry::{
    CounterId, CycleHeap, Floater, GaugeId, HeartbeatHandle, HistId, LifecycleSnapshot,
    LifecycleTracker, Phase, TriggerCause,
};

use crate::classify::{classify_pending_tasks, MarkCensus};
use crate::report::{CycleReport, GcStats};

/// Bound on the per-cycle timeline kept by [`GcDriver`]: long-running
/// drivers retain the most recent this-many cycles.
pub const TIMELINE_CAP: usize = 4096;

/// During a marking phase, up to this many marking tasks are delivered for
/// every one policy-scheduled task (the paper's Section 6 remark that
/// marking tasks can take precedence), so marking outpaces a mutator that
/// keeps growing the graph.
const MARKING_SERVICE_RATIO: u32 = 3;

/// A marking phase's liveness pulse, beaten in batches: one clock read per
/// [`PROGRESS_BATCH`] deliveries instead of one per event.
struct Pulse<'a>(&'a HeartbeatHandle);

impl Pulse<'_> {
    /// The phase made its `n`-th delivery: beats if that closes a batch.
    fn at(&self, n: u64) {
        if n.is_multiple_of(PROGRESS_BATCH) {
            self.0.progress(PROGRESS_BATCH);
        }
    }

    /// The phase stopped after `n` deliveries: beats the partial batch.
    fn end(&self, n: u64) {
        let rest = n % PROGRESS_BATCH;
        if rest > 0 {
            self.0.progress(rest);
        }
    }
}

/// What starts a marking cycle.
///
/// The paper runs the collector "continuously"; this engine quantizes
/// that into cycles and lets the start condition couple to heap
/// pressure. The byte clock consulted is [`GraphStore::live_bytes`] —
/// always on, so pressure triggering works without the `telemetry`
/// feature.
///
/// [`GraphStore::live_bytes`]: dgr_graph::GraphStore::live_bytes
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcTrigger {
    /// Every [`GcConfig::period`] reduction events (the historical
    /// behavior, and the default).
    Period,
    /// The moment live heap bytes reach the bound. A run that never
    /// reaches it only cycles when the mutator drains.
    HeapBytes(u64),
    /// Whichever of the two fires first each inter-cycle window.
    Either(u64),
}

impl GcTrigger {
    /// The byte bound, if this trigger watches one.
    pub fn heap_bound(self) -> Option<u64> {
        match self {
            GcTrigger::Period => None,
            GcTrigger::HeapBytes(b) | GcTrigger::Either(b) => Some(b),
        }
    }

    /// Checks the trigger against the current inter-cycle window: `n`
    /// events delivered since the last cycle, `live` bytes on the heap.
    /// Returns why a cycle should start now, or `None` to keep reducing.
    /// The driver consults this only after at least one delivery, so a
    /// bound below the irreducible live set degrades to one cycle per
    /// reduction event instead of a cycle storm that starves the
    /// mutator. (Public only because the benchmark's traced run,
    /// `benchmark/src/reduce.rs`, re-expresses the driver's loop with it;
    /// code that needs to act between windows uses
    /// [`GcDriver::run_more_with`].)
    pub fn fired(self, n: u64, period: u64, live: u64) -> Option<TriggerCause> {
        match self {
            GcTrigger::Period => (n >= period).then_some(TriggerCause::Period),
            GcTrigger::HeapBytes(b) => (live >= b).then_some(TriggerCause::HeapBytes),
            GcTrigger::Either(b) => {
                if live >= b {
                    Some(TriggerCause::HeapBytes)
                } else {
                    (n >= period).then_some(TriggerCause::Period)
                }
            }
        }
    }
}

/// Configuration of the GC driver.
#[derive(Debug, Clone, PartialEq)]
pub struct GcConfig {
    /// Reduction events delivered between cycles.
    pub period: u64,
    /// What starts a cycle (see [`GcTrigger`]). [`GcTrigger::Period`]
    /// consults `period`; the byte-bound variants consult the graph's
    /// always-on live-bytes clock.
    pub trigger: GcTrigger,
    /// Run `M_T` every this many cycles (`1` = every cycle; the paper's
    /// Section 6 suggests running it only occasionally since it exists
    /// solely for deadlock detection). `0` disables `M_T` entirely.
    pub mt_every: u32,
    /// Return garbage to the free list.
    pub reclaim: bool,
    /// Expunge irrelevant tasks from the pools (Property 6).
    pub expunge: bool,
    /// Recover deadlocked vertices by returning `⊥` to their requesters
    /// (footnote 5's `is-bottom` pseudo-function).
    pub deadlock_recovery: bool,
    /// Maximum events per marking phase before the cycle is abandoned
    /// (protects against marking chasing an unboundedly growing region).
    pub phase_budget: u64,
    /// Overall event budget for [`GcDriver::run`].
    pub max_total_events: u64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            period: 200,
            trigger: GcTrigger::Period,
            mt_every: 1,
            reclaim: true,
            expunge: true,
            deadlock_recovery: false,
            phase_budget: 2_000_000,
            max_total_events: 100_000_000,
        }
    }
}

/// Drives a reduction [`System`] with concurrent garbage collection, task
/// deletion, deadlock detection and dynamic task prioritization.
#[derive(Debug)]
pub struct GcDriver {
    /// The underlying system (graph, templates, simulator).
    pub sys: System,
    cfg: GcConfig,
    cycle: u32,
    stats: GcStats,
    timeline: VecDeque<CycleReport>,
    heartbeat: HeartbeatHandle,
    lifecycle: LifecycleTracker,
}

impl GcDriver {
    /// Wraps a system.
    pub fn new(sys: System, cfg: GcConfig) -> Self {
        GcDriver {
            sys,
            cfg,
            cycle: 0,
            stats: GcStats::default(),
            timeline: VecDeque::new(),
            heartbeat: HeartbeatHandle::new(),
            lifecycle: LifecycleTracker::new(),
        }
    }

    /// The vertex-lifecycle tracker (the feature-selected facade — a
    /// zero-sized no-op without `telemetry`). Its census runs on the same
    /// garbage set `restructure` already computes, so reclamation
    /// latencies are exact by construction.
    pub fn lifecycle(&self) -> &LifecycleTracker {
        &self.lifecycle
    }

    /// Running lifecycle totals (empty without the `telemetry` feature).
    pub fn lifecycle_snapshot(&self) -> LifecycleSnapshot {
        self.lifecycle.snapshot()
    }

    /// Attaches a liveness pulse (e.g. `ObserveHub::heartbeat_handle()`):
    /// every marking phase boundary, delivery batch and cycle completion
    /// beats it, so an external watchdog can tell a stalled wave from a
    /// long one. The default handle is the feature-selected facade — a
    /// zero-sized no-op without `telemetry` — so unattached drivers pay
    /// nothing.
    pub fn attach_heartbeat(&mut self, hb: HeartbeatHandle) {
        self.heartbeat = hb;
    }

    /// Every cycle's report (phase wall-clock durations, marking counts,
    /// census and tallies), oldest first. Bounded at `TIMELINE_CAP`
    /// cycles: older entries are dropped.
    pub fn timeline(&self) -> &VecDeque<CycleReport> {
        &self.timeline
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// The most recent cycle's report: the timeline's newest entry, or an
    /// empty report before the first cycle.
    pub fn last_report(&self) -> &CycleReport {
        static NONE: LazyLock<CycleReport> = LazyLock::new(CycleReport::default);
        self.timeline.back().unwrap_or(&NONE)
    }

    /// The configuration.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Demands the root and runs reduction with periodic GC cycles until
    /// the result arrives, the system is quiescent, or the budget runs
    /// out.
    pub fn run(&mut self) -> RunOutcome {
        self.sys.demand_root();
        self.run_more()
    }

    /// Continues running without demanding the root again.
    pub fn run_more(&mut self) -> RunOutcome {
        self.run_more_with(|_| {})
    }

    /// [`run_more`](Self::run_more), calling `at_window_end` each time a
    /// reduction window ends: before that window's cycle, or before
    /// returning if the window ended the run. The hook only observes: the
    /// deliveries and the cycles are `run_more`'s.
    pub fn run_more_with(&mut self, mut at_window_end: impl FnMut(&GcDriver)) -> RunOutcome {
        loop {
            let mut n = 0;
            let mut cause = None;
            while self.sys.result.is_none() {
                // Consult the trigger only after a delivery: a byte bound
                // the collector cannot get back under must still let the
                // mutator make progress between cycles.
                if n > 0 {
                    cause = self
                        .cfg
                        .trigger
                        .fired(n, self.cfg.period, self.sys.graph.live_bytes());
                    if cause.is_some() {
                        break;
                    }
                }
                if !self.sys.step() {
                    break;
                }
                n += 1;
            }
            at_window_end(self);
            if let Some(v) = &self.sys.result {
                return RunOutcome::Value(v.clone());
            }
            let was_quiescent = self.sys.sim().is_empty();
            // A drained mutator still gets its cycle (quiescence and
            // deadlock detection need one); charge it to the period.
            self.run_cycle_as(cause.unwrap_or(TriggerCause::Period));
            if let Some(v) = &self.sys.result {
                return RunOutcome::Value(v.clone());
            }
            if was_quiescent && self.sys.sim().is_empty() {
                // No tasks before the cycle, none created by it (no
                // recovery): the computation is over without a result.
                return RunOutcome::Quiescent;
            }
            if self.sys.events() >= self.cfg.max_total_events {
                return RunOutcome::Budget;
            }
        }
    }

    /// Runs one complete mark-and-restructure cycle, concurrently with any
    /// pending reduction work. Returns the cycle's report. A directly
    /// invoked cycle is charged to the period trigger.
    pub fn run_cycle(&mut self) -> CycleReport {
        self.run_cycle_as(TriggerCause::Period)
    }

    /// [`run_cycle`](Self::run_cycle), tagged with what started it. The
    /// cause lands in the heap tracker's tallies and the per-cycle
    /// `hp_cause` instant.
    pub fn run_cycle_as(&mut self, cause: TriggerCause) -> CycleReport {
        self.cycle += 1;
        self.sys.heap_tracker_mut().record_trigger(cause);
        self.sys.begin_cycle(self.cycle);
        let run_mt = self.cfg.mt_every > 0 && (self.cycle - 1).is_multiple_of(self.cfg.mt_every);
        let mut report = CycleReport {
            cycle: self.cycle,
            ran_mt: run_mt,
            ..Default::default()
        };
        let cycle_start = Instant::now();
        self.lifecycle.begin_cycle(u64::from(self.cycle));
        let snap0 = self.sys.telemetry().snapshot();
        self.sys
            .telemetry()
            .begin(0, self.cycle, Phase::Gc, "cycle");
        // Both marking processes stay *in force* (mutator cooperation
        // active) until restructuring completes: a vertex allocated and
        // spliced in after a process's `done` fired must still be colored,
        // or it would be misread as garbage (the paper's Lemma 1 argument
        // relies on axiom 2 "also applying after t_c").
        // `M_T` runs first (Theorem 2: deadlock detection is sound only
        // in that order), then `M_R`; an aborted phase ends the cycle.
        if run_mt {
            report.mt_us =
                self.timed_phase(Phase::Mt, Phase::Mt.name(), |gc| gc.phase_t(&mut report));
        }
        // Marking-lane deliveries per marking tree: the message-complexity
        // split the lifecycle meters charge. `M_T` is its own pass; `M_R`
        // and the settle drive are the rest.
        let lc_mt = report.mark_events;
        if !report.aborted {
            report.mr_us =
                self.timed_phase(Phase::Mr, Phase::Mr.name(), |gc| gc.phase_r(&mut report));
        }
        // Cooperation during `M_R` may have retracted `M_T`'s `done` flag
        // (orphan marks hung on the virtual `troot`); settle both before
        // reading the marks.
        if !report.aborted {
            report.settle_us = self.timed_phase(Phase::Mr, "settle", |gc| {
                gc.drive_phase(&mut report, |s| {
                    s.mark_state.r_done && (!run_mt || s.mark_state.t_done)
                })
            });
        }
        if !report.aborted {
            report.restructure_us = self.timed_phase(Phase::Classify, "restructure", |gc| {
                gc.restructure(&mut report, run_mt)
            });
        }
        self.sys.mark_state.end_r();
        self.sys.mark_state.end_t();
        self.sys.telemetry().end(0, self.cycle, Phase::Gc, "cycle");
        report.total_us = cycle_start.elapsed().as_micros() as u64;
        report.mark_backlog_hw = self.sys.sim().stats().lane_high_water(Lane::Marking) as u64;
        // The simulator's lanes are system-wide, so the backlog peak and
        // the cycle time land on PE 0's shard like the restructure tallies.
        let shard = self.sys.telemetry().pe(0);
        shard.gauge_max(GaugeId::MailboxHighWater, report.mark_backlog_hw as i64);
        shard.observe(HistId::CycleUs, report.total_us);
        let snap1 = self.sys.telemetry().snapshot();
        report.sends_local =
            snap1.counter_total(CounterId::SendsLocal) - snap0.counter_total(CounterId::SendsLocal);
        report.sends_remote = snap1.counter_total(CounterId::SendsRemote)
            - snap0.counter_total(CounterId::SendsRemote);
        self.emit_restructure_tallies(&report);
        self.close_lifecycle_cycle(&report, lc_mt, report.mark_events - lc_mt);
        self.close_heap_cycle(cause);
        self.stats.absorb(&report);
        if self.timeline.len() == TIMELINE_CAP {
            self.timeline.pop_front();
        }
        self.timeline.push_back(report.clone());
        self.heartbeat.cycle_done();
        report
    }

    /// The single emission point for the restructure tallies: the per-PE
    /// counter shards and the per-cycle instants all read the same report
    /// here, so the lifecycle stamps (taken on the very same garbage set)
    /// cannot drift from the counters.
    fn emit_restructure_tallies(&self, report: &CycleReport) {
        let reg = self.sys.telemetry();
        let shard = reg.pe(0);
        shard.add(CounterId::Reclaimed, report.reclaimed as u64);
        shard.add(CounterId::Expunged, report.expunged as u64);
        shard.add(CounterId::Relaned, report.relaned as u64);
        reg.instant(
            0,
            self.cycle,
            Phase::Gc,
            "reclaimed",
            report.reclaimed as u64,
        );
        reg.instant(0, self.cycle, Phase::Gc, "expunged", report.expunged as u64);
        reg.instant(0, self.cycle, Phase::Gc, "relaned", report.relaned as u64);
    }

    /// Closes the cycle's lifecycle ledger and emits it (with the worst
    /// floaters) for an offline analyzer (`dgr-trace lifecycle`) to fold
    /// back into the float/latency/message-cost table. An aborted cycle
    /// never censused, so its ledger stays open (stamps must not be swept
    /// as resurrections) and nothing is emitted.
    fn close_lifecycle_cycle(&mut self, report: &CycleReport, lc_mt: u64, lc_mr: u64) {
        if report.aborted {
            return;
        }
        // Section 4 charges marking with O(1) messages per arc of the
        // marking tree: one mark per vertex claimed plus its return.
        // `2 × marked` is that bound in messages; the efficiency ratio
        // exposes re-marks of shared vertices and priority upgrades.
        let bound = 2 * (report.marked_r() + report.marked_t) as u64;
        self.lifecycle.meter_msgs(lc_mt, lc_mr, bound);
        let lc = self.lifecycle.end_cycle();
        debug_assert!(
            !self.lifecycle.enabled() || lc.reclaimed == report.reclaimed as u64,
            "lifecycle reclaim stamps drifted from the restructure tally"
        );
        let reg = self.sys.telemetry();
        reg.emit(0, self.cycle, &lc);
        for (idx, age) in self.lifecycle.worst_floaters(4) {
            reg.emit(0, self.cycle, &Floater::new(idx, age));
        }
    }

    /// Closes the cycle's heap window and emits its ledger, stamped with
    /// what started the cycle, for `dgr-trace heap` to fold back into the
    /// live/peak/cause table. Restructure frees the garbage set directly
    /// on the graph — bypassing dispatch — so the journal is drained here
    /// first; the window then carries every byte the cycle reclaimed.
    fn close_heap_cycle(&mut self, cause: TriggerCause) {
        self.sys.drain_heap_journal();
        let window = self
            .sys
            .heap_tracker_mut()
            .close_cycle(u64::from(self.cycle));
        let ledger = CycleHeap {
            cause: cause.code(),
            bound: self.cfg.trigger.heap_bound().unwrap_or(0),
            ..window
        };
        self.sys.telemetry().emit(0, self.cycle, &ledger);
    }

    /// Runs one phase of a cycle wrapped in a telemetry span, a heartbeat
    /// phase and a wall-clock timer; returns the elapsed microseconds.
    fn timed_phase(&mut self, phase: Phase, name: &'static str, f: impl FnOnce(&mut Self)) -> u64 {
        self.sys.telemetry().begin(0, self.cycle, phase, name);
        self.heartbeat.begin_phase(self.cycle, phase);
        let t = Instant::now();
        f(self);
        let us = t.elapsed().as_micros() as u64;
        self.heartbeat.end_phase();
        self.sys.telemetry().end(0, self.cycle, phase, name);
        us
    }

    /// Runs a marking phase: keeps delivering events (reduction included —
    /// the phases are concurrent) until the process signals `done` or the
    /// phase budget is exhausted. `done` is evaluated once per delivery.
    fn drive_phase(&mut self, report: &mut CycleReport, done: impl Fn(&System) -> bool) {
        let start_total = self.sys.sim().stats().delivered_total();
        let start_marking = self.sys.sim().stats().delivered(Lane::Marking);
        let mut events = 0u64;
        let pulse = Pulse(&self.heartbeat);
        // Marking tasks served since the last policy-scheduled task.
        let mut burst = 0u32;
        while !done(&self.sys) {
            // Priority service for marking tasks, so the wave always
            // outpaces a mutator that keeps allocating (Section 6).
            if burst < MARKING_SERVICE_RATIO && self.sys.step_lane(Lane::Marking) {
                burst += 1;
            } else {
                // The marking lane is empty or has had its share: one task
                // of the policy's choosing.
                let progressed = burst > 0;
                burst = 0;
                if !self.sys.step() {
                    assert!(progressed, "marking drained without its termination signal");
                    continue;
                }
            }
            // Every delivery counts against the budget, a marking one too.
            events += 1;
            pulse.at(events);
            if events >= self.cfg.phase_budget {
                report.aborted = true;
                self.sys.drop_marking();
                break;
            }
        }
        pulse.end(events);
        let marking = self.sys.sim().stats().delivered(Lane::Marking) - start_marking;
        report.mark_events += marking;
        report.reduction_events_during_marking +=
            (self.sys.sim().stats().delivered_total() - start_total) - marking;
    }

    fn phase_t(&mut self, report: &mut CycleReport) {
        self.sys.graph.begin_mark_cycle(Slot::T);
        // Clear the activity stamps: "touched" now means "task activity
        // at or after t_a", which the deadlock report consults.
        self.sys.graph.clear_touched();
        // The M_T pass runs SYNCHRONOUSLY: reduction tasks queue but do
        // not execute, so T' is an exact snapshot of task reachability at
        // t_a. This is the paper's own trade — Section 6 notes M_T
        // "reduc[es] the throughput of the overall process" and recommends
        // running it only occasionally (`mt_every`). An asynchronous M_T
        // is unsound in this engine: a vertex completing mid-pass drains
        // its `requested` set, cutting the backward chain the trace
        // needed, and a passively-waiting ancestor would be misreported as
        // deadlocked. M_R, which runs every cycle, stays fully concurrent.
        // With no reduction task delivered and nothing else sent, the
        // marking lane's oldest-first service is plain send order and the
        // scheduler has nothing to decide, so the pass drains a queue of
        // its own and the simulator is told the totals once.
        let pulse = Pulse(&self.heartbeat);
        let (events, finished) = self
            .sys
            .drain_marking(self.cfg.phase_budget, |n| pulse.at(n));
        pulse.end(events);
        report.mark_events += events;
        // Aborted: the pass dropped its in-flight marks; colors and
        // counts are reset at the start of the next cycle's phases.
        report.aborted = !finished;
    }

    fn phase_r(&mut self, report: &mut CycleReport) {
        self.sys.graph.begin_mark_cycle(Slot::R);
        let root = self.sys.graph.root().expect("GC needs a root");
        self.sys.mark_state.begin_r(RMode::Priority);
        self.sys.send_mark(MarkMsg::Mark2 {
            v: root,
            par: MarkParent::RootPar,
            prior: Priority::Vital,
        });
        self.drive_phase(report, |s| s.mark_state.r_done);
    }

    /// Reads the marks once, then acts on them: reclaim, expunge,
    /// re-prioritize, recover. (The marks themselves survive until the
    /// next cycle's reset.)
    fn restructure(&mut self, report: &mut CycleReport, ran_mt: bool) {
        report.census = classify_pending_tasks(&self.sys);
        let MarkCensus {
            marked_t,
            by_priority,
            garbage,
            deadlocked,
            waiting,
            lane_priority,
        } = MarkCensus::take(&mut self.sys.graph, ran_mt);
        report.marked_t = marked_t;
        report.marked_by_priority = by_priority;
        report.garbage = garbage.len();
        report.deadlocked = deadlocked;
        if self.lifecycle.enabled() {
            // The lifecycle census taps the very garbage set computed
            // above — never recomputed — so the latency stamped when a
            // vertex is finally freed is exact by construction.
            for w in garbage.iter() {
                self.lifecycle.garbage_vertex(w.index());
            }
        }

        if self.cfg.reclaim && !garbage.is_empty() {
            // Purge reclaimed requesters from live `requested` sets so no
            // value is ever returned to a recycled vertex.
            for v in waiting {
                self.sys.graph.vertex_mut(v).retain_requesters(|r| match r {
                    Requester::Vertex(x) => !garbage.contains(x),
                    Requester::External => true,
                });
            }
            for w in garbage.iter() {
                self.sys.graph.free(w);
                self.lifecycle.reclaim_vertex(w.index());
            }
            report.reclaimed = garbage.len();
        }

        if self.cfg.expunge {
            report.expunged = self.sys.expunge_tasks(|v| garbage.contains(v));
        }

        // Every marked vertex's demand was refreshed by the census; re-lane
        // the pending tasks to match.
        report.relaned = self.sys.relane_requests(|v| lane_priority[v.index()]);

        if self.cfg.deadlock_recovery {
            for &v in &report.deadlocked.clone() {
                let vert = self.sys.graph.vertex_mut(v);
                if vert.value.is_some() {
                    continue;
                }
                vert.value = Some(Value::Bottom);
                vert.replace_args([]);
                let requesters = vert.take_requested();
                for &r in requesters.iter() {
                    self.sys.send_red(
                        RedMsg::Return {
                            src: v,
                            dst: r,
                            value: Value::Bottom,
                        },
                        Priority::Vital,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{GraphStore, NodeLabel, PrimOp, Template, TemplateNode, TemplateRef};
    use dgr_reduction::{Builder, SystemConfig, TemplateStore};
    #[cfg(feature = "telemetry")]
    use dgr_telemetry::{CycleLifecycle, Ledger};

    /// Drains the event stream and folds the last cycle's instants into
    /// the ledger they were emitted as; also how many of them it took.
    #[cfg(feature = "telemetry")]
    fn last_cycle_ledger<L: Ledger>(gc: &GcDriver) -> (L, usize) {
        let last = gc.stats().cycles;
        let (_, mut row) = L::open(0, last);
        let events = gc.sys.telemetry().drain_events();
        let fields = events
            .iter()
            .filter(|e| e.cycle == last && row.absorb(e.name, e.value))
            .count();
        (row, fields)
    }

    /// sum(n) = if n == 0 then 0 else n + sum(n - 1).
    fn sum_templates() -> (TemplateStore, u32) {
        let mut ts = TemplateStore::new();
        let tpl = Template::new(
            "sum",
            1,
            vec![
                TemplateNode::new(
                    NodeLabel::If,
                    vec![
                        TemplateRef::Local(1),
                        TemplateRef::Local(2),
                        TemplateRef::Local(3),
                    ],
                ),
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Eq),
                    vec![TemplateRef::Param(0), TemplateRef::Local(2)],
                ),
                TemplateNode::new(NodeLabel::lit_int(0), vec![]),
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Add),
                    vec![TemplateRef::Param(0), TemplateRef::Local(4)],
                ),
                TemplateNode::new(
                    NodeLabel::Apply,
                    vec![TemplateRef::Local(5), TemplateRef::Local(6)],
                ),
                TemplateNode::new(NodeLabel::Lit(Value::function(0, vec![])), vec![]),
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Sub),
                    vec![TemplateRef::Param(0), TemplateRef::Local(7)],
                ),
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap();
        let id = ts.register(tpl);
        (ts, id)
    }

    fn sum_system(n: i64, cfg: SystemConfig) -> System {
        let (ts, sum) = sum_templates();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let f = b.fn_ref(sum);
        let arg = b.int(n);
        let root = b.apply(f, &[arg]);
        g.set_root(root);
        System::new(g, ts, cfg)
    }

    #[test]
    fn gc_collects_while_reducing() {
        let sys = sum_system(40, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 50,
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), RunOutcome::Value(Value::Int(820)));
        assert!(gc.stats().cycles > 1, "multiple cycles ran");
        assert!(gc.stats().reclaimed_total > 0, "garbage was reclaimed");
        assert_eq!(gc.stats().aborted_cycles, 0);
        assert!(gc.sys.graph.check_consistency().is_ok());
    }

    #[test]
    fn aborted_cycles_lose_no_work_and_the_next_full_cycle_collects() {
        let unbudgeted = GcDriver::new(
            sum_system(40, SystemConfig::default()),
            GcConfig {
                period: 50,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(unbudgeted, RunOutcome::Value(Value::Int(820)));
        // A budget no marking phase of this program fits in: every cycle
        // is abandoned mid-wave, its in-flight marks dropped. With M_T on
        // the budget runs out in `phase_t`; with it off, in `drive_phase`,
        // where a budget of 7 runs out inside a burst of marking service.
        for (mt_every, phase_budget) in [(1, 8), (0, 8), (0, 7)] {
            let mut gc = GcDriver::new(
                sum_system(40, SystemConfig::default()),
                GcConfig {
                    period: 50,
                    mt_every,
                    phase_budget,
                    ..Default::default()
                },
            );
            gc.sys.demand_root();
            // Each window after the first opens on what an aborted cycle
            // left: no marking task anywhere in the simulator, whose
            // pending count is the reduction tasks it holds.
            let out = gc.run_more_with(|gc| {
                if gc.stats().cycles == 0 {
                    return;
                }
                let last = gc.last_report();
                assert!(last.aborted);
                if mt_every == 1 {
                    assert_eq!(last.mark_events, 8, "M_T stops at its 8th event");
                } else {
                    let delivered = last.mark_events + last.reduction_events_during_marking;
                    assert_eq!(delivered, phase_budget, "M_R stops at its budget");
                }
                let sim = gc.sys.sim();
                assert_eq!(sim.stats().lane_depth(Lane::Marking), 0);
                let reductions = sim
                    .iter_pending()
                    .filter(|(_, lane, _)| *lane != Lane::Marking);
                assert_eq!(sim.len(), reductions.count());
            });
            assert_eq!(out, unbudgeted);
            assert!(gc.stats().cycles > 1);
            assert_eq!(
                gc.stats().aborted_cycles,
                gc.stats().cycles,
                "no phase fits in {phase_budget} events"
            );
            assert_eq!(
                gc.stats().reclaimed_total,
                0,
                "aborted cycles skip restructure"
            );
            // The same driver (same lifecycle ledger, same half-colored
            // vertices) with the budget lifted: the next cycle completes
            // and reclaims what the aborted ones left floating.
            gc.cfg.phase_budget = GcConfig::default().phase_budget;
            let report = gc.run_cycle();
            assert!(!report.aborted);
            assert!(report.reclaimed > 0, "floating garbage was reclaimed");
            assert!(gc.sys.graph.check_consistency().is_ok());
            let live = dgr_graph::oracle::reachable_r(&gc.sys.graph);
            assert!(dgr_graph::oracle::garbage(&gc.sys.graph, &live).is_empty());
        }
    }

    #[test]
    fn heap_pressure_triggers_cycles_in_any_build() {
        // The pressure trigger reads the graph's always-on byte clock, so
        // it must work with telemetry compiled out. A tight bound under a
        // period far too long to ever fire: every cycle is pressure-born.
        let sys = sum_system(40, SystemConfig::default());
        let baseline_live = sys.graph.live_bytes();
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: u64::MAX,
                trigger: GcTrigger::Either(baseline_live + 64),
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), RunOutcome::Value(Value::Int(820)));
        assert!(
            gc.stats().cycles > 1,
            "pressure alone started {} cycles",
            gc.stats().cycles
        );
        assert!(gc.stats().reclaimed_total > 0);
    }

    #[test]
    fn an_unreachable_heap_bound_still_makes_progress() {
        // A bound below the irreducible live set: the trigger fires every
        // window, but only after at least one delivery, so the mutator
        // still reaches the value instead of starving under cycles.
        let sys = sum_system(10, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: u64::MAX,
                trigger: GcTrigger::HeapBytes(1),
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), RunOutcome::Value(Value::Int(55)));
    }

    #[test]
    fn tighter_heap_bounds_mean_more_cycles_and_lower_peaks() {
        // The coupling the observatory exists to measure, at unit scale:
        // tightening the byte bound trades marking work for heap headroom.
        let mut cycles = Vec::new();
        for bound in [600u64, 6_000] {
            let sys = sum_system(30, SystemConfig::default());
            let mut gc = GcDriver::new(
                sys,
                GcConfig {
                    period: u64::MAX,
                    trigger: GcTrigger::Either(bound),
                    ..Default::default()
                },
            );
            assert_eq!(gc.run(), RunOutcome::Value(Value::Int(465)));
            cycles.push(gc.stats().cycles);
        }
        assert!(cycles[0] > cycles[1], "tight bound cycled more: {cycles:?}");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn heap_cycles_stamp_causes_and_instants() {
        let sys = sum_system(40, SystemConfig::default());
        let baseline_live = sys.graph.live_bytes();
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 50,
                trigger: GcTrigger::Either(baseline_live + 128),
                ..Default::default()
            },
        );
        gc.run();
        let s = gc.sys.heap_snapshot();
        assert_eq!(
            s.trigger_period + s.trigger_heap,
            u64::from(gc.stats().cycles),
            "every cycle carries exactly one cause"
        );
        assert!(s.trigger_heap > 0, "the tight bound fired at least once");
        assert_eq!(s.cycles, u64::from(gc.stats().cycles));
        // Restructure frees (which bypass dispatch) were drained into the
        // tracker: its clock agrees with the graph's.
        assert_eq!(s.live, gc.sys.graph.live_bytes());
        assert_eq!(
            s.exact_bytes, s.freed_bytes,
            "driver-attached tracker stamps every byte it frees"
        );
        let (row, fields): (CycleHeap, _) = last_cycle_ledger(&gc);
        assert_eq!(fields, 9, "one instant per wire field");
        assert_eq!(row.bound, baseline_live + 128);
        assert_ne!(row.cause_name(), "?");
        assert!(row.peak >= row.live_end);
        assert_eq!(row.exact_bytes, row.freed_bytes);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn heap_tracking_is_silent_feature_off() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                trigger: GcTrigger::Either(600),
                ..Default::default()
            },
        );
        gc.run();
        assert!(gc.sys.heap_snapshot().is_empty());
    }

    #[test]
    fn timeline_records_every_cycle() {
        let sys = sum_system(40, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 50,
                ..Default::default()
            },
        );
        assert_eq!(*gc.last_report(), CycleReport::default(), "no cycle yet");
        gc.run();
        assert_eq!(gc.timeline().len(), gc.stats().cycles as usize);
        let last = gc.timeline().back().unwrap();
        assert_eq!(last.cycle, gc.stats().cycles);
        assert_eq!(*gc.last_report(), *last);
        for c in gc.timeline() {
            assert!(
                c.mt_us + c.mr_us + c.settle_us + c.restructure_us <= c.total_us,
                "the phases nest inside the cycle: {c:?}"
            );
        }
        // Marking happened, so the marking-lane backlog rose above the
        // reset point at least once in some cycle (always-on sim stats).
        assert!(gc.timeline().iter().any(|c| c.mark_backlog_hw > 0));
    }

    /// The report with its wall-clock fields zeroed: what two runs of the
    /// same schedule must agree on.
    fn sans_durations(c: &CycleReport) -> CycleReport {
        CycleReport {
            mt_us: 0,
            mr_us: 0,
            settle_us: 0,
            restructure_us: 0,
            total_us: 0,
            ..c.clone()
        }
    }

    /// `run()` beside `demand_root(); run_more_with(..)`: the same
    /// schedule, and one hook call per window end — before that window's
    /// cycle, so each call has seen exactly one cycle per earlier call.
    #[test]
    fn the_hook_is_the_loop() {
        let policies = [
            dgr_sim::SchedPolicy::RoundRobin,
            dgr_sim::SchedPolicy::Random { marking_bias: 0.5 },
        ];
        // How many runs ended in a reduction window, and how many inside
        // a cycle: the matrix must exercise both.
        let mut endings = [0u32; 2];
        for policy in policies {
            for trigger in [GcTrigger::Period, GcTrigger::Either(6_000)] {
                for speculation in [false, true] {
                    for seed in [1, 7] {
                        let what = format!("{policy:?} {trigger:?} spec {speculation} seed {seed}");
                        let sys = || {
                            let cfg = SystemConfig {
                                speculation,
                                policy,
                                seed,
                                ..Default::default()
                            };
                            sum_system(30, cfg)
                        };
                        // A short period puts much of the reduction inside
                        // cycles, so some runs end there.
                        let cfg = GcConfig {
                            period: 12,
                            trigger,
                            ..Default::default()
                        };
                        let mut plain = GcDriver::new(sys(), cfg.clone());
                        let plain_out = plain.run();
                        let mut hooked = GcDriver::new(sys(), cfg);
                        hooked.sys.demand_root();
                        let (mut calls, mut events_at_last_call) = (0u32, 0);
                        let hooked_out = hooked.run_more_with(|gc| {
                            assert_eq!(gc.stats().cycles, calls, "{what}");
                            calls += 1;
                            events_at_last_call = gc.sys.events();
                        });
                        assert_eq!(hooked_out, RunOutcome::Value(Value::Int(465)), "{what}");
                        assert_eq!(hooked_out, plain_out, "{what}");
                        assert_eq!(hooked.sys.events(), plain.sys.events(), "{what}");
                        assert_eq!(hooked.stats(), plain.stats(), "{what}");
                        let timeline = |gc: &GcDriver| -> Vec<_> {
                            gc.timeline().iter().map(sans_durations).collect()
                        };
                        assert_eq!(timeline(&hooked), timeline(&plain), "{what}");
                        // Nothing delivered after the last call: the value
                        // arrived in that call's window, and no cycle ran
                        // after it. Otherwise the last cycle delivered it.
                        let ended_in_window = events_at_last_call == hooked.sys.events();
                        let cycles = hooked.stats().cycles;
                        assert_eq!(calls, cycles + u32::from(ended_in_window), "{what}");
                        endings[usize::from(ended_in_window)] += 1;
                    }
                }
            }
        }
        assert!(endings.iter().all(|&n| n > 0), "both endings: {endings:?}");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn timeline_counts_messages_when_telemetry_is_on() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                ..Default::default()
            },
        );
        gc.sys.demand_root();
        // The sequence number each cycle's M_T pass starts from: every
        // send so far was delivered, is pending, or was expunged.
        let mut bases = Vec::new();
        gc.run_more_with(|gc| {
            let (sim, expunged) = (gc.sys.sim(), gc.stats().expunged_total);
            bases.push(sim.stats().delivered_total() + (sim.len() + expunged) as u64);
        });
        let sends: u64 = gc
            .timeline()
            .iter()
            .map(|c| c.sends_local + c.sends_remote)
            .sum();
        assert!(sends > 0, "cycle phases attributed task sends");
        let events = gc.sys.telemetry().drain_events();
        assert_eq!(gc.sys.telemetry().dropped_events(), 0);
        assert!(events.iter().any(|e| e.name == "M_R"));
        assert!(events.iter().any(|e| e.name == "cycle"));
        assert!(events.iter().any(|e| e.name == "restructure"));
        // Each M_T pass sends, and delivers, exactly the flows `base + 1
        // ..= base + sent`: the i-th send took sequence number base + i.
        for (cycle, &base) in (1..=gc.stats().cycles).zip(&bases) {
            let (_, mut ledger) = CycleLifecycle::open(0, cycle);
            for e in events.iter().filter(|e| e.cycle == cycle) {
                ledger.absorb(e.name, e.value);
            }
            let pass = base + 1..=base + ledger.msgs_mt;
            assert!(!pass.is_empty(), "cycle {cycle} had pending tasks");
            for kind in [
                dgr_telemetry::EventKind::FlowSend,
                dgr_telemetry::EventKind::FlowRecv,
            ] {
                let mut ids: Vec<u64> = events
                    .iter()
                    .filter(|e| e.kind == kind && pass.contains(&e.value))
                    .inspect(|e| assert_eq!((e.cycle, e.phase), (cycle, Phase::Mt)))
                    .map(|e| e.value)
                    .collect();
                ids.sort_unstable();
                assert!(
                    ids.iter().copied().eq(pass.clone()),
                    "cycle {cycle} {kind:?}"
                );
            }
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn a_closed_cycle_feeds_the_backlog_gauge_and_the_cycle_histogram() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                ..Default::default()
            },
        );
        gc.run();
        let peak = gc.timeline().iter().map(|c| c.mark_backlog_hw).max();
        let peak = peak.expect("the run closed a cycle");
        assert!(peak > 0, "a marking wave queued something");
        let merged = gc.sys.telemetry().snapshot().merged();
        assert_eq!(merged.gauge(GaugeId::MailboxHighWater), peak as i64);
        let cycle_us = merged.hist(HistId::CycleUs);
        assert_eq!(cycle_us.count, u64::from(gc.stats().cycles));
        let total_us: u64 = gc.timeline().iter().map(|c| c.total_us).sum();
        assert_eq!(cycle_us.sum, total_us);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn lifecycle_meters_reclaims_exactly() {
        let sys = sum_system(40, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 50,
                ..Default::default()
            },
        );
        gc.run();
        let s = gc.lifecycle_snapshot();
        assert_eq!(
            s.reclaimed,
            gc.stats().reclaimed_total as u64,
            "every restructure reclaim was stamped"
        );
        assert!(s.reclaimed > 0);
        assert_eq!(s.exact, s.reclaimed, "driver-attached tracker is exact");
        assert_eq!(
            s.float_now, 0,
            "an every-cycle reclaimer leaves nothing floating"
        );
        assert_eq!(s.cycles, u64::from(gc.stats().cycles));
        assert!(s.msgs_mr > 0, "M_R messages metered");
        assert!(s.bound > 0, "Section 4 bound metered");
        let (row, fields): (CycleLifecycle, _) = last_cycle_ledger(&gc);
        assert_eq!(fields, 8, "one instant per wire field");
        assert_eq!(row.reclaimed, gc.last_report().reclaimed as u64);
        assert_eq!(row.exact, row.reclaimed);
        assert_eq!(row.float, 0);
        assert!(row.msgs_mr > 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn lifecycle_floats_accumulate_without_reclaim() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                reclaim: false,
                ..Default::default()
            },
        );
        gc.run();
        let s = gc.lifecycle_snapshot();
        assert_eq!(s.reclaimed, 0);
        assert!(s.float_now > 0, "garbage floats when reclaim is off");
        assert!(
            s.float_age.iter().skip(2).any(|&b| b > 0),
            "floaters aged past one cycle"
        );
        let worst = gc.lifecycle().worst_floaters(4);
        assert!(!worst.is_empty());
        assert!(worst[0].1 >= worst.last().unwrap().1, "oldest first");
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn lifecycle_is_silent_feature_off() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                ..Default::default()
            },
        );
        gc.run();
        assert!(gc.lifecycle_snapshot().is_empty());
        assert!(!gc.lifecycle().enabled());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn attached_heartbeat_beats_through_a_run() {
        use dgr_telemetry::heartbeat::Heartbeat;
        use std::sync::Arc;
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                ..Default::default()
            },
        );
        let hb = Arc::new(Heartbeat::new());
        gc.attach_heartbeat(HeartbeatHandle::from_shared(Arc::clone(&hb)));
        gc.run();
        assert!(hb.beats() > 0, "phase boundaries beat the pulse");
        assert_eq!(hb.cycles_done(), u64::from(gc.stats().cycles));
        assert!(hb.progress_total() > 0, "deliveries beat the pulse");
        // Every delivery of every marking phase is beaten exactly once.
        let delivered: u64 = gc
            .timeline()
            .iter()
            .map(|c| c.mark_events + c.reduction_events_during_marking)
            .sum();
        assert_eq!(hb.progress_total(), delivered);
        assert_eq!(hb.phase(), None, "pulse is idle once the run ends");
    }

    #[test]
    fn timeline_is_bounded_and_keeps_newest_cycles() {
        // A tiny quiescent graph so thousands of cycles stay cheap.
        let mut g = GraphStore::with_capacity(4);
        let root = g.alloc(NodeLabel::lit_int(7)).unwrap();
        g.set_root(root);
        let sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        let mut gc = GcDriver::new(sys, GcConfig::default());
        let total = (TIMELINE_CAP + 150) as u32;
        for _ in 0..total {
            gc.run_cycle();
        }
        assert_eq!(gc.timeline().len(), TIMELINE_CAP, "bound holds");
        assert_eq!(gc.stats().cycles, total, "every cycle still ran");
        let front = gc.timeline().front().unwrap();
        let back = gc.timeline().back().unwrap();
        assert_eq!(back.cycle, total, "newest cycle kept");
        assert_eq!(
            front.cycle,
            total - TIMELINE_CAP as u32 + 1,
            "oldest surviving entry is exactly CAP cycles back"
        );
        // Entries are contiguous and ordered: the ring dropped only from
        // the front.
        for (i, t) in gc.timeline().iter().enumerate() {
            assert_eq!(t.cycle, front.cycle + i as u32);
        }
    }

    #[test]
    fn result_identical_with_and_without_gc() {
        let mut plain = sum_system(25, SystemConfig::default());
        let plain_out = plain.run();
        let sys = sum_system(25, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 17,
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), plain_out);
    }

    #[test]
    fn gc_with_speculation_and_random_schedules() {
        for seed in 0..6 {
            let cfg = SystemConfig {
                speculation: true,
                policy: dgr_sim::SchedPolicy::Random { marking_bias: 0.4 },
                seed,
                ..Default::default()
            };
            let sys = sum_system(15, cfg);
            let mut gc = GcDriver::new(
                sys,
                GcConfig {
                    period: 23,
                    ..Default::default()
                },
            );
            assert_eq!(gc.run(), RunOutcome::Value(Value::Int(120)), "seed {seed}");
            assert_eq!(gc.sys.stats.dangling_requests, 0, "seed {seed}");
        }
    }

    #[test]
    fn reclaimed_vertices_are_reusable() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 40,
                ..Default::default()
            },
        );
        gc.run();
        let free_after = gc.sys.graph.free_count();
        assert!(free_after > 0);
        // The root's value survives; everything else was collected.
        let root = gc.sys.graph.root().unwrap();
        assert_eq!(gc.sys.graph.vertex(root).value, Some(Value::Int(465)));
    }

    #[test]
    fn deadlock_detected_without_recovery() {
        // Figure 3-1: x = x + 1.
        let mut g = GraphStore::with_capacity(8);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.connect(x, one);
        g.set_root(x);
        let sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        let mut gc = GcDriver::new(sys, GcConfig::default());
        assert_eq!(gc.run(), RunOutcome::Quiescent);
        assert!(gc.stats().deadlocks_total > 0);
        assert!(gc.last_report().deadlocked.contains(&x));
    }

    #[test]
    fn deadlock_recovery_returns_bottom() {
        let mut g = GraphStore::with_capacity(8);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.connect(x, one);
        g.set_root(x);
        let sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                deadlock_recovery: true,
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), RunOutcome::Value(Value::Bottom));
    }

    #[test]
    fn speculative_irrelevant_tasks_are_expunged() {
        // if true then 1 else sum(5000): the speculative else-branch
        // workload becomes irrelevant the moment the predicate chooses.
        let (ts, sum) = sum_templates();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let p = b.bool_(true);
        let t = b.int(1);
        let f = b.fn_ref(sum);
        let n = b.int(5000);
        let e = b.apply(f, &[n]);
        let root = b.if_(p, t, e);
        g.set_root(root);
        let cfg = SystemConfig {
            speculation: true,
            ..Default::default()
        };
        let sys = System::new(g, ts, cfg);
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 30,
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), RunOutcome::Value(Value::Int(1)));
        assert!(gc.sys.stats.dereferences > 0, "the else branch was dropped");
        // Keep collecting after the result: the orphaned speculative
        // workload is expunged rather than run to completion.
        let report = gc.run_cycle();
        assert!(
            report.expunged > 0 || gc.stats().expunged_total > 0,
            "irrelevant tasks expunged"
        );
        assert_eq!(gc.sys.stats.dangling_requests, 0);
    }

    #[test]
    fn census_sees_irrelevant_tasks_before_expunging() {
        let (ts, sum) = sum_templates();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let p = b.bool_(true);
        let t = b.int(1);
        let f = b.fn_ref(sum);
        let n = b.int(5000);
        let e = b.apply(f, &[n]);
        let root = b.if_(p, t, e);
        g.set_root(root);
        let cfg = SystemConfig {
            speculation: true,
            ..Default::default()
        };
        let sys = System::new(g, ts, cfg);
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 500,
                reclaim: true,
                expunge: false, // watch them pile up instead
                ..Default::default()
            },
        );
        gc.run();
        let report = gc.run_cycle();
        assert!(report.census.irrelevant > 0, "census: {:?}", report.census);
    }

    #[test]
    fn mt_every_skips_task_marking() {
        let sys = sum_system(30, SystemConfig::default());
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 25,
                mt_every: 3,
                ..Default::default()
            },
        );
        gc.run();
        assert!(gc.stats().mt_cycles < gc.stats().cycles);
        assert!(gc.stats().mt_cycles >= gc.stats().cycles / 3);
        // A skipped M_T leaves an earlier cycle's T marks in place; they
        // are not this cycle's to report.
        assert!(gc.timeline().iter().any(|c| c.ran_mt && c.marked_t > 0));
        assert!(gc.timeline().iter().all(|c| c.ran_mt || c.marked_t == 0));
    }

    #[test]
    fn reprioritize_relanes_pending_requests() {
        // A speculative branch that is then chosen: its queued tasks sit
        // in the eager lane until a cycle re-lanes them to vital.
        let (ts, sum) = sum_templates();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let p = b.bool_(true);
        let f = b.fn_ref(sum);
        let n = b.int(2000);
        let t = b.apply(f, &[n]); // chosen branch: long computation
        let e = b.int(0);
        let root = b.if_(p, t, e);
        g.set_root(root);
        // PriorityFirst starves the eager lane, so upgraded-but-unexecuted
        // speculative requests are still pending when a cycle re-lanes
        // them — the dynamic prioritization scenario of Section 3.2.
        let cfg = SystemConfig {
            speculation: true,
            policy: dgr_sim::SchedPolicy::PriorityFirst,
            ..Default::default()
        };
        let sys = System::new(g, ts, cfg);
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 50,
                ..Default::default()
            },
        );
        let out = gc.run();
        assert_eq!(out, RunOutcome::Value(Value::Int(2001000)));
        assert!(gc.sys.stats.upgrades > 0, "eager arc upgraded to vital");
        assert!(
            gc.stats().relaned_total > 0,
            "pending eager tasks were re-laned"
        );
    }
}
