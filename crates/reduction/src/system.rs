//! A complete reduction system on the deterministic simulator.

use std::collections::VecDeque;

use dgr_core::{count_send, handle_mark, MarkMsg, MarkRecord, MarkState, Sender};
use dgr_graph::HeapDelta;
use dgr_graph::{
    GraphStore, MarkParent, PartitionMap, PartitionStrategy, PeId, Priority, RequestKind,
    Requester, TaskEndpoints, Value, VertexId,
};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
use dgr_telemetry::{CounterId, HeapSnapshot, HeapTracker, Registry};

use crate::engine::{handle_red, EngineCtx};
use crate::msg::RedMsg;
use crate::stats::RedStats;
use crate::templates::TemplateStore;

/// Configuration of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of processing elements.
    pub num_pes: u16,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// Vertex-to-PE assignment.
    pub partition: PartitionStrategy,
    /// Evaluate conditional branches speculatively.
    pub speculation: bool,
    /// Heap growth increment when the free list runs dry (`0` = fixed
    /// heap).
    pub grow_step: usize,
    /// Event budget for [`System::run`].
    pub max_events: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_pes: 4,
            policy: SchedPolicy::RoundRobin,
            seed: 0,
            partition: PartitionStrategy::Modulo,
            speculation: false,
            grow_step: 256,
            max_events: 10_000_000,
        }
    }
}

/// How a [`System::run`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The root's value was returned to the external observer.
    Value(Value),
    /// Every task drained without producing the root's value — the
    /// computation deadlocked (Section 3.1) or was never demanded.
    Quiescent,
    /// The event budget was exhausted with tasks still pending (a
    /// non-terminating or merely large computation).
    Budget,
}

/// A reduction system: the computation graph, the supercombinators, the
/// marking state, the simulator carrying the reduction tasks, and the
/// queue carrying the marking tasks.
///
/// [`System::step`] delivers the reduction task the scheduling policy
/// picks and [`System::step_mark`] the oldest marking task, so a GC
/// driver that alternates the two runs its marking cycles *concurrently*
/// with reduction, interleaved at task granularity exactly as in the
/// paper, at a share of its own choosing.
#[derive(Debug)]
pub struct System {
    /// The computation graph.
    pub graph: GraphStore,
    /// The program's supercombinators.
    pub templates: TemplateStore,
    /// Marking-process state (consulted by the cooperating mutators).
    pub mark_state: MarkState,
    /// Reduction counters.
    pub stats: RedStats,
    /// The root's computed value, once returned to the external observer.
    pub result: Option<Value>,
    config: SystemConfig,
    sim: DetSim<RedMsg>,
    events: u64,
    /// Telemetry registry (the zero-sized no-op unless the `telemetry`
    /// feature is on): per-PE lane-delivery counters and local/remote
    /// send attribution.
    telem: Registry,
    /// The marking cycle flow events are attributed to; a GC driver sets
    /// it at the start of each cycle so the causal trace of the marking
    /// wave groups by cycle.
    telem_cycle: u32,
    /// Heap tracker (the zero-sized no-op unless the `telemetry` feature
    /// is on): per-PE live-bytes clocks, waterlines and size classes,
    /// fed from the graph store's byte journal after every dispatch.
    heap: HeapTracker,
    /// The vertex-to-PE assignment every send routes by. Only a reduction
    /// task can grow the heap, so the engine resizes it there and nowhere
    /// else.
    partition: PartitionMap,
    /// The marking tasks one reduction task spawned, held back until its
    /// reduction sends are in (see [`System::step`]), and the engine's
    /// two id lists; all kept across dispatches for their capacity.
    out_mark: Vec<MarkMsg>,
    actuals: Vec<VertexId>,
    fresh: Vec<VertexId>,
    /// Every pending marking task of both passes, oldest first, each with
    /// the sequence number its send took: the queue
    /// [`System::step_mark`] delivers from, kept for its capacity.
    mark_fifo: VecDeque<(u64, MarkMsg)>,
}

/// The endpoints of every pending reduction task, in the simulator's
/// `iter_pending` order: the seeds of `M_T`'s virtual task roots.
fn task_endpoints(sim: &DetSim<RedMsg>) -> impl Iterator<Item = VertexId> + '_ {
    sim.iter_pending().flat_map(|(_, _, red)| {
        let (s, d) = red.endpoints();
        s.into_iter().chain(d)
    })
}

/// Takes a marking task's sequence number from the simulator and, when
/// recording, routes it and records its send: from the PE whose task sent
/// it, or, for a seed (`from == None`), stamped at its destination.
/// Takes the system's fields apart so the marking handler's sink can call
/// it while the handler holds the graph and the marking state.
#[inline]
fn stamp_mark(
    sim: &mut DetSim<RedMsg>,
    partition: &PartitionMap,
    rec: MarkRecord<'_>,
    from: Option<PeId>,
    msg: &MarkMsg,
) -> u64 {
    let seq = sim.send_off_mailbox(Lane::Marking);
    if rec.telem.enabled() {
        let pe = partition.pe_of_dest(msg.dest_vertex());
        rec.sent(msg, from.map_or(Sender::Seed(pe), Sender::Task), pe, seq);
    }
    seq
}

impl System {
    /// Creates a system over the given graph and templates.
    pub fn new(mut graph: GraphStore, templates: TemplateStore, config: SystemConfig) -> Self {
        let sim = DetSim::new(config.num_pes, config.policy, config.seed);
        let telem = Registry::new(config.num_pes);
        let mut heap = HeapTracker::new(config.num_pes as usize);
        let partition = PartitionMap::new(config.num_pes, graph.capacity(), config.partition);
        if heap.enabled() {
            // Stamp everything the builder phase allocated before the
            // tracker existed, so later reclaims of those vertices still
            // carry exact byte stamps, then journal all future traffic.
            let live: Vec<_> = graph.live_ids().collect();
            for v in live {
                heap.alloc(
                    partition.pe_of(v).index(),
                    v.index(),
                    u64::from(graph.vertex_bytes(v)),
                );
            }
            graph.set_heap_journal(true);
        }
        System {
            graph,
            templates,
            mark_state: MarkState::new(),
            stats: RedStats::default(),
            result: None,
            config,
            sim,
            events: 0,
            telem,
            telem_cycle: 0,
            heap,
            partition,
            out_mark: Vec::new(),
            actuals: Vec::new(),
            fresh: Vec::new(),
            mark_fifo: VecDeque::new(),
        }
    }

    /// Starts marking cycle `cycle` (GC drivers call this first in each
    /// cycle): flow events are stamped with it from now on, and the
    /// simulator's backlog peaks restart from the current backlogs, so
    /// the cycle reads its own peak.
    pub fn begin_cycle(&mut self, cycle: u32) {
        self.telem_cycle = cycle;
        self.sim.reset_lane_high_water();
    }

    /// The system's telemetry registry (the zero-sized no-op in a default
    /// build). GC drivers snapshot it around cycle phases.
    pub fn telemetry(&self) -> &Registry {
        &self.telem
    }

    /// The heap tracker, mutably (for `close_cycle` / `record_trigger` /
    /// `begin_episode` by GC drivers and bench harnesses).
    pub fn heap_tracker_mut(&mut self) -> &mut HeapTracker {
        &mut self.heap
    }

    /// Running heap totals (empty in a default build).
    pub fn heap_snapshot(&self) -> HeapSnapshot {
        self.heap.snapshot()
    }

    /// Replays the graph store's byte journal into the heap tracker,
    /// attributing each vertex's bytes to the PE that owns it under the
    /// current partition. Called after every dispatch; a GC driver also
    /// calls it after restructuring, whose frees bypass dispatch.
    pub fn drain_heap_journal(&mut self) {
        if !self.heap.enabled() || !self.graph.heap_journal_pending() {
            return;
        }
        let pm = &self.partition;
        for delta in self.graph.take_heap_journal() {
            match delta {
                HeapDelta::Alloc { id, bytes } => {
                    self.heap
                        .alloc(pm.pe_of(id).index(), id.index(), u64::from(bytes));
                }
                HeapDelta::Free { id, bytes } => {
                    self.heap
                        .free(pm.pe_of(id).index(), id.index(), u64::from(bytes));
                }
            }
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The simulator (for reduction-task-pool inspection). Its marking
    /// lane counts the marking tasks' sends, deliveries and backlog, but
    /// its mailboxes never hold one.
    pub fn sim(&self) -> &DetSim<RedMsg> {
        &self.sim
    }

    /// Deletes every pending reduction task one of whose endpoints is
    /// `dead` — the restructuring phase's expunging (Property 6): a task
    /// whose destination is garbage is irrelevant, and one whose source
    /// is garbage goes too, since its reply target may be recycled.
    /// Returns how many tasks were deleted.
    pub fn expunge_tasks(&mut self, dead: impl Fn(VertexId) -> bool) -> usize {
        self.sim.expunge(|_, _, red| {
            let (src, dst) = red.endpoints();
            !src.is_some_and(&dead) && !dst.is_some_and(&dead)
        })
    }

    /// Moves every pending request whose destination `lane_of` gives a
    /// priority into that priority's lane — the restructuring phase's
    /// dynamic re-prioritization. Returns how many tasks moved.
    pub fn relane_requests(&mut self, lane_of: impl Fn(VertexId) -> Option<Priority>) -> usize {
        self.sim.relane(|_, lane, msg| match msg {
            RedMsg::Request { dst, .. } => lane_of(*dst).map_or(lane, Lane::Reduction),
            RedMsg::Return { .. } => lane,
        })
    }

    /// Drops every pending marking task: a marking phase that ran out of
    /// budget abandons its pass (the next cycle's phases reset colors and
    /// counts).
    pub fn drop_marking(&mut self) {
        for _ in self.mark_fifo.drain(..) {
            self.sim.take_off_mailbox(Lane::Marking, false);
        }
    }

    /// Routes and enqueues a reduction task with the given lane priority.
    pub fn send_red(&mut self, msg: RedMsg, prio: Priority) {
        let pe = self.partition.pe_of_dest(msg.dest_vertex());
        self.sim.send(Envelope::new(pe, Lane::Reduction(prio), msg));
    }

    /// Enqueues a marking task from outside any task (a GC driver's
    /// seeds).
    pub fn send_mark(&mut self, msg: MarkMsg) {
        let (telem, cycle) = (&self.telem, self.telem_cycle);
        let rec = MarkRecord { telem, cycle };
        let seq = stamp_mark(&mut self.sim, &self.partition, rec, None, &msg);
        self.mark_fifo.push_back((seq, msg));
    }

    /// Spawns the initial task `<-, root>`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no root.
    pub fn demand_root(&mut self) {
        let root = self.graph.root().expect("reduction needs a root");
        self.send_red(
            RedMsg::Request {
                src: Requester::External,
                dst: root,
                kind: RequestKind::Vital,
            },
            Priority::Vital,
        );
    }

    /// Delivers and executes the reduction task the scheduling policy
    /// picks, enqueueing what it spawns. Returns `false` if no reduction
    /// task is pending.
    ///
    /// A task's sends go straight from its handler into the simulator: one
    /// event is one queue pop, one handler call and its sends. The one
    /// exception is the marking tasks it spawns through the cooperating
    /// mutators, which wait in `out_mark` until the engine returns, so
    /// all of a task's reduction sends take their sequence numbers before
    /// any of its marking sends, as they always have.
    pub fn step(&mut self) -> bool {
        let Some((pe, _, msg)) = self.sim.next_event() else {
            return false;
        };
        self.events += 1;
        self.telem.pe(pe.raw()).inc(CounterId::RedEvents);
        let (sim, telem) = (&mut self.sim, &self.telem);
        match msg {
            RedMsg::Return {
                dst: Requester::External,
                value,
                ..
            } => self.result = Some(value),
            m => {
                handle_red(
                    &mut EngineCtx {
                        state: &mut self.mark_state,
                        g: &mut self.graph,
                        templates: &self.templates,
                        speculation: self.config.speculation,
                        grow_step: self.config.grow_step,
                        stats: &mut self.stats,
                        partition: &mut self.partition,
                        red: |dst, m, prio| {
                            count_send(telem, pe, dst);
                            sim.send(Envelope::new(dst, Lane::Reduction(prio), m));
                        },
                        spawned: 0,
                        out_mark: &mut self.out_mark,
                        actuals: &mut self.actuals,
                        fresh: &mut self.fresh,
                    },
                    m,
                );
                let rec = MarkRecord {
                    telem,
                    cycle: self.telem_cycle,
                };
                for m in self.out_mark.drain(..) {
                    let seq = stamp_mark(sim, &self.partition, rec, Some(pe), &m);
                    self.mark_fifo.push_back((seq, m));
                }
            }
        }
        self.drain_heap_journal();
        true
    }

    /// Delivers and executes the oldest pending marking task, of either
    /// pass, enqueueing what it spawns behind the rest. Returns `false` if
    /// no marking task is pending.
    ///
    /// The queue is in send order; the simulator only counts the traffic
    /// in its marking lane ([`DetSim::send_off_mailbox`],
    /// [`DetSim::take_off_mailbox`]). A marking task never allocates or
    /// frees a vertex, so the partition and the heap journal are left
    /// alone. With telemetry on, the task is recorded on the PE its
    /// destination routes to now, and its sends as sent from there; with
    /// it off nothing is routed.
    pub fn step_mark(&mut self) -> bool {
        let Some((seq, m)) = self.mark_fifo.pop_front() else {
            return false;
        };
        self.events += 1;
        self.sim.take_off_mailbox(Lane::Marking, true);
        let (telem, cycle) = (&self.telem, self.telem_cycle);
        let rec = MarkRecord { telem, cycle };
        let (sim, fifo, partition) = (&mut self.sim, &mut self.mark_fifo, &self.partition);
        let pe = telem
            .enabled()
            .then(|| partition.pe_of_dest(m.dest_vertex()));
        if let Some(pe) = pe {
            rec.delivered(&m, pe, seq);
        }
        handle_mark(&mut self.mark_state, &mut self.graph, m, &mut |m| {
            fifo.push_back((stamp_mark(sim, partition, rec, pe, &m), m));
        });
        true
    }

    /// Runs `M_T` (Figure 5-3) as a pass during which no reduction task
    /// executes: hangs one `mark3` on the virtual `troot` per endpoint of
    /// every pending reduction task (registered with
    /// [`MarkState::begin_t`] once, before the first delivery), then
    /// delivers marking tasks with [`System::step_mark`] until the last
    /// seed has returned (`t_done`), calling `progress` after each
    /// delivery with the pass's count so far. Returns the deliveries made
    /// and whether `t_done` was reached; after `budget` deliveries the
    /// pass stops and drops the marking tasks it still holds.
    ///
    /// # Panics
    ///
    /// Panics if a marking task is pending when the pass starts, or if the
    /// pass runs out of marking tasks before `t_done` holds.
    pub fn drain_marking(&mut self, budget: u64, mut progress: impl FnMut(u64)) -> (u64, bool) {
        assert!(
            self.mark_fifo.is_empty(),
            "a marking pass starts with no marking task pending"
        );
        let par = MarkParent::TaskRootPar;
        let seeds = task_endpoints(&self.sim).map(|v| (0, MarkMsg::Mark3 { v, par }));
        self.mark_fifo.extend(seeds);
        let (telem, cycle) = (&self.telem, self.telem_cycle);
        let rec = MarkRecord { telem, cycle };
        for (seq, m) in self.mark_fifo.iter_mut() {
            *seq = stamp_mark(&mut self.sim, &self.partition, rec, None, m);
        }
        self.mark_state.begin_t(self.mark_fifo.len() as u32);
        let mut delivered = 0;
        while !self.mark_state.t_done {
            let stepped = self.step_mark();
            assert!(stepped, "marking drained without its termination signal");
            delivered += 1;
            progress(delivered);
            if delivered >= budget {
                self.drop_marking();
                return (delivered, false);
            }
        }
        (delivered, true)
    }

    /// Demands the root and runs until the result arrives, the system is
    /// quiescent, or the event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.demand_root();
        self.run_more()
    }

    /// Continues running without demanding the root again.
    pub fn run_more(&mut self) -> RunOutcome {
        while self.result.is_none() && self.events < self.config.max_events {
            if !self.step() {
                return RunOutcome::Quiescent;
            }
        }
        match &self.result {
            Some(v) => RunOutcome::Value(v.clone()),
            None => {
                if self.sim.is_empty() {
                    RunOutcome::Quiescent
                } else {
                    RunOutcome::Budget
                }
            }
        }
    }

    /// The endpoints of every pending reduction task, including tasks "in
    /// transit" between PEs — the seeds for `M_T`'s virtual task roots.
    pub fn pending_task_endpoints(&self) -> TaskEndpoints {
        task_endpoints(&self.sim).collect()
    }

    /// Consumes the system, returning the graph.
    pub fn into_graph(self) -> GraphStore {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use dgr_graph::{NodeLabel, PrimOp, Template, TemplateNode, TemplateRef};

    fn run_expr(build: impl FnOnce(&mut Builder<'_>) -> dgr_graph::VertexId) -> RunOutcome {
        run_expr_cfg(build, TemplateStore::new(), SystemConfig::default())
    }

    fn run_expr_cfg(
        build: impl FnOnce(&mut Builder<'_>) -> dgr_graph::VertexId,
        templates: TemplateStore,
        config: SystemConfig,
    ) -> RunOutcome {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let root = build(&mut b);
        g.set_root(root);
        let mut sys = System::new(g, templates, config);
        sys.run()
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn heap_tracker_stamps_builder_vertices_and_runtime_traffic() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let two = b.int(2);
        let three = b.int(3);
        let root = b.prim2(PrimOp::Add, two, three);
        g.set_root(root);
        let built_bytes = g.live_bytes();
        assert!(built_bytes > 0);

        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        // Builder-phase vertices were bulk-stamped at construction.
        assert_eq!(sys.heap_snapshot().live, built_bytes);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(5)));

        let s = sys.heap_snapshot();
        // The ledger mirrors the graph's own clock, and every byte freed
        // so far carried an exact allocation stamp.
        assert_eq!(s.live, sys.graph.live_bytes());
        assert_eq!(s.alloc_bytes, sys.graph.alloc_bytes_total());
        assert!(s.peak >= s.live);
        assert_eq!(s.exact_bytes, s.freed_bytes);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn heap_tracker_is_silent_feature_off() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let two = b.int(2);
        let three = b.int(3);
        let root = b.prim2(PrimOp::Add, two, three);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(5)));
        // The no-op tracker records nothing, but the graph's own
        // always-on byte clock still runs (the pressure trigger needs it).
        assert!(sys.heap_snapshot().is_empty());
        assert!(sys.graph.alloc_bytes_total() > 0);
    }

    #[test]
    fn arithmetic_tree() {
        // (2 * 3) + (10 - 4) = 12
        let out = run_expr(|b| {
            let two = b.int(2);
            let three = b.int(3);
            let m = b.prim2(PrimOp::Mul, two, three);
            let ten = b.int(10);
            let four = b.int(4);
            let s = b.prim2(PrimOp::Sub, ten, four);
            b.prim2(PrimOp::Add, m, s)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(12)));
    }

    #[test]
    fn shared_subexpression_computed_once() {
        // x + x where x = 3 * 7: sharing through the multigraph.
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let three = b.int(3);
        let seven = b.int(7);
        let x = b.prim2(PrimOp::Mul, three, seven);
        let root = b.prim2(PrimOp::Add, x, x);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn conditional_takes_then_branch() {
        let out = run_expr(|b| {
            let one = b.int(1);
            let two = b.int(2);
            let p = b.prim2(PrimOp::Lt, one, two);
            let t = b.int(10);
            let e = b.int(20);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(10)));
    }

    #[test]
    fn conditional_takes_else_branch() {
        let out = run_expr(|b| {
            let p = b.bool_(false);
            let t = b.int(10);
            let e = b.int(20);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(20)));
    }

    #[test]
    fn conditional_with_speculation() {
        for seed in 0..8 {
            let cfg = SystemConfig {
                speculation: true,
                policy: SchedPolicy::Random { marking_bias: 0.5 },
                seed,
                ..Default::default()
            };
            let out = run_expr_cfg(
                |b| {
                    let one = b.int(1);
                    let two = b.int(2);
                    let p = b.prim2(PrimOp::Lt, one, two);
                    let t10 = b.int(10);
                    let t20 = b.int(20);
                    let t = b.prim2(PrimOp::Add, t10, t20);
                    let e3 = b.int(3);
                    let e4 = b.int(4);
                    let e = b.prim2(PrimOp::Mul, e3, e4);
                    b.if_(p, t, e)
                },
                TemplateStore::new(),
                cfg,
            );
            assert_eq!(out, RunOutcome::Value(Value::Int(30)), "seed {seed}");
        }
    }

    #[test]
    fn lazy_branch_is_never_demanded_without_speculation() {
        // The else branch divides by zero; without speculation it must not
        // poison the result.
        let out = run_expr(|b| {
            let p = b.bool_(true);
            let t = b.int(1);
            let seven = b.int(7);
            let zero = b.int(0);
            let e = b.prim2(PrimOp::Div, seven, zero);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(1)));
    }

    #[test]
    fn speculation_of_bottom_branch_does_not_poison_result() {
        // With speculation the div-by-zero branch runs eagerly but its ⊥
        // is discarded once the predicate chooses the other branch.
        let cfg = SystemConfig {
            speculation: true,
            ..Default::default()
        };
        let out = run_expr_cfg(
            |b| {
                let p = b.bool_(true);
                let t = b.int(1);
                let seven = b.int(7);
                let zero = b.int(0);
                let e = b.prim2(PrimOp::Div, seven, zero);
                b.if_(p, t, e)
            },
            TemplateStore::new(),
            cfg,
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(1)));
    }

    #[test]
    fn list_head_and_tail() {
        // head (tail (cons 1 (cons 2 nil))) = 2
        let out = run_expr(|b| {
            let l = b.int_list(&[1, 2]);
            let t = b.prim1(PrimOp::Tail, l);
            b.prim1(PrimOp::Head, t)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(2)));
    }

    #[test]
    fn isnil_distinguishes() {
        let out = run_expr(|b| {
            let l = b.int_list(&[]);
            b.prim1(PrimOp::IsNil, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bool(true)));
        let out = run_expr(|b| {
            let l = b.int_list(&[1]);
            b.prim1(PrimOp::IsNil, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bool(false)));
    }

    #[test]
    fn head_of_nil_is_bottom() {
        let out = run_expr(|b| {
            let l = b.nil();
            b.prim1(PrimOp::Head, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bottom));
    }

    #[test]
    fn self_referential_sum_deadlocks() {
        // Figure 3-1: x = x + 1 drains to quiescence with no result.
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.connect(x, one);
        g.set_root(x);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Quiescent);
        assert!(sys.result.is_none());
    }

    fn inc_store() -> (TemplateStore, u32) {
        let mut ts = TemplateStore::new();
        let id = ts.register(
            Template::new(
                "inc",
                1,
                vec![
                    TemplateNode::new(
                        NodeLabel::Prim(PrimOp::Add),
                        vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                    ),
                    TemplateNode::new(NodeLabel::lit_int(1), vec![]),
                ],
            )
            .unwrap(),
        );
        (ts, id)
    }

    #[test]
    fn saturated_application_expands() {
        let (ts, inc) = inc_store();
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(inc);
                let x = b.int(41);
                b.apply(f, &[x])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn partial_application_returns_function_value() {
        // const = \x y -> x; root = (const 7) applied later... here we
        // just check the partial value forms.
        let mut ts = TemplateStore::new();
        let konst = ts.register(
            Template::new(
                "const",
                2,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(konst);
                let seven = b.int(7);
                b.apply(f, &[seven])
            },
            ts,
            SystemConfig::default(),
        );
        match out {
            RunOutcome::Value(Value::Fn(id, caps)) => {
                assert_eq!(id, konst);
                assert_eq!(caps.len(), 1);
            }
            other => panic!("expected partial application, got {other:?}"),
        }
    }

    #[test]
    fn curried_application_through_partial_value() {
        // ((const 7) 9) = 7, where the inner application is a separate
        // vertex returning a partial Fn value.
        let mut ts = TemplateStore::new();
        let konst = ts.register(
            Template::new(
                "const",
                2,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(konst);
                let seven = b.int(7);
                let partial = b.apply(f, &[seven]);
                let nine = b.int(9);
                b.apply(partial, &[nine])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(7)));
    }

    #[test]
    fn oversaturated_application_splits() {
        // id inc 41 = 42, where id = \x -> x applied to 2 arguments.
        let mut ts = TemplateStore::new();
        let id = ts.register(
            Template::new(
                "id",
                1,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let inc = ts.register(
            Template::new(
                "inc",
                1,
                vec![
                    TemplateNode::new(
                        NodeLabel::Prim(PrimOp::Add),
                        vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                    ),
                    TemplateNode::new(NodeLabel::lit_int(1), vec![]),
                ],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let idf = b.fn_ref(id);
                let incf = b.fn_ref(inc);
                let x = b.int(41);
                b.apply(idf, &[incf, x])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn recursive_function_runs() {
        // sum(n) = if n == 0 then 0 else n + sum(n - 1); sum(10) = 55.
        let mut ts = TemplateStore::new();
        let sum = 0u32; // will be id 0: self-reference via fn_ref-like global
        let tpl = Template::new(
            "sum",
            1,
            vec![
                // 0: if (n == 0) 0 (n + sum (n - 1))
                TemplateNode::new(
                    NodeLabel::If,
                    vec![
                        TemplateRef::Local(1),
                        TemplateRef::Local(2),
                        TemplateRef::Local(3),
                    ],
                ),
                // 1: n == 0
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Eq),
                    vec![TemplateRef::Param(0), TemplateRef::Local(2)],
                ),
                // 2: 0
                TemplateNode::new(NodeLabel::lit_int(0), vec![]),
                // 3: n + (sum (n-1))
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Add),
                    vec![TemplateRef::Param(0), TemplateRef::Local(4)],
                ),
                // 4: apply sum (n-1)
                TemplateNode::new(
                    NodeLabel::Apply,
                    vec![TemplateRef::Local(5), TemplateRef::Local(6)],
                ),
                // 5: the function value for sum itself
                TemplateNode::new(NodeLabel::Lit(Value::function(sum, vec![])), vec![]),
                // 6: n - 1
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Sub),
                    vec![TemplateRef::Param(0), TemplateRef::Local(7)],
                ),
                // 7: 1
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap();
        assert_eq!(ts.register(tpl), sum);
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(sum);
                let n = b.int(10);
                b.apply(f, &[n])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(55)));
    }

    #[test]
    fn results_identical_across_policies_and_pes() {
        let (ts, inc) = inc_store();
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::RoundRobin,
            SchedPolicy::PriorityFirst,
            SchedPolicy::Random { marking_bias: 0.3 },
        ] {
            for pes in [1u16, 3, 8] {
                let cfg = SystemConfig {
                    policy,
                    num_pes: pes,
                    seed: 42,
                    ..Default::default()
                };
                let out = run_expr_cfg(
                    |b| {
                        let f = b.fn_ref(inc);
                        let x0 = b.int(0);
                        let a1 = b.apply(f, &[x0]);
                        let a2 = b.apply(f, &[a1]);
                        b.apply(f, &[a2])
                    },
                    ts.clone(),
                    cfg,
                );
                assert_eq!(out, RunOutcome::Value(Value::Int(3)));
            }
        }
    }

    #[test]
    fn fixed_heap_exhaustion_yields_bottom() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::with_capacity(3);
        let f = g
            .alloc(NodeLabel::Lit(Value::function(inc, vec![])))
            .unwrap();
        let x = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, f);
        g.connect(app, x);
        g.set_root(app);
        let cfg = SystemConfig {
            grow_step: 0,
            ..Default::default()
        };
        let mut sys = System::new(g, ts, cfg);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Bottom));
        assert!(sys.stats.bottoms > 0);
        assert_eq!(sys.stats.grows, 0);
    }

    #[test]
    fn heap_grows_when_allowed() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::with_capacity(3);
        let f = g
            .alloc(NodeLabel::Lit(Value::function(inc, vec![])))
            .unwrap();
        let x = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, f);
        g.connect(app, x);
        g.set_root(app);
        let cfg = SystemConfig {
            grow_step: 16,
            ..Default::default()
        };
        let mut sys = System::new(g, ts, cfg);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(2)));
        assert!(sys.stats.grows > 0);
    }

    #[test]
    fn pending_task_endpoints_cover_in_flight_tasks() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let one = b.int(1);
        let two = b.int(2);
        let root = b.prim2(PrimOp::Add, one, two);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        sys.demand_root();
        let t = sys.pending_task_endpoints();
        assert_eq!(t.seeds(), &[root], "initial task <-, root>");
        sys.step(); // execute the initial request: spawns 2 arg requests
        let t = sys.pending_task_endpoints();
        assert!(t.seeds().contains(&one) && t.seeds().contains(&two));
        assert!(t.seeds().contains(&root), "sources included");
    }

    #[test]
    fn stats_track_activity() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let f = b.fn_ref(inc);
        let x = b.int(1);
        let root = b.apply(f, &[x]);
        g.set_root(root);
        let mut sys = System::new(g, ts, SystemConfig::default());
        sys.run();
        assert!(sys.stats.requests > 0);
        assert!(sys.stats.returns > 0);
        assert_eq!(sys.stats.expansions, 1);
        assert_eq!(sys.stats.dangling_requests, 0);
    }
}
