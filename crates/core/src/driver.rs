//! Drivers that run complete marking passes on the deterministic simulator.
//!
//! A pass spawns the initial mark task(s), then delivers marking messages
//! until the system is quiescent; the algorithm's own termination detection
//! (the `done` flag set by `return1(rootpar)`, or the virtual `troot` count
//! for `M_T`) is asserted to agree. These drivers run marking **alone** —
//! the combined marking + reduction + restructuring cycle lives in
//! `dgr-gc`, which interleaves mutator work between marking events.

use dgr_graph::{
    GraphStore, MarkParent, PartitionMap, PartitionStrategy, PeId, Priority, Slot, TaskEndpoints,
};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
use dgr_telemetry::{Phase, Registry};

use crate::handler::handle_mark;
use crate::invariants::check_invariants;
use crate::msg::{MarkMsg, MarkRecord, Sender};
use crate::state::{MarkState, RMode};

/// Configuration for a marking pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkRunConfig {
    /// Number of processing elements.
    pub num_pes: u16,
    /// Scheduling policy for message delivery.
    pub policy: SchedPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// How vertices map to PEs.
    pub partition: PartitionStrategy,
    /// Check the marking invariants after every event (slow; tests only).
    pub check_invariants: bool,
}

impl Default for MarkRunConfig {
    fn default() -> Self {
        MarkRunConfig {
            num_pes: 4,
            policy: SchedPolicy::Fifo,
            seed: 0,
            partition: PartitionStrategy::Modulo,
            check_invariants: false,
        }
    }
}

/// Statistics of a completed marking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkStats {
    /// Marking messages delivered (mark + return events).
    pub events: u64,
    /// Vertices marked in the pass's slot.
    pub marked: usize,
    /// Messages that crossed a partition boundary.
    pub remote_messages: u64,
    /// Rounds the pass took under [`SchedPolicy::Rounds`] — its parallel
    /// time with `num_pes` PEs running one task each per round; 0 under
    /// the other policies.
    pub rounds: u64,
}

/// Sends a marking message to the PE it executes on
/// ([`PartitionMap::pe_of_dest`]) and records the send; returns whether it
/// crossed PEs.
fn send_routed(
    sim: &mut DetSim<MarkMsg>,
    partition: &PartitionMap,
    rec: MarkRecord<'_>,
    from: Sender,
    msg: MarkMsg,
) -> bool {
    let dst = partition.pe_of_dest(msg.dest_vertex());
    let seq = sim.send(Envelope::new(dst, Lane::Marking, msg));
    rec.sent(&msg, from, dst, seq)
}

/// Dumps the flight recorder (event-ring tail, metrics snapshot and the
/// undelivered messages `in_flight`) next to the process, then panics
/// with `reason`. The dump works with telemetry off too: the rings are
/// just empty.
pub(crate) fn flight_dump_and_panic(
    reason: &str,
    pe: u16,
    telem: &Registry,
    in_flight: &[String],
) -> ! {
    let dropped = telem.dropped_events();
    let events = telem.drain_events();
    match dgr_telemetry::write_flight(reason, pe, &events, dropped, &telem.snapshot(), in_flight) {
        Ok(path) => eprintln!("flight recorder: wrote {}", path.display()),
        Err(e) => eprintln!("flight recorder: dump failed: {e}"),
    }
    panic!("{reason}");
}

/// The one simulator marking loop: sends `initial` from PE 0 and delivers
/// until nothing is pending, in an `M_R` span for the R slot, `M_T` for T.
/// After each delivery `after_event` gets the pass's event count (that
/// event included), the state, the graph and the send sink — the place to
/// mutate between two events; what it sends counts as the delivering PE's.
/// The invariant check `cfg` may ask for runs after the hook.
///
/// # Panics
///
/// Panics after a flight-recorder dump if a checked invariant fails.
pub fn run_pass<H>(
    g: &mut GraphStore,
    cfg: &MarkRunConfig,
    state: &mut MarkState,
    slot: Slot,
    initial: Vec<MarkMsg>,
    telem: &Registry,
    mut after_event: H,
) -> MarkStats
where
    H: FnMut(u64, &mut MarkState, &mut GraphStore, &mut dyn FnMut(MarkMsg)),
{
    let phase = match slot {
        Slot::R => Phase::Mr,
        Slot::T => Phase::Mt,
    };
    let partition = PartitionMap::new(cfg.num_pes, g.capacity(), cfg.partition);
    let mut sim: DetSim<MarkMsg> = DetSim::new(cfg.num_pes, cfg.policy, cfg.seed);
    let rec = MarkRecord { telem, cycle: 0 };
    for m in initial {
        // Seeds originate on PE 0, where the marking process starts.
        send_routed(&mut sim, &partition, rec, Sender::Seed(PeId::new(0)), m);
    }
    let mut stats = MarkStats::default();
    let _pass = telem.span(0, 0, phase, phase.name());
    while let Some((pe, _lane, seq, msg)) = sim.next_event_from(None) {
        rec.delivered(&msg, pe, seq);
        // The handler's sends, and the hook's, go straight into the
        // simulator.
        let mut send = |m: MarkMsg| {
            if send_routed(&mut sim, &partition, rec, Sender::Task(pe), m) {
                stats.remote_messages += 1;
            }
        };
        handle_mark(state, g, msg, &mut send);
        stats.events += 1;
        after_event(stats.events, state, g, &mut send);
        if cfg.check_invariants {
            let pending: Vec<MarkMsg> = sim.iter_pending().map(|(_, _, m)| *m).collect();
            if let Err(e) = check_invariants(g, slot, &pending, state) {
                let in_flight: Vec<String> = sim
                    .iter_pending()
                    .map(|(p, l, m)| format!("pe={} lane={l:?} {m:?}", p.raw()))
                    .collect();
                let reason = format!(
                    "invariant violation on PE {} after event {} (handling {msg:?}): {e}",
                    pe.raw(),
                    stats.events
                );
                flight_dump_and_panic(&reason, pe.raw(), telem, &in_flight);
            }
        }
    }
    stats.rounds = sim.stats().rounds();
    stats.marked = g
        .live_ids()
        .filter(|&v| g.mark(v, slot).is_marked())
        .count();
    stats
}

/// Runs the simplified algorithm (`mark1`, Figure 4-1) from the root to
/// completion. Resets the R slot first.
///
/// # Panics
///
/// Panics if the graph has no root, or if the pass drains without the
/// `done` flag being set (which would indicate a broken invariant).
pub fn run_mark1(g: &mut GraphStore, cfg: &MarkRunConfig) -> MarkStats {
    run_mark1_with(g, cfg, &Registry::new(cfg.num_pes))
}

/// [`run_mark1`] with an explicit telemetry registry: the pass is wrapped
/// in an `M_R` span and per-PE mark-event and local/remote send counters
/// are recorded.
///
/// # Panics
///
/// Panics under the same conditions as [`run_mark1`].
pub fn run_mark1_with(g: &mut GraphStore, cfg: &MarkRunConfig, telem: &Registry) -> MarkStats {
    let (v, par) = (g.root().expect("marking needs a root"), MarkParent::RootPar);
    let seed = MarkMsg::Mark1 { v, par };
    let begin = |s: &mut MarkState| s.begin_r(RMode::Simple);
    run_to_done(g, cfg, Slot::R, begin, vec![seed], telem)
}

/// Runs the priority-marking process `M_R` (Figure 5-2): spawns
/// `mark2(root, rootpar, 3)` and waits for `done`. Resets the R slot first.
///
/// # Panics
///
/// Panics if the graph has no root or termination is not signalled.
pub fn run_mark2(g: &mut GraphStore, cfg: &MarkRunConfig) -> MarkStats {
    let (v, par) = (g.root().expect("marking needs a root"), MarkParent::RootPar);
    let seed = MarkMsg::Mark2 {
        v,
        par,
        prior: Priority::Vital,
    };
    let begin = |s: &mut MarkState| s.begin_r(RMode::Priority);
    let telem = Registry::new(cfg.num_pes);
    run_to_done(g, cfg, Slot::R, begin, vec![seed], &telem)
}

/// Runs the task-marking process `M_T` (Figure 5-3): hangs one `mark3`
/// seed per task endpoint on the virtual `troot` and waits for all of them
/// to return. Resets the T slot first.
///
/// # Panics
///
/// Panics if termination is not signalled.
pub fn run_mark3(g: &mut GraphStore, tasks: &TaskEndpoints, cfg: &MarkRunConfig) -> MarkStats {
    let par = MarkParent::TaskRootPar;
    let seeds = tasks.seeds().iter().map(|&v| MarkMsg::Mark3 { v, par });
    let begin = |s: &mut MarkState| s.begin_t(tasks.seeds().len() as u32);
    let telem = Registry::new(cfg.num_pes);
    run_to_done(g, cfg, Slot::T, begin, seeds.collect(), &telem)
}

/// Resets `slot`, opens a fresh state with `begin`, runs `initial` to
/// quiescence and checks that the slot's termination signal came.
fn run_to_done(
    g: &mut GraphStore,
    cfg: &MarkRunConfig,
    slot: Slot,
    begin: impl FnOnce(&mut MarkState),
    initial: Vec<MarkMsg>,
    telem: &Registry,
) -> MarkStats {
    g.begin_mark_cycle(slot);
    let mut state = MarkState::new();
    begin(&mut state);
    let stats = run_pass(g, cfg, &mut state, slot, initial, telem, |_, _, _, _| {});
    let done = match slot {
        Slot::R => state.r_done,
        Slot::T => state.t_done,
    };
    assert!(done, "{slot:?} marking drained without termination signal");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{oracle, NodeLabel, RequestKind, VertexId};

    #[test]
    fn bsp_marks_like_fifo_and_parallelizes() {
        // A wide tree: rounds shrink as PEs grow; the mark set is exact.
        let n: u32 = 255;
        let mut g = GraphStore::with_capacity(n as usize);
        let ids: Vec<_> = (0..n)
            .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
            .collect();
        for i in 0..n as usize {
            for c in [2 * i + 1, 2 * i + 2] {
                if c < n as usize {
                    g.connect(ids[i], ids[c]);
                }
            }
        }
        g.set_root(ids[0]);

        let mut rounds = Vec::new();
        for num_pes in [1u16, 4, 16] {
            let mut g2 = g.clone();
            let cfg = MarkRunConfig {
                num_pes,
                policy: SchedPolicy::Rounds,
                ..Default::default()
            };
            let stats = run_mark1(&mut g2, &cfg);
            assert_eq!(stats.events, 2 * n as u64, "one mark + one return each");
            for v in g2.live_ids() {
                assert!(g2.mark(v, Slot::R).is_marked());
            }
            rounds.push(stats.rounds);
        }
        assert_eq!(rounds[0], 2 * n as u64, "one PE runs one task per round");
        assert!(
            rounds[0] > rounds[1] && rounds[1] > rounds[2],
            "parallel time falls with PEs: {rounds:?}"
        );
    }

    fn diamond() -> (GraphStore, [VertexId; 5]) {
        let mut g = GraphStore::with_capacity(16);
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
        g.connect(root, a);
        g.connect(root, b);
        g.connect(a, c);
        g.connect(b, c);
        g.set_root(root);
        (g, [root, a, b, c, stray])
    }

    #[test]
    fn mark1_agrees_with_oracle_on_all_policies() {
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::RoundRobin,
            SchedPolicy::PriorityFirst,
            SchedPolicy::Random { marking_bias: 0.5 },
            SchedPolicy::Rounds,
        ] {
            let (mut g, [root, a, b, c, stray]) = diamond();
            let cfg = MarkRunConfig {
                policy,
                check_invariants: true,
                ..Default::default()
            };
            let stats = run_mark1(&mut g, &cfg);
            let r = oracle::reachable_r(&g);
            for v in [root, a, b, c] {
                assert!(r.contains(v) && g.mark(v, Slot::R).is_marked());
            }
            assert!(!r.contains(stray) && g.mark(stray, Slot::R).is_unmarked());
            assert_eq!(stats.marked, 4);
        }
    }

    #[test]
    fn mark2_priorities_agree_with_oracle() {
        let mut g = GraphStore::with_capacity(16);
        let root = g.alloc(NodeLabel::If).unwrap();
        let p = g.alloc(NodeLabel::Prim(dgr_graph::PrimOp::Lt)).unwrap();
        let t = g.alloc(NodeLabel::If).unwrap();
        let e = g.alloc(NodeLabel::lit_int(3)).unwrap();
        let shared = g.alloc(NodeLabel::lit_int(4)).unwrap();
        g.connect(root, p);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, t);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Eager));
        g.connect(root, e);
        g.connect(t, shared);
        g.vertex_mut(t)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(p, shared);
        g.vertex_mut(p)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(root);

        let cfg = MarkRunConfig {
            check_invariants: true,
            ..Default::default()
        };
        run_mark2(&mut g, &cfg);
        let want = oracle::priorities(&g);
        for v in g.live_ids() {
            let got = g
                .mark(v, Slot::R)
                .is_marked()
                .then(|| g.mark(v, Slot::R).prior);
            assert_eq!(got, want[v.index()], "priority mismatch at {v}");
        }
        crate::invariants::check_priority_closure(&g).unwrap();
    }

    #[test]
    fn mark2_random_schedules_agree_with_oracle() {
        for seed in 0..20 {
            let (mut g, _) = diamond();
            // Sprinkle request kinds.
            let root = g.root().unwrap();
            g.vertex_mut(root)
                .set_request_kind(0, Some(RequestKind::Eager));
            let cfg = MarkRunConfig {
                policy: SchedPolicy::Random { marking_bias: 0.5 },
                seed,
                check_invariants: true,
                ..Default::default()
            };
            run_mark2(&mut g, &cfg);
            let want = oracle::priorities(&g);
            for v in g.live_ids() {
                let got = g
                    .mark(v, Slot::R)
                    .is_marked()
                    .then(|| g.mark(v, Slot::R).prior);
                assert_eq!(got, want[v.index()], "seed {seed}, vertex {v}");
            }
        }
    }

    #[test]
    fn mark3_agrees_with_oracle() {
        let (mut g, [root, a, b, c, stray]) = diamond();
        // One task whose destination is a; root has requested a and b...
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.vertex_mut(a)
            .add_requester(dgr_graph::Requester::Vertex(root));
        let mut tasks = TaskEndpoints::new();
        tasks.push_task(Some(root), a);

        let cfg = MarkRunConfig::default();
        run_mark3(&mut g, &tasks, &cfg);
        let t = oracle::reachable_t(&g, &tasks);
        for v in [root, a, b, c, stray] {
            assert_eq!(
                t.contains(v),
                g.mark(v, Slot::T).is_marked(),
                "T mismatch at {v}"
            );
        }
    }

    #[test]
    fn mark3_empty_taskpool_is_noop() {
        let (mut g, _) = diamond();
        let stats = run_mark3(&mut g, &TaskEndpoints::new(), &MarkRunConfig::default());
        assert_eq!(stats.marked, 0);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn single_pe_works() {
        let (mut g, _) = diamond();
        let cfg = MarkRunConfig {
            num_pes: 1,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        assert_eq!(stats.marked, 4);
        assert_eq!(stats.remote_messages, 0, "single PE has no remote traffic");
    }

    #[test]
    fn many_pes_generate_remote_traffic() {
        let (mut g, _) = diamond();
        let cfg = MarkRunConfig {
            num_pes: 8,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        assert!(stats.remote_messages > 0);
    }

    #[test]
    fn begin_mark_cycle_clears_previous_cycle() {
        let (mut g, [root, ..]) = diamond();
        run_mark1(&mut g, &MarkRunConfig::default());
        assert!(g.mark(root, Slot::R).is_marked());
        g.begin_mark_cycle(Slot::R);
        assert!(g.mark(root, Slot::R).is_unmarked());
        assert_eq!(g.mark(root, Slot::R).mt_cnt, 0);
    }

    #[test]
    fn marking_twice_is_idempotent() {
        let (mut g, _) = diamond();
        let s1 = run_mark1(&mut g, &MarkRunConfig::default());
        let s2 = run_mark1(&mut g, &MarkRunConfig::default());
        assert_eq!(s1.marked, s2.marked);
        assert_eq!(s1.events, s2.events);
    }
}
