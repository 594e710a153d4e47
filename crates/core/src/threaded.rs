//! `mark1` on the work-stealing parallel runtime.
//!
//! Every task is a mark: it claims or settles exactly one vertex and
//! never holds a lock while waiting on another PE — the property Section
//! 6 uses to argue that resource deadlock between marking tasks is
//! impossible and interference with the reduction process is minimal.
//! The return a mark owes its parent runs in place, where the mark ends:
//! one `fetch_sub` on the parent's count ([`MarkWords::complete_child`]),
//! climbing on up the `mt_par` chain while each drain completes a
//! vertex. The task that wins a claim also decides each child's mark
//! once, at the spawn site:
//!
//! * a child already visited this cycle would do nothing but return, so
//!   that mark is settled in place ([`MarkWords::settle_child`]);
//! * a live child with no children of its own (a leaf) would only color
//!   itself and return, so the winner claims it in place
//!   ([`MarkWords::try_claim`] with no children); losing that claim to a
//!   rival makes the mark a duplicate visit, settled as above;
//! * every other child — a freed vertex behind a dangling arc included —
//!   gets its mark sent as a task.
//!
//! The winner then runs the returns of every child it marked in place
//! with one drain of its own count ([`MarkWords::complete_children`]).
//! Only it touches that count until the handler returns: the only
//! decrements come from the children's returns, and the children it
//! spawned wait in the [`SpawnScope`].
//!
//! This module is used by the scalability experiments (T5): the same
//! algorithm that the deterministic simulator executes runs here on one
//! OS thread per PE, on the [`StealRuntime`] — per-PE Chase–Lev deques,
//! a sharded mailbox mesh for cross-PE envelopes, and adaptive parking.
//!
//! The hot-path structure, all semantics-preserving:
//!
//! * between-pass resets are an O(1) epoch bump ([`reset_shared_r`]);
//! * the per-vertex mark state lives in the shared graph's
//!   [`MarkWords`] records: the Unmarked → Transient transition is a CAS
//!   claim, a return is one `fetch_sub` on the count, and the claim
//!   winner reads the child list from the graph's immutable
//!   [`SharedGraph::r_children`] snapshot, whose row start sits in the
//!   same record — no lock anywhere;
//! * a task is an allocation-free `u64` word naming a mark's vertex and
//!   parent, and only this module encodes or decodes it: the runtime's
//!   LIFO pop / oldest-first steal discipline executes deep work locally
//!   and hands thieves the biggest remaining subtrees without reading it;
//! * a visit is decided by the claim alone: [`MarkWords::try_claim`]
//!   loses on a vertex already visited this cycle, so the handler probes
//!   nothing before it;
//! * a mark for vertex `v` is still *routed* to `v`'s owner PE per the
//!   partition — the paper's distribution model, and what the envelope
//!   counter measures — but an idle PE may steal it: soundness does not
//!   depend on placement because every state transition is a CAS or an
//!   owned decrement on the shared mark words. Running a return where
//!   the count drains, and settling a duplicate visit or marking a leaf
//!   at the spawn site, are the same kind of placement choice: every
//!   mark and every return still happens, and each is counted. The
//!   deterministic simulator sends each of those marks and routes each
//!   return to its parent's PE, as the paper does.
//!
//! [`MarkWords`]: dgr_graph::MarkWords
//! [`MarkWords::complete_child`]: dgr_graph::MarkWords::complete_child
//! [`MarkWords::complete_children`]: dgr_graph::MarkWords::complete_children
//! [`MarkWords::settle_child`]: dgr_graph::MarkWords::settle_child
//! [`MarkWords::try_claim`]: dgr_graph::MarkWords::try_claim

use std::sync::atomic::{AtomicBool, Ordering};

use dgr_graph::markword::{Claim, Settle};
use dgr_graph::{
    GraphStore, MarkParent, MarkWords, PartitionMap, PartitionStrategy, PeId, Slot, VertexId,
};
use dgr_sim::{SharedGraph, SpawnScope, StealRuntime};
use dgr_telemetry::{CounterId, HeartbeatHandle, Phase, Registry};

/// Task words: `par(28) | v(28)`, the top byte zero. 28-bit vertex
/// fields bound the graph at ~268M vertices — far beyond any workload
/// here, asserted at pass start.
const FIELD_BITS: u32 = 28;
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;
/// `par` sentinel for the paper's `rootpar` termination target.
const ROOTPAR: u64 = FIELD_MAX;

fn mark_task(v: VertexId, par: u64) -> u64 {
    (par << FIELD_BITS) | u64::from(v.raw())
}

/// Owner PE of a mark: where its subject vertex lives.
fn route(partition: &PartitionMap, task: u64) -> PeId {
    partition.pe_of(VertexId::new((task & FIELD_MAX) as u32))
}

/// Runs the return a mark owes `to` in place: drains one child of `to`
/// and, while each drain completes a vertex, the return that vertex owes
/// its own `mt_par`. Reaching `rootpar` ends the pass.
fn ascend(marks: &MarkWords, epoch: u32, mut to: MarkParent, done: &AtomicBool) {
    loop {
        match to {
            MarkParent::Vertex(p) => match marks.complete_child(p.index(), epoch) {
                Some(up) => to = up,
                None => return,
            },
            MarkParent::RootPar => {
                // Relaxed: asserted only after the runtime joins its
                // workers, which synchronizes.
                done.store(true, Ordering::Relaxed);
                return;
            }
            MarkParent::TaskRootPar => unreachable!("mark1 never uses the task root"),
        }
    }
}

/// Counters from one threaded `mark1` pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadedMarkStats {
    /// Marking messages (marks + returns): two per mark, since every
    /// mark — sent as a task, [`settled`](Self::settled) in place or a
    /// [`leaf`](Self::leaves) claimed in place — owes exactly one return,
    /// and that return runs where the mark ends. `mark1` marks a first
    /// visit exactly once, so this count is schedule-independent and
    /// equals the event count of a deterministic-simulator pass over the
    /// same graph: `2 × (executed + settled + leaves)`.
    pub messages: u64,
    /// Mark tasks the runtime executed: the root's and every mark a claim
    /// winner spawned.
    pub executed: u64,
    /// Duplicate visits settled at the spawn site: arcs whose target the
    /// claim winner found already visited, or a leaf whose in-place claim
    /// it lost to a rival, so their mark ran in place instead of as a
    /// task. Schedule-dependent; zero on a graph where no vertex has two
    /// incoming arcs.
    pub settled: u64,
    /// Leaf marks run in place: live vertices with no children that a
    /// claim winner claimed at the spawn site instead of sending them a
    /// task. Schedule-independent: every reachable live leaf other than
    /// the root is counted exactly once.
    pub leaves: u64,
    /// Cross-PE envelopes the runtime routed through the mailbox mesh:
    /// marks whose owner PE differed from the spawning PE. A return
    /// never travels.
    pub envelopes: u64,
    /// Successful steal operations across all workers.
    pub steals: u64,
    /// Steal attempts that found the victim empty or lost a race.
    pub steal_fails: u64,
    /// Times a worker parked on the idle-backoff timeout.
    pub parks: u64,
    /// Largest private spill depth any worker reached.
    pub spill_hw: u64,
}

/// Runs a complete `mark1` pass over `store` using `num_pes` OS threads,
/// returning the marked store and its [`ThreadedMarkStats::messages`].
///
/// The R slot is reset first. Termination is detected both by the
/// algorithm (the `done` flag set by the return to `rootpar`) and by
/// runtime quiescence; the two are asserted to agree.
///
/// # Panics
///
/// Panics if the store has no root or if quiescence is reached without the
/// algorithm signalling `done`.
pub fn run_mark1_threaded(
    mut store: GraphStore,
    num_pes: u16,
    strategy: PartitionStrategy,
) -> (GraphStore, u64) {
    store.begin_mark_cycle(Slot::R);
    let shared = SharedGraph::from_store(store);
    let stats = run_mark1_shared(&shared, num_pes, strategy);
    (shared.into_store(), stats.messages)
}

/// Resets every vertex's R slot in a shared graph (between passes): an
/// O(1) epoch bump; stale per-vertex state is reset lazily on first
/// access. Must not run concurrently with a marking pass.
pub fn reset_shared_r(shared: &SharedGraph) {
    shared.begin_mark_cycle(Slot::R);
}

/// Runs one `mark1` pass over an already-shared graph whose R slots are
/// reset, returning the pass's message counters. This is the timed core
/// of the T5 scalability experiment — the store↔shared conversions of
/// [`run_mark1_threaded`] are serial setup, not marking.
///
/// # Panics
///
/// Panics if the graph has no root or quiescence is reached without the
/// algorithm signalling `done`.
pub fn run_mark1_shared(
    shared: &SharedGraph,
    num_pes: u16,
    strategy: PartitionStrategy,
) -> ThreadedMarkStats {
    let telem = Registry::new(num_pes);
    run_mark1_shared_observed(shared, num_pes, strategy, &telem, &HeartbeatHandle::new())
}

/// [`run_mark1_shared`] with an explicit telemetry registry and a
/// liveness pulse. The pass is wrapped in an `M_R` span, each PE's
/// marking messages land in its mark-event counter (two per task, per
/// settled arc and per leaf marked in place, a mark and its return, so
/// the counters sum to `messages`), and the underlying runtime records deque depth, steals,
/// drained batch sizes and park events per PE. The pass also brackets an `M_R` phase on `hb`
/// and the runtime beats delivery progress in batches of tasks, so the
/// `dgr-observe` watchdog can supervise a long pass from another thread;
/// pass `&HeartbeatHandle::new()` (a no-op) for no pulse.
///
/// # Panics
///
/// Panics under the same conditions as [`run_mark1_shared`].
pub fn run_mark1_shared_observed(
    shared: &SharedGraph,
    num_pes: u16,
    strategy: PartitionStrategy,
    telem: &Registry,
    hb: &HeartbeatHandle,
) -> ThreadedMarkStats {
    let root = shared.root().expect("marking needs a root");
    assert!(
        (shared.capacity() as u64) < ROOTPAR,
        "graph too large for 28-bit task fields"
    );
    let partition = PartitionMap::new(num_pes, shared.capacity(), strategy);
    let done = AtomicBool::new(false);
    // The pass's epoch is fixed before threads spawn (spawning publishes
    // it); every mark-word access below is normalized against it.
    let epoch = shared.mark_epoch(Slot::R);
    let marks = shared.marks();

    let _pass = telem.span(0, 0, Phase::Mr, "mark1_threaded");
    hb.begin_phase(0, Phase::Mr);
    let seed = mark_task(root, ROOTPAR);
    let stats = StealRuntime::new(num_pes).run_observed(
        vec![(route(&partition, seed), seed)],
        |scope: &mut SpawnScope<'_>, task: u64| {
            let v = VertexId::new((task & FIELD_MAX) as u32);
            let par = task >> FIELD_BITS;
            let parent = if par == ROOTPAR {
                MarkParent::RootPar
            } else {
                MarkParent::Vertex(VertexId::new(par as u32))
            };
            // The claim alone decides the visit: it loses on a vertex
            // visited this cycle, and its winner owns the expansion, whose
            // own return runs when its count drains. A dangling arc into
            // a freed vertex returns at once, without a claim.
            let expand = match shared.r_children(v) {
                Some(children) => {
                    match marks.try_claim(v.index(), epoch, children.len() as u32, parent) {
                        Claim::Won(_) => children,
                        Claim::Lost => &[],
                    }
                }
                None => &[],
            };
            if expand.is_empty() {
                ascend(marks, epoch, parent, &done);
            }
            // Decide each child's mark once: settle a visited child, claim
            // a live leaf in place, and spawn the rest; the runtime chains
            // into the last spawn and thieves take the first ones.
            let (mut settled, mut leaves) = (0, 0);
            for &c in expand {
                if marks.settle_child(c.index(), epoch) == Settle::Settled {
                    settled += 1;
                } else if shared.r_children(c) == Some(&[]) {
                    match marks.try_claim(c.index(), epoch, 0, MarkParent::Vertex(v)) {
                        Claim::Won(_) => leaves += 1,
                        Claim::Lost => settled += 1,
                    }
                } else {
                    let t = mark_task(c, u64::from(v.raw()));
                    scope.spawn(route(&partition, t), t);
                }
            }
            // One drain returns every child run in place: until this
            // handler returns, only it decrements `v`'s count.
            let in_place = settled + leaves;
            if in_place > 0 {
                if let Some(up) = marks.complete_children(v.index(), epoch, in_place) {
                    ascend(marks, epoch, up, &done);
                }
                scope.credit([u64::from(settled), u64::from(leaves)]);
            }
            // This mark, its return and those of the children run in place.
            telem
                .pe(scope.me().raw())
                .add(CounterId::MarkEvents, 2 * (1 + u64::from(in_place)));
        },
        telem,
        hb,
    );
    hb.end_phase();
    if !done.load(Ordering::Relaxed) {
        // Flight-record before panicking: the runtime is quiescent, so
        // the in-flight set is empty — the event-ring tail and counters
        // are what's left to explain the missing termination signal.
        crate::driver::flight_dump_and_panic("quiescent without termination signal", 0, telem, &[]);
    }
    let [settled, leaves] = stats.credited;
    ThreadedMarkStats {
        messages: 2 * (stats.executed + settled + leaves),
        executed: stats.executed,
        settled,
        leaves,
        envelopes: stats.envelopes,
        steals: stats.steals,
        steal_fails: stats.steal_fails,
        parks: stats.parks,
        spill_hw: stats.spill_hw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{oracle, NodeLabel};

    /// A binary tree of the given depth plus `stray` disconnected vertices.
    fn tree(depth: usize, stray: usize) -> GraphStore {
        let n = (1 << (depth + 1)) - 1;
        let mut g = GraphStore::with_capacity(n + stray);
        let ids: Vec<_> = (0..n)
            .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
            .collect();
        for i in 0..n {
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n {
                    g.connect(ids[i], ids[child]);
                }
            }
        }
        for _ in 0..stray {
            g.alloc(NodeLabel::lit_int(-1)).unwrap();
        }
        g.set_root(ids[0]);
        g
    }

    #[test]
    fn threaded_mark1_agrees_with_oracle() {
        for pes in [1u16, 2, 4, 8] {
            let g = tree(8, 37);
            let (marked, handled) = run_mark1_threaded(g, pes, PartitionStrategy::Modulo);
            assert!(handled > 0);
            let r = oracle::reachable_r(&marked);
            for v in marked.live_ids() {
                assert_eq!(
                    r.contains(v),
                    marked.mark(v, Slot::R).is_marked(),
                    "{pes} PEs, vertex {v}"
                );
                assert_eq!(marked.mark(v, Slot::R).mt_cnt, 0);
            }
        }
    }

    #[test]
    fn threaded_mark1_handles_cycles_and_sharing() {
        let mut g = GraphStore::with_capacity(64);
        let ids: Vec<_> = (0..32)
            .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
            .collect();
        // Dense strongly-connected mess.
        for i in 0..32usize {
            g.connect(ids[i], ids[(i * 7 + 3) % 32]);
            g.connect(ids[i], ids[(i * 5 + 11) % 32]);
            g.connect(ids[i], ids[(i + 1) % 32]);
        }
        g.set_root(ids[0]);
        let (marked, _) = run_mark1_threaded(g, 4, PartitionStrategy::Block);
        for &v in &ids {
            assert!(marked.mark(v, Slot::R).is_marked());
        }
    }

    #[test]
    fn threaded_matches_simulated_mark_set() {
        let g = tree(6, 11);
        let mut g_sim = g.clone();
        crate::driver::run_mark1(&mut g_sim, &crate::driver::MarkRunConfig::default());
        let (g_thr, _) = run_mark1_threaded(g, 4, PartitionStrategy::Modulo);
        for v in g_sim.ids() {
            assert_eq!(
                g_sim.mark(v, Slot::R).is_marked(),
                g_thr.mark(v, Slot::R).is_marked(),
                "differential mismatch at {v}"
            );
        }
    }

    #[test]
    fn threaded_message_count_matches_simulator_events() {
        // mark1 sends one mark per first visit or revisit and exactly one
        // return per mark, so the message count is schedule-independent:
        // the threaded pass, counting each mark and return it ran, as a
        // task or in place, must count exactly as many messages as the
        // deterministic simulator delivers events.
        let g = tree(7, 5);
        let mut g_sim = g.clone();
        let sim_stats =
            crate::driver::run_mark1(&mut g_sim, &crate::driver::MarkRunConfig::default());
        for pes in [1u16, 3, 8] {
            let (_, messages) = run_mark1_threaded(g.clone(), pes, PartitionStrategy::Modulo);
            assert_eq!(messages, sim_stats.events, "{pes} PEs");
        }
    }

    #[test]
    fn threaded_pass_never_claims_a_freed_vertex() {
        // A leaf is freed with its parent's arc still pointing at it: the
        // mark sent down that arc must settle without a claim, exactly as
        // the simulator's handler settles it.
        let mut g = tree(6, 0);
        let leaf = VertexId::new(100);
        g.free(leaf);
        let mut g_sim = g.clone();
        let sim_stats =
            crate::driver::run_mark1(&mut g_sim, &crate::driver::MarkRunConfig::default());
        for pes in [1u16, 2, 4] {
            let (marked, messages) = run_mark1_threaded(g.clone(), pes, PartitionStrategy::Block);
            assert_eq!(messages, sim_stats.events, "{pes} PEs");
            assert!(marked.mark(leaf, Slot::R).is_unmarked(), "{pes} PEs");
            assert_eq!(marked.free_count(), 1);
            for v in marked.live_ids() {
                assert!(marked.mark(v, Slot::R).is_marked(), "{pes} PEs, vertex {v}");
            }
        }
    }

    #[test]
    fn repeated_shared_passes_with_epoch_reset() {
        // Re-running after reset_shared_r must redo the full pass (same
        // message count), not see stale marks from the previous epoch.
        let shared = SharedGraph::from_store({
            let mut g = tree(5, 3);
            g.begin_mark_cycle(Slot::R);
            g
        });
        let first = run_mark1_shared(&shared, 4, PartitionStrategy::Modulo);
        for _ in 0..3 {
            reset_shared_r(&shared);
            let again = run_mark1_shared(&shared, 4, PartitionStrategy::Modulo);
            assert_eq!(again.messages, first.messages);
        }
        let back = shared.into_store();
        assert!(back.mark(back.root().unwrap(), Slot::R).is_marked());
    }
}
