//! Interpreting marks: Properties 1–6 read off the marked graph.

use dgr_graph::{GraphStore, Priority, Slot, TaskClass, VertexId, VertexSet};
use dgr_reduction::{RedMsg, System};

/// `GAR' = V − R' − F`: live vertices not marked by `M_R` (Property 1,
/// via Theorem 1). Valid after an `M_R` pass completes.
pub fn garbage_vertices(g: &GraphStore) -> VertexSet {
    g.live_ids()
        .filter(|&v| !g.mark(v, Slot::R).is_marked())
        .collect()
}

/// Property 2' at one live vertex (see [`deadlocked_vertices`]).
fn is_deadlocked(g: &GraphStore, v: VertexId) -> bool {
    let mr = g.mark(v, Slot::R);
    mr.is_marked()
        && mr.prior == Priority::Vital
        && !g.mark(v, Slot::T).is_marked()
        && !g.is_touched(v)
        && g.vertex(v).value.is_none()
}

/// `DL'_v = R'_v − T'` (Property 2', via Theorem 2), refined twice:
/// only vertices that have not yet computed a value (a valued vertex has
/// nothing left to deadlock on), and only vertices with **no task
/// activity since the `M_T` pass began** ([`GraphStore::is_touched`]
/// false) — a vertex deadlocked before the pass by definition sees no
/// activity afterwards, while a vertex that became task-reachable
/// *during* the pass (say, a freshly expanded subgraph) is screened out
/// rather than falsely reported. Valid after an `M_T`-then-`M_R` cycle
/// completes.
pub fn deadlocked_vertices(g: &GraphStore) -> Vec<VertexId> {
    g.live_ids().filter(|&v| is_deadlocked(g, v)).collect()
}

/// Everything the restructuring phase reads off the marks of a completed
/// cycle, gathered in **one** pass over the store — the store is the
/// largest thing a cycle touches, and each sweep of it costs a cache miss
/// per vertex.
#[derive(Debug, Default)]
pub(crate) struct MarkCensus {
    /// Live vertices marked by `M_T` (zero unless it ran this cycle).
    pub marked_t: usize,
    /// Live vertices marked by `M_R`, by priority (index 0 = vital /
    /// priority 3).
    pub by_priority: [usize; 3],
    /// [`garbage_vertices`].
    pub garbage: VertexSet,
    /// [`deadlocked_vertices`] (empty unless `M_T` ran this cycle).
    pub deadlocked: Vec<VertexId>,
    /// `M_R`-marked vertices somebody is waiting on: the only vertices
    /// whose `requested` set can name a garbage requester.
    pub waiting: Vec<VertexId>,
    /// Per vertex slot, the lane priority its pending requests belong in:
    /// `max(M_R priority, engine demand)` for marked vertices, `None` for
    /// the rest (empty unless `refresh_demand`).
    pub lane_priority: Vec<Option<Priority>>,
}

impl MarkCensus {
    /// Reads the marks; the T slot only if `M_T` ran this cycle (its
    /// marks are otherwise an earlier cycle's). With `refresh_demand`
    /// every marked vertex's demand is also raised to its `lane_priority`
    /// on the way, so future spawns ride the right lane.
    ///
    /// Effective priority = max(fresh `M_R` mark, current engine demand):
    /// the mark upgrades speculative work that proved needed, while the
    /// demand guards against marks that are stale-low for vertices
    /// demanded *during* the pass.
    pub fn take(g: &mut GraphStore, ran_mt: bool, refresh_demand: bool) -> MarkCensus {
        let mut c = MarkCensus {
            garbage: VertexSet::with_capacity(g.capacity()),
            ..MarkCensus::default()
        };
        if refresh_demand {
            c.lane_priority = vec![None; g.capacity()];
        }
        for v in g.ids() {
            if g.is_free(v) {
                continue;
            }
            if ran_mt && g.mark(v, Slot::T).is_marked() {
                c.marked_t += 1;
            }
            let mr = g.mark(v, Slot::R);
            if !mr.is_marked() {
                c.garbage.insert(v);
                continue;
            }
            c.by_priority[3 - mr.prior as usize] += 1;
            if ran_mt && is_deadlocked(g, v) {
                c.deadlocked.push(v);
            }
            let vert = g.vertex_mut(v);
            if !vert.requested().is_empty() {
                c.waiting.push(v);
            }
            if refresh_demand {
                vert.demand = vert.demand.max(mr.prior);
                c.lane_priority[v.index()] = Some(vert.demand);
            }
        }
        c
    }
}

/// Classifies one pending task by its destination's marks (Properties
/// 3–6).
pub fn classify_task_by_marks(g: &GraphStore, dst: VertexId) -> TaskClass {
    if g.is_free(dst) {
        return TaskClass::Dangling;
    }
    let slot = g.mark(dst, Slot::R);
    if slot.is_marked() {
        match slot.prior {
            Priority::Vital => TaskClass::Vital,
            Priority::Eager => TaskClass::Eager,
            Priority::Reserve => TaskClass::Reserve,
        }
    } else {
        TaskClass::Irrelevant
    }
}

/// A census of the pending reduction tasks by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCensus {
    /// Tasks whose destination is in `R_v` (Property 3).
    pub vital: usize,
    /// Tasks whose destination is in `R_e − R_v` (Property 4).
    pub eager: usize,
    /// Tasks whose destination is in `R_r − R_e − R_v` (Property 5).
    pub reserve: usize,
    /// Tasks whose destination is garbage (Property 6).
    pub irrelevant: usize,
    /// Tasks whose destination is already on the free list (a bug
    /// indicator; always zero with restructuring enabled).
    pub dangling: usize,
}

impl TaskCensus {
    /// Total pending tasks.
    pub fn total(&self) -> usize {
        self.vital + self.eager + self.reserve + self.irrelevant + self.dangling
    }
}

/// Counts the pending *request* tasks of a system by class, using the
/// marks of the most recent completed `M_R` pass. (Returns are not
/// classified: they are the tail end of work already performed.)
pub fn classify_pending_tasks(sys: &System) -> TaskCensus {
    let mut census = TaskCensus::default();
    for (_pe, _lane, msg) in sys.sim().iter_pending() {
        if let Some(RedMsg::Request { dst, .. }) = msg.as_red() {
            match classify_task_by_marks(&sys.graph, *dst) {
                TaskClass::Vital => census.vital += 1,
                TaskClass::Eager => census.eager += 1,
                TaskClass::Reserve => census.reserve += 1,
                TaskClass::Irrelevant => census.irrelevant += 1,
                TaskClass::Dangling => census.dangling += 1,
            }
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_core::driver::{run_mark1, run_mark2, run_mark3, MarkRunConfig};
    use dgr_graph::{NodeLabel, PrimOp, RequestKind, TaskEndpoints};

    #[test]
    fn garbage_is_unmarked_live() {
        let mut g = GraphStore::with_capacity(4);
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let dead = g.alloc(NodeLabel::lit_int(2)).unwrap();
        g.connect(root, a);
        g.set_root(root);
        run_mark1(&mut g, &MarkRunConfig::default());
        let gar = garbage_vertices(&g);
        assert!(gar.contains(dead));
        assert!(!gar.contains(root) && !gar.contains(a));
        assert_eq!(gar.len(), 1, "free slots are not garbage");
    }

    #[test]
    fn figure_3_1_deadlock_detected_by_marks() {
        // x = x + 1 with an exhausted task pool.
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.vertex_mut(x)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(x, one);
        g.vertex_mut(x)
            .set_request_kind(1, Some(RequestKind::Vital));
        g.vertex_mut(one).value = Some(dgr_graph::Value::Int(1));
        g.set_root(x);

        run_mark3(&mut g, &TaskEndpoints::new(), &MarkRunConfig::default());
        run_mark2(&mut g, &MarkRunConfig::default());
        let dl = deadlocked_vertices(&g);
        assert_eq!(dl, vec![x], "x deadlocked; the literal already has a value");
    }

    #[test]
    fn census_agrees_with_the_per_property_readers() {
        // root -v-> x (x = x + 1, deadlocked), root → a (requested by
        // root, so somebody is waiting on it), one dead vertex, one free.
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let dead = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let freed = g.alloc(NodeLabel::lit_int(3)).unwrap();
        g.connect(root, x);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(x, x);
        g.vertex_mut(x)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, a);
        g.vertex_mut(a)
            .add_requester(dgr_graph::Requester::Vertex(root));
        g.set_root(root);
        g.free(freed);
        run_mark3(&mut g, &TaskEndpoints::new(), &MarkRunConfig::default());
        run_mark2(&mut g, &MarkRunConfig::default());

        let garbage = garbage_vertices(&g);
        let deadlocked = deadlocked_vertices(&g);
        assert!(garbage.contains(dead) && deadlocked.contains(&x));
        let c = MarkCensus::take(&mut g, true, true);
        assert_eq!(c.garbage, garbage);
        assert_eq!(c.deadlocked, deadlocked);
        assert_eq!(c.marked_t, 0);
        assert_eq!(c.by_priority, [2, 0, 1], "root and x vital, a reserve");
        assert_eq!(c.waiting, vec![a]);
        assert_eq!(c.lane_priority[x.index()], Some(Priority::Vital));
        assert_eq!(c.lane_priority[dead.index()], None);
        assert_eq!(c.lane_priority[freed.index()], None);
        assert_eq!(g.vertex(x).demand, Priority::Vital, "demand refreshed");
        // Without the options nothing is written and nothing extra read.
        g.vertex_mut(x).demand = Priority::Reserve;
        let c = MarkCensus::take(&mut g, false, false);
        assert!(c.deadlocked.is_empty() && c.lane_priority.is_empty());
        assert_eq!(g.vertex(x).demand, Priority::Reserve);
    }

    #[test]
    fn classification_matches_marks() {
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let vital = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let eager = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let gar = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let freed = g.alloc(NodeLabel::lit_int(3)).unwrap();
        g.connect(root, vital);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, eager);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Eager));
        g.set_root(root);
        g.free(freed);
        run_mark2(&mut g, &MarkRunConfig::default());

        assert_eq!(classify_task_by_marks(&g, vital), TaskClass::Vital);
        assert_eq!(classify_task_by_marks(&g, eager), TaskClass::Eager);
        assert_eq!(classify_task_by_marks(&g, gar), TaskClass::Irrelevant);
        assert_eq!(classify_task_by_marks(&g, freed), TaskClass::Dangling);
        assert_eq!(classify_task_by_marks(&g, root), TaskClass::Vital);
    }

    #[test]
    fn census_totals() {
        let c = TaskCensus {
            vital: 1,
            eager: 2,
            reserve: 3,
            irrelevant: 4,
            dangling: 0,
        };
        assert_eq!(c.total(), 10);
    }
}
