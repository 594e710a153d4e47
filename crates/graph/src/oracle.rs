//! Sequential reachability oracle: ground truth for the marking processes.
//!
//! Everything the paper's Section 3 characterizes — `R`, the priority
//! classes `R_v` / `R_e` / `R_r`, the task-reachable set `T`, the garbage
//! set `GAR = V − R − F`, the deadlocked set `DL_v = R_v − T`, and the four
//! task classes of Properties 3–6 — is computed here by straightforward
//! (stop-the-world) traversal of a quiescent graph. The concurrent marking
//! processes in `dgr-core` are tested against this oracle, and the
//! stop-the-world baseline collector in `dgr-baseline` is built on it.

use crate::ids::VertexId;
use crate::store::GraphStore;
use crate::vertex::{Priority, RequestKind};

/// A dense set of vertices (bit set indexed by [`VertexId`]).
///
/// # Example
///
/// ```
/// use dgr_graph::{VertexId, VertexSet};
/// let mut s = VertexSet::with_capacity(10);
/// assert!(s.insert(VertexId::new(3)));
/// assert!(!s.insert(VertexId::new(3)));
/// assert!(s.contains(VertexId::new(3)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VertexSet {
    bits: Vec<u64>,
    len: usize,
}

impl VertexSet {
    /// Creates a set able to hold vertices with indices `< capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        VertexSet {
            bits: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts a vertex; returns `true` if it was not already present.
    pub fn insert(&mut self, v: VertexId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes a vertex; returns `true` if it was present.
    pub fn remove(&mut self, v: VertexId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.bits.len() {
            return false;
        }
        let mask = 1u64 << b;
        if self.bits[w] & mask != 0 {
            self.bits[w] &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        w < self.bits.len() && self.bits[w] & (1u64 << b) != 0
    }

    /// Number of vertices in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over members in index order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| VertexId::new((w * 64 + b) as u32))
        })
    }
}

impl FromIterator<VertexId> for VertexSet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let mut s = VertexSet::default();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<VertexId> for VertexSet {
    fn extend<I: IntoIterator<Item = VertexId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// The endpoints of the outstanding tasks, used to seed the `T` traversal.
///
/// The paper's construction introduces a virtual vertex `taskroot_i` per PE
/// whose args are "the source or destination of some task in taskpool(i)",
/// and a `troot` above them; here we simply collect the endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskEndpoints {
    seeds: Vec<VertexId>,
}

impl TaskEndpoints {
    /// Creates an empty endpoint collection (a quiescent system).
    pub fn new() -> Self {
        TaskEndpoints::default()
    }

    /// Records a task `<s, d>`; `src` is `None` for the anonymous initial
    /// task `<-, root>`.
    pub fn push_task(&mut self, src: Option<VertexId>, dst: VertexId) {
        if let Some(s) = src {
            self.seeds.push(s);
        }
        self.seeds.push(dst);
    }

    /// Records a bare seed vertex.
    pub fn push_seed(&mut self, v: VertexId) {
        self.seeds.push(v);
    }

    /// All seed vertices (may contain duplicates).
    pub fn seeds(&self) -> &[VertexId] {
        &self.seeds
    }

    /// Returns `true` if no tasks were recorded.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

impl FromIterator<VertexId> for TaskEndpoints {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        TaskEndpoints {
            seeds: iter.into_iter().collect(),
        }
    }
}

/// Classification of a task `<s, d>` per Properties 3–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// `d ∈ R_v` — the result is known to be needed (Property 3).
    Vital,
    /// `d ∈ R_e − R_v` — speculatively demanded (Property 4).
    Eager,
    /// `d ∈ R_r − R_e − R_v` — destination still reachable but no longer
    /// requested (Property 5).
    Reserve,
    /// `d ∈ GAR` — the destination is garbage; the task should be expunged
    /// (Property 6).
    Irrelevant,
    /// `d ∈ F` — the destination was already reclaimed. Never produced by a
    /// correct system; reported rather than conflated with
    /// [`TaskClass::Irrelevant`] to surface bugs.
    Dangling,
}

/// `R` — vertices reachable from the root through `args` (and the vertices
/// computed structured values keep live).
pub fn reachable_r(g: &GraphStore) -> VertexSet {
    let mut set = VertexSet::with_capacity(g.capacity());
    let Some(root) = g.root() else { return set };
    let mut stack = vec![root];
    set.insert(root);
    while let Some(v) = stack.pop() {
        g.vertex(v).for_each_r_child(|c| {
            if set.insert(c) {
                stack.push(c);
            }
        });
    }
    set
}

/// The priority (`3`/`2`/`1` ≙ `R_v`/`R_e`/`R_r`) of every root-reachable
/// vertex: the maximum over root paths of the minimum request type along
/// the path. `None` for vertices not in `R`.
///
/// Computed by layered search: vertices reachable through vitally-requested
/// arcs only are `Vital`; of the rest, those reachable through requested
/// (vital or eager) arcs are `Eager`; the remaining reachable vertices are
/// `Reserve`.
pub fn priorities(g: &GraphStore) -> Vec<Option<Priority>> {
    type Admit = fn(Option<RequestKind>) -> bool;
    let mut prior: Vec<Option<Priority>> = vec![None; g.capacity()];
    let Some(root) = g.root() else { return prior };

    let passes: [(Priority, Admit); 3] = [
        (Priority::Vital, |k| k == Some(RequestKind::Vital)),
        (Priority::Eager, |k| k.is_some()),
        (Priority::Reserve, |_| true),
    ];
    for (level, admit) in passes {
        if prior[root.index()].is_none() {
            prior[root.index()] = Some(level);
        }
        let mut stack: Vec<VertexId> = prior
            .iter()
            .enumerate()
            .filter(|(_, p)| **p >= Some(level))
            .map(|(i, _)| VertexId::new(i as u32))
            .collect();
        while let Some(v) = stack.pop() {
            g.vertex(v).for_each_r_child_kind(|c, kind| {
                if admit(kind)
                    && prior[c.index()].is_none_or(|p| p < level)
                    && prior[c.index()] != Some(level)
                {
                    prior[c.index()] = Some(level);
                    stack.push(c);
                }
            });
        }
    }
    prior
}

/// `T` — vertices to which task activity might propagate, traced from the
/// given task endpoints through `requested(v) ∪ (args(v) − req-args(v))`.
pub fn reachable_t(g: &GraphStore, tasks: &TaskEndpoints) -> VertexSet {
    let mut set = VertexSet::with_capacity(g.capacity());
    let mut stack = Vec::new();
    for &s in tasks.seeds() {
        if set.insert(s) {
            stack.push(s);
        }
    }
    while let Some(v) = stack.pop() {
        g.vertex(v).for_each_t_child(|c| {
            if set.insert(c) {
                stack.push(c);
            }
        });
    }
    set
}

/// `GAR = V − R − F` (Property 1).
pub fn garbage(g: &GraphStore, r: &VertexSet) -> VertexSet {
    g.ids()
        .filter(|&v| !r.contains(v) && !g.is_free(v))
        .collect()
}

/// All of the paper's Section 3 sets, computed together on a quiescent
/// graph.
///
/// # Example
///
/// ```
/// use dgr_graph::{GraphStore, NodeLabel, Oracle, PrimOp, RequestKind, TaskEndpoints};
/// # fn main() -> Result<(), dgr_graph::GraphError> {
/// // The deadlocked graph of Figure 3-1: x = x + 1.
/// let mut g = GraphStore::with_capacity(4);
/// let x = g.alloc(NodeLabel::Prim(PrimOp::Add))?;
/// let one = g.alloc(NodeLabel::lit_int(1))?;
/// g.connect(x, x);
/// g.connect(x, one);
/// g.vertex_mut(x).set_request_kind(0, Some(RequestKind::Vital));
/// g.vertex_mut(x).set_request_kind(1, Some(RequestKind::Vital));
/// g.set_root(x);
///
/// // Task activity has ceased: no tasks anywhere.
/// let o = Oracle::compute(&g, &TaskEndpoints::new());
/// assert!(o.deadlocked.contains(x), "x awaits its own value");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// `R`: root-reachable vertices.
    pub r: VertexSet,
    /// Per-vertex priority; `Some` exactly for vertices in `R`.
    pub prior: Vec<Option<Priority>>,
    /// `T`: task-reachable vertices.
    pub t: VertexSet,
    /// `GAR = V − R − F`.
    pub garbage: VertexSet,
    /// `DL_v = R_v − T` (Property 2').
    pub deadlocked: VertexSet,
}

impl Oracle {
    /// Computes every set on the given (quiescent) graph and task pool.
    pub fn compute(g: &GraphStore, tasks: &TaskEndpoints) -> Self {
        let r = reachable_r(g);
        let prior = priorities(g);
        let t = reachable_t(g, tasks);
        let gar = garbage(g, &r);
        let deadlocked = g
            .ids()
            .filter(|&v| prior[v.index()] == Some(Priority::Vital) && !t.contains(v))
            .collect();
        Oracle {
            r,
            prior,
            t,
            garbage: gar,
            deadlocked,
        }
    }

    /// `R_v`, `R_e` or `R_r` as a set.
    pub fn priority_class(&self, p: Priority) -> VertexSet {
        self.prior
            .iter()
            .enumerate()
            .filter(|(_, q)| **q == Some(p))
            .map(|(i, _)| VertexId::new(i as u32))
            .collect()
    }

    /// Classifies a task by its destination (Properties 3–6).
    pub fn classify_task(&self, g: &GraphStore, dst: VertexId) -> TaskClass {
        if g.is_free(dst) {
            return TaskClass::Dangling;
        }
        match self.prior[dst.index()] {
            Some(Priority::Vital) => TaskClass::Vital,
            Some(Priority::Eager) => TaskClass::Eager,
            Some(Priority::Reserve) => TaskClass::Reserve,
            None => TaskClass::Irrelevant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{NodeLabel, PrimOp};
    use crate::vertex::Requester;

    fn vid(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn vertex_set_basics() {
        let mut s = VertexSet::with_capacity(4);
        assert!(s.is_empty());
        assert!(s.insert(vid(100)), "grows on demand");
        assert!(s.contains(vid(100)));
        assert!(s.remove(vid(100)));
        assert!(!s.remove(vid(100)));
        assert!(s.is_empty());
    }

    #[test]
    fn vertex_set_iter_in_order() {
        let s: VertexSet = [vid(65), vid(2), vid(2), vid(0)].into_iter().collect();
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![vid(0), vid(2), vid(65)]);
        assert_eq!(s.len(), 3);
    }

    /// root → a → b, with c disconnected.
    fn chain() -> (GraphStore, VertexId, VertexId, VertexId, VertexId) {
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let a = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let c = g.alloc(NodeLabel::lit_int(2)).unwrap();
        g.connect(root, a);
        g.connect(a, b);
        g.set_root(root);
        (g, root, a, b, c)
    }

    #[test]
    fn reachable_r_follows_args() {
        let (g, root, a, b, c) = chain();
        let r = reachable_r(&g);
        assert!(r.contains(root) && r.contains(a) && r.contains(b));
        assert!(!r.contains(c));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn reachable_r_handles_cycles() {
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        g.connect(x, x);
        g.set_root(x);
        let r = reachable_r(&g);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn garbage_is_v_minus_r_minus_f() {
        let (g, _, _, _, c) = chain();
        let r = reachable_r(&g);
        let gar = garbage(&g, &r);
        assert!(gar.contains(c));
        assert_eq!(gar.len(), 1, "free slots are not garbage");
    }

    #[test]
    fn priorities_min_along_path() {
        // root -v-> a -e-> b -v-> c : bottleneck of c is eager.
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(root, a);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(a, b);
        g.vertex_mut(a)
            .set_request_kind(0, Some(RequestKind::Eager));
        g.connect(b, c);
        g.vertex_mut(b)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(root);

        let p = priorities(&g);
        assert_eq!(p[root.index()], Some(Priority::Vital));
        assert_eq!(p[a.index()], Some(Priority::Vital));
        assert_eq!(p[b.index()], Some(Priority::Eager));
        assert_eq!(p[c.index()], Some(Priority::Eager), "eager bottleneck");
    }

    #[test]
    fn priorities_max_over_paths() {
        // Two paths to d: one all-vital, one through an eager arc.
        // The vital path wins (shared subexpressions, Section 3.2).
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let e = g.alloc(NodeLabel::If).unwrap();
        let d = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(root, e);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Eager));
        g.connect(root, d);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Vital));
        g.connect(e, d);
        g.vertex_mut(e)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(root);

        let p = priorities(&g);
        assert_eq!(p[e.index()], Some(Priority::Eager));
        assert_eq!(p[d.index()], Some(Priority::Vital));
    }

    #[test]
    fn priorities_unrequested_arcs_are_reserve() {
        let (g, root, a, b, _) = chain();
        let p = priorities(&g);
        assert_eq!(p[root.index()], Some(Priority::Vital), "root is vital");
        assert_eq!(p[a.index()], Some(Priority::Reserve));
        assert_eq!(p[b.index()], Some(Priority::Reserve));
    }

    #[test]
    fn reachable_t_traces_requested_and_unrequested() {
        // task on b; b has requester a; a has unrequested arc to c.
        let mut g = GraphStore::with_capacity(8);
        let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let c = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let d = g.alloc(NodeLabel::lit_int(3)).unwrap();
        g.connect(a, b);
        g.vertex_mut(a)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(a, c); // unrequested
        g.connect(a, d);
        g.vertex_mut(a)
            .set_request_kind(2, Some(RequestKind::Vital));
        g.vertex_mut(b).add_requester(Requester::Vertex(a));

        let mut tasks = TaskEndpoints::new();
        tasks.push_task(Some(a), b);
        let t = reachable_t(&g, &tasks);
        assert!(t.contains(a), "task source");
        assert!(t.contains(b), "task destination");
        assert!(t.contains(c), "unrequested arc traced");
        assert!(
            !t.contains(d),
            "already-requested arc is not traced forward"
        );
    }

    #[test]
    fn empty_task_pool_gives_empty_t() {
        let (g, ..) = chain();
        let t = reachable_t(&g, &TaskEndpoints::new());
        assert!(t.is_empty());
    }

    #[test]
    fn figure_3_1_deadlock() {
        // x = x + 1 with no tasks left anywhere.
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.vertex_mut(x)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(x, one);
        g.vertex_mut(x)
            .set_request_kind(1, Some(RequestKind::Vital));
        g.set_root(x);
        let o = Oracle::compute(&g, &TaskEndpoints::new());
        assert!(o.deadlocked.contains(x));
        assert!(o.garbage.is_empty());
        assert_eq!(o.classify_task(&g, x), TaskClass::Vital);
    }

    #[test]
    fn classify_task_matches_properties() {
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let vital = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let eager = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let reserve = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let gar = g.alloc(NodeLabel::lit_int(3)).unwrap();
        let freed = g.alloc(NodeLabel::lit_int(4)).unwrap();
        g.connect(root, vital);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, eager);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Eager));
        g.connect(root, reserve);
        g.set_root(root);
        g.free(freed);

        let o = Oracle::compute(&g, &TaskEndpoints::new());
        assert_eq!(o.classify_task(&g, vital), TaskClass::Vital);
        assert_eq!(o.classify_task(&g, eager), TaskClass::Eager);
        assert_eq!(o.classify_task(&g, reserve), TaskClass::Reserve);
        assert_eq!(o.classify_task(&g, gar), TaskClass::Irrelevant);
        assert_eq!(o.classify_task(&g, freed), TaskClass::Dangling);
    }

    #[test]
    fn priority_classes_partition_r() {
        let (g, ..) = chain();
        let o = Oracle::compute(&g, &TaskEndpoints::new());
        let v = o.priority_class(Priority::Vital);
        let e = o.priority_class(Priority::Eager);
        let r = o.priority_class(Priority::Reserve);
        assert_eq!(v.len() + e.len() + r.len(), o.r.len());
    }

    #[test]
    fn values_keep_components_reachable() {
        // A cons whose arcs were rewritten away but whose value names h, t.
        let mut g = GraphStore::with_capacity(4);
        let cell = g.alloc(NodeLabel::Cons).unwrap();
        let h = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let t = g.alloc(NodeLabel::Lit(crate::Value::Nil)).unwrap();
        g.vertex_mut(cell).value = Some(crate::Value::Cons(h, t));
        g.set_root(cell);
        let r = reachable_r(&g);
        assert!(r.contains(h) && r.contains(t));
        let p = priorities(&g);
        assert_eq!(
            p[h.index()],
            Some(Priority::Reserve),
            "value components are lazily reachable"
        );
    }
}
