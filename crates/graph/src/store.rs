//! The graph store: the vertex universe `V`, the free list `F`, the root,
//! and the partition of vertices among processing elements.

use crate::error::GraphError;
use crate::ids::{PeId, VertexId};
use crate::label::NodeLabel;
use crate::vertex::{MarkSlot, Requester, Slot, Vertex};

/// How vertices are assigned to processing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `v mod n`: neighboring indices land on different PEs (fine-grained,
    /// maximizes task traffic between PEs).
    Modulo,
    /// Contiguous blocks of `⌈|V|/n⌉` indices per PE (coarse-grained,
    /// minimizes cross-partition arcs for sequentially-allocated graphs).
    Block,
}

/// Maps vertices to the processing element that owns them.
///
/// # Example
///
/// ```
/// use dgr_graph::{PartitionMap, PartitionStrategy, VertexId};
/// let p = PartitionMap::new(4, 100, PartitionStrategy::Modulo);
/// assert_eq!(p.pe_of(VertexId::new(5)).index(), 1);
/// assert_eq!(p.num_pes(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    num_pes: u16,
    /// Indices per PE under [`PartitionStrategy::Block`], fixed here so
    /// [`PartitionMap::pe_of`] — called once per routed task — divides
    /// once, not twice.
    block: usize,
    /// `⌈2⁶⁴ / num_pes⌉`, so that [`PartitionMap::pe_of`] takes a 32-bit
    /// index modulo `num_pes` with two multiplications instead of a
    /// division (Lemire, Kaser and Kurz, "Faster remainder by direct
    /// computation", 2019); `mark2` asks once per arc it traverses.
    modulo_inv: u64,
    strategy: PartitionStrategy,
}

impl PartitionMap {
    /// Creates a partition of `capacity` vertex slots over `num_pes` PEs.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is zero.
    pub fn new(num_pes: u16, capacity: usize, strategy: PartitionStrategy) -> Self {
        assert!(num_pes > 0, "a system needs at least one PE");
        PartitionMap {
            num_pes,
            block: capacity.div_ceil(num_pes as usize).max(1),
            modulo_inv: (u64::MAX / u64::from(num_pes)).wrapping_add(1),
            strategy,
        }
    }

    /// The same PEs and strategy over `capacity` vertex slots — the map
    /// after the store grew.
    pub fn resized(&self, capacity: usize) -> Self {
        PartitionMap::new(self.num_pes, capacity, self.strategy)
    }

    /// The PE owning vertex `v`.
    #[inline]
    pub fn pe_of(&self, v: VertexId) -> PeId {
        let n = self.num_pes as usize;
        if n == 1 {
            return PeId::new(0);
        }
        match self.strategy {
            PartitionStrategy::Modulo => {
                let fraction = self.modulo_inv.wrapping_mul(v.index() as u64);
                PeId::new(((u128::from(fraction) * n as u128) >> 64) as u16)
            }
            PartitionStrategy::Block => PeId::new(((v.index() / self.block).min(n - 1)) as u16),
        }
    }

    /// The PE a message addressed to `dest` executes on: the owner of its
    /// destination vertex, and PE 0 — where marking is initiated and the
    /// external observer listens — for a message with none (a return to
    /// a virtual root, the reply to the observer).
    #[inline]
    pub fn pe_of_dest(&self, dest: Option<VertexId>) -> PeId {
        dest.map_or(PeId::new(0), |v| self.pe_of(v))
    }

    /// Number of processing elements.
    pub fn num_pes(&self) -> u16 {
        self.num_pes
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }
}

/// The per-vertex byte-cost model: maps a label to the number of bytes
/// the vertex is modeled to occupy in its PE's local store.
///
/// The store charges the model once at allocation time and remembers the
/// result in a SoA weights array, so later in-place label overwrites (a
/// reduction rewriting a vertex to an indirection) keep the allocation-time
/// weight until the vertex is freed.
///
/// The model is arity-derived: a fixed per-vertex base plus one
/// arc slot per argument the label naturally takes (`Prim` → its operator
/// arity, `If` → 3, `Cons`/`Apply` → 2, `Ind` → 1, `Lit`/`Hole` → 0).
pub fn default_cost_model(label: &NodeLabel) -> u32 {
    /// Modeled size of the vertex header (label, marks, stamps).
    const BASE: u32 = 16;
    /// Modeled size of one outgoing arc slot.
    const ARC: u32 = 8;
    let arity = match label {
        NodeLabel::Prim(op) => op.arity(),
        NodeLabel::If => 3,
        NodeLabel::Cons | NodeLabel::Apply => 2,
        NodeLabel::Ind => 1,
        NodeLabel::Lit(_) | NodeLabel::Hole => 0,
    };
    BASE + ARC * arity as u32
}

/// One byte-accounting event, journaled by the store when
/// [`GraphStore::set_heap_journal`] is on so an external observer (the
/// telemetry heap tracker) can replay allocation traffic without hooking
/// every call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapDelta {
    /// A vertex left the free list carrying `bytes` modeled bytes.
    Alloc {
        /// The allocated vertex.
        id: VertexId,
        /// Its modeled byte weight at allocation time.
        bytes: u32,
    },
    /// A vertex returned to the free list, releasing `bytes`.
    Free {
        /// The freed vertex.
        id: VertexId,
        /// The modeled byte weight it released.
        bytes: u32,
    },
}

/// The store-wide epoch counters that implement O(1) lazy resets: one
/// marking epoch per [`Slot`] and one touch epoch for the task-activity
/// stamps. Epochs start at 1 so the all-zero state of a fresh vertex is
/// always stale (= reads as reset / untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epochs {
    /// Current marking cycle per slot, indexed by [`Slot::index`].
    pub mark: [u32; 2],
    /// Current touch epoch.
    pub touch: u32,
}

impl Default for Epochs {
    fn default() -> Self {
        Epochs {
            mark: [1, 1],
            touch: 1,
        }
    }
}

/// The computation-graph store: all vertices (the finite universe `V`), the
/// free list `F`, the distinguished root, and the epoch counters that make
/// between-cycle resets O(1).
///
/// The store itself is runtime-agnostic data; the deterministic simulator
/// holds one directly, and the threaded runtime shards it behind per-vertex
/// locks (see `dgr-sim`).
///
/// # Example
///
/// ```
/// use dgr_graph::{GraphStore, NodeLabel};
/// # fn main() -> Result<(), dgr_graph::GraphError> {
/// let mut g = GraphStore::with_capacity(4);
/// assert_eq!(g.free_count(), 4);
/// let a = g.alloc(NodeLabel::lit_int(1))?;
/// assert_eq!(g.free_count(), 3);
/// g.free(a);
/// assert_eq!(g.free_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphStore {
    verts: Vec<Vertex>,
    free: Vec<VertexId>,
    root: Option<VertexId>,
    epochs: Epochs,
    /// Modeled byte weight per vertex slot (SoA, parallel to `verts`);
    /// free slots weigh 0.
    weights: Vec<u32>,
    /// Sum of the weights of all live vertices.
    live_bytes: u64,
    /// Cumulative bytes ever charged by allocations; never decreases.
    alloc_bytes_total: u64,
    /// Byte-accounting journal, appended only while `journal_on`.
    journal: Vec<HeapDelta>,
    journal_on: bool,
}

impl GraphStore {
    /// Creates a store whose free list holds `capacity` fresh vertices.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut g = GraphStore {
            verts: Vec::new(),
            free: Vec::new(),
            root: None,
            epochs: Epochs::default(),
            weights: Vec::new(),
            live_bytes: 0,
            alloc_bytes_total: 0,
            journal: Vec::new(),
            journal_on: false,
        };
        g.grow(capacity);
        // Pop from the low end first so allocation order matches index order,
        // which keeps examples and tests readable.
        g.free.reverse();
        g
    }

    /// Creates an empty store (no capacity; grow with [`GraphStore::grow`]).
    pub fn new() -> Self {
        GraphStore::with_capacity(0)
    }

    /// Adds `extra` fresh vertices to the free list.
    pub fn grow(&mut self, extra: usize) {
        let start = self.verts.len();
        let end = start + extra;
        // Each array reserves once and writes its new slots where they
        // will live.
        self.verts.resize_with(end, Vertex::free_slot);
        self.weights.resize(end, 0);
        self.free
            .extend((start..end).map(|i| VertexId::new(i as u32)));
    }

    /// Allocates a vertex from the free list `F` with the given label.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::OutOfVertices`] if `F` is empty.
    pub fn alloc(&mut self, label: NodeLabel) -> Result<VertexId, GraphError> {
        let id = self.free.pop().ok_or(GraphError::OutOfVertices {
            requested: 1,
            available: 0,
        })?;
        let bytes = default_cost_model(&label);
        let v = &mut self.verts[id.index()];
        debug_assert!(v.in_free_list);
        v.reinit(label);
        self.charge_alloc(id, bytes);
        Ok(id)
    }

    /// Allocates `n` vertices at once (all-or-nothing), leaving exactly
    /// their ids in the caller's `out` — a list the caller keeps across
    /// calls, so a bulk allocation makes no allocator call of its own.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::OutOfVertices`] if fewer than `n` vertices are
    /// free; in that case nothing is allocated.
    pub fn alloc_many(&mut self, n: usize, out: &mut Vec<VertexId>) -> Result<(), GraphError> {
        out.clear();
        if self.free.len() < n {
            return Err(GraphError::OutOfVertices {
                requested: n,
                available: self.free.len(),
            });
        }
        let bytes = default_cost_model(&NodeLabel::Hole);
        for _ in 0..n {
            let id = self.free.pop().expect("checked length");
            self.verts[id.index()].reinit(NodeLabel::Hole);
            self.charge_alloc(id, bytes);
            out.push(id);
        }
        Ok(())
    }

    /// Returns vertex `id` to the free list, clearing its contents.
    ///
    /// Freeing an already-free vertex is a no-op (the restructuring phase
    /// may discover the same garbage vertex through several paths).
    pub fn free(&mut self, id: VertexId) {
        let v = &mut self.verts[id.index()];
        if v.in_free_list {
            return;
        }
        v.clear_for_free();
        v.in_free_list = true;
        self.free.push(id);
        let bytes = std::mem::take(&mut self.weights[id.index()]);
        self.live_bytes -= u64::from(bytes);
        if self.journal_on {
            self.journal.push(HeapDelta::Free { id, bytes });
        }
    }

    // ------------------------------------------------------------------
    // Byte-weighted allocation accounting. Every allocation charges the
    // cost model once; the result lives in a SoA weights array so the
    // running live-bytes clock is one add per alloc and one subtract per
    // free — cheap enough to stay on in every build, which is what lets
    // `GcTrigger::HeapBytes` work with telemetry compiled out.
    // ------------------------------------------------------------------

    fn charge_alloc(&mut self, id: VertexId, bytes: u32) {
        self.weights[id.index()] = bytes;
        self.live_bytes += u64::from(bytes);
        self.alloc_bytes_total += u64::from(bytes);
        if self.journal_on {
            self.journal.push(HeapDelta::Alloc { id, bytes });
        }
    }

    /// Sum of the modeled byte weights of all live vertices.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Cumulative bytes ever charged by allocations (never decreases).
    pub fn alloc_bytes_total(&self) -> u64 {
        self.alloc_bytes_total
    }

    /// The modeled byte weight of vertex `id` (0 for free slots).
    pub fn vertex_bytes(&self, id: VertexId) -> u32 {
        self.weights[id.index()]
    }

    /// Turns the byte-accounting journal on or off. While on, every
    /// alloc/free appends a [`HeapDelta`]; the observer drains
    /// them with [`GraphStore::take_heap_journal`].
    pub fn set_heap_journal(&mut self, on: bool) {
        self.journal_on = on;
        if !on {
            self.journal.clear();
        }
    }

    /// Drains and returns the accumulated heap journal.
    pub fn take_heap_journal(&mut self) -> Vec<HeapDelta> {
        std::mem::take(&mut self.journal)
    }

    /// Whether any journal entries are waiting to be drained.
    pub fn heap_journal_pending(&self) -> bool {
        !self.journal.is_empty()
    }

    /// Shared access to a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.verts[id.index()]
    }

    /// Exclusive access to a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vertex_mut(&mut self, id: VertexId) -> &mut Vertex {
        &mut self.verts[id.index()]
    }

    // ------------------------------------------------------------------
    // Epoch-based marking state. Starting a cycle is a single counter
    // bump; per-vertex slots are reset lazily on first access, so the
    // O(|V|) between-pass sweep the paper's `reset` step implies is gone.
    // ------------------------------------------------------------------

    /// The current marking epoch of a slot.
    pub fn mark_epoch(&self, slot: Slot) -> u32 {
        self.epochs.mark[slot.index()]
    }

    /// Begins a new marking cycle for `slot`: every vertex's slot now
    /// reads as freshly reset. O(1).
    pub fn begin_mark_cycle(&mut self, slot: Slot) {
        self.epochs.mark[slot.index()] = self.epochs.mark[slot.index()].wrapping_add(1);
    }

    /// The epoch-normalized marking state of vertex `v` in `slot`: the
    /// stored slot if it belongs to the current cycle, a reset slot
    /// otherwise. This is the canonical way to *read* marks.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn mark(&self, v: VertexId, slot: Slot) -> MarkSlot {
        self.verts[v.index()].mark_at(slot, self.epochs.mark[slot.index()])
    }

    /// Mutable current-cycle marking state of vertex `v` in `slot`,
    /// lazily resetting a stale slot first. This is the canonical way to
    /// *write* marks.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn mark_mut(&mut self, v: VertexId, slot: Slot) -> &mut MarkSlot {
        self.verts[v.index()].mark_at_mut(slot, self.epochs.mark[slot.index()])
    }

    /// Records task activity at `v` (the deadlock report's activity
    /// screen).
    pub fn touch(&mut self, v: VertexId) {
        self.verts[v.index()].touched_at = self.epochs.touch;
    }

    /// Whether `v` has seen task activity since the last
    /// [`GraphStore::clear_touched`].
    pub fn is_touched(&self, v: VertexId) -> bool {
        self.verts[v.index()].touched_at == self.epochs.touch
    }

    /// Clears every vertex's activity stamp. O(1) (epoch bump).
    pub fn clear_touched(&mut self) {
        self.epochs.touch = self.epochs.touch.wrapping_add(1);
    }

    /// The distinguished root vertex, if set.
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Declares `id` the root at which the reduction process is initiated.
    pub fn set_root(&mut self, id: VertexId) {
        self.root = Some(id);
    }

    /// Total number of vertex slots (`|V|`).
    pub fn capacity(&self) -> usize {
        self.verts.len()
    }

    /// Number of vertices on the free list (`|F|`).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of vertices *not* on the free list.
    pub fn live_count(&self) -> usize {
        self.verts.len() - self.free.len()
    }

    /// Whether `id` currently sits on the free list.
    pub fn is_free(&self, id: VertexId) -> bool {
        self.verts[id.index()].is_free()
    }

    /// Iterates over all vertex ids (free and allocated).
    pub fn ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.verts.len() as u32).map(VertexId::new)
    }

    /// Iterates over allocated (non-free) vertex ids.
    pub fn live_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ids().filter(move |&id| !self.is_free(id))
    }

    // ------------------------------------------------------------------
    // Raw (non-cooperating) graph mutations. The *cooperating* versions
    // that splice extra marking activity into the marking tree live in
    // `dgr-core`; these are the bare `connect` / `disconnect` /
    // `splice-in-subgraph` operations of Figure 4-2's prose.
    // ------------------------------------------------------------------

    /// `connect(a, b)`: adds `b` to `children(a)` (an unrequested arc).
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn connect(&mut self, a: VertexId, b: VertexId) {
        debug_assert!(!self.verts[b.index()].is_free(), "connecting to free {b}");
        self.verts[a.index()].push_arg(b);
    }

    /// `disconnect(a, b)`: removes one occurrence of `b` from
    /// `children(a)`. Returns `true` if an arc was removed.
    pub fn disconnect(&mut self, a: VertexId, b: VertexId) -> bool {
        self.verts[a.index()].remove_arg(b).is_some()
    }

    /// Removes `a` from `requested(b)` (the second half of the paper's
    /// *dereference* of an eagerly-requested vertex).
    pub fn remove_requester(&mut self, b: VertexId, a: Requester) -> bool {
        self.verts[b.index()].remove_requester(a)
    }

    /// Decomposes the store into its vertices, free list, root and epoch
    /// counters, for conversion into a shared (per-vertex-locked)
    /// representation by a parallel runtime.
    pub fn into_parts(self) -> (Vec<Vertex>, Vec<VertexId>, Option<VertexId>, Epochs) {
        (self.verts, self.free, self.root, self.epochs)
    }

    /// Rebuilds a store from parts produced by [`GraphStore::into_parts`]
    /// (or assembled by a parallel runtime). Free-list flags are
    /// resynchronized from the `free` vector, and byte weights are
    /// re-derived from each live vertex's current label (a rebuilt store
    /// restarts its allocation accounting).
    pub fn from_parts(
        mut verts: Vec<Vertex>,
        free: Vec<VertexId>,
        root: Option<VertexId>,
        epochs: Epochs,
    ) -> Self {
        for v in verts.iter_mut() {
            v.in_free_list = false;
        }
        for &id in &free {
            verts[id.index()].in_free_list = true;
        }
        let mut weights = vec![0u32; verts.len()];
        let mut live_bytes = 0u64;
        for (w, v) in weights.iter_mut().zip(verts.iter()) {
            if !v.in_free_list {
                *w = default_cost_model(&v.label);
                live_bytes += u64::from(*w);
            }
        }
        GraphStore {
            verts,
            free,
            root,
            epochs,
            weights,
            live_bytes,
            alloc_bytes_total: live_bytes,
            journal: Vec::new(),
            journal_on: false,
        }
    }

    /// Verifies store-wide structural invariants (for tests): parallel
    /// vectors consistent, free-list flags in sync, arcs target real slots.
    pub fn check_consistency(&self) -> Result<(), String> {
        for id in self.ids() {
            let v = self.vertex(id);
            if !v.check_consistency() {
                return Err(format!("{id}: parallel vectors out of sync"));
            }
            for &a in v.args() {
                if a.index() >= self.verts.len() {
                    return Err(format!("{id}: arc to nonexistent {a}"));
                }
            }
        }
        let mut free_flags = 0usize;
        for id in self.ids() {
            if self.is_free(id) {
                free_flags += 1;
            }
        }
        if free_flags != self.free.len() {
            return Err(format!(
                "free-list length {} disagrees with {} flagged vertices",
                self.free.len(),
                free_flags
            ));
        }
        if self.weights.len() != self.verts.len() {
            return Err(format!(
                "weights array length {} disagrees with {} vertices",
                self.weights.len(),
                self.verts.len()
            ));
        }
        let mut live_bytes = 0u64;
        for id in self.ids() {
            let w = self.weights[id.index()];
            if self.is_free(id) {
                if w != 0 {
                    return Err(format!("{id}: free slot carries weight {w}"));
                }
            } else {
                live_bytes += u64::from(w);
            }
        }
        if live_bytes != self.live_bytes {
            return Err(format!(
                "live-bytes clock {} disagrees with summed weights {live_bytes}",
                self.live_bytes
            ));
        }
        Ok(())
    }
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::PrimOp;
    use crate::vertex::RequestKind;

    #[test]
    fn alloc_pops_low_indices_first() {
        let mut g = GraphStore::with_capacity(3);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        let b = g.alloc(NodeLabel::Hole).unwrap();
        assert_eq!(a, VertexId::new(0));
        assert_eq!(b, VertexId::new(1));
    }

    #[test]
    fn alloc_exhaustion_errors() {
        let mut g = GraphStore::with_capacity(1);
        g.alloc(NodeLabel::Hole).unwrap();
        let err = g.alloc(NodeLabel::Hole).unwrap_err();
        assert!(matches!(err, GraphError::OutOfVertices { .. }));
    }

    #[test]
    fn alloc_many_is_all_or_nothing() {
        let mut g = GraphStore::with_capacity(3);
        let mut ids = vec![VertexId::new(9)];
        assert!(g.alloc_many(4, &mut ids).is_err());
        assert_eq!((g.free_count(), ids.len()), (3, 0));
        g.alloc_many(3, &mut ids).unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(g.free_count(), 0);
    }

    #[test]
    fn free_clears_and_recycles() {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.free(a);
        assert!(g.is_free(a));
        assert!(g.vertex(a).label.is_hole());
        assert!(g.vertex(a).args().is_empty());
        // Double free is a no-op.
        g.free(a);
        assert_eq!(g.free_count(), 1);
        let again = g.alloc(NodeLabel::If).unwrap();
        assert_eq!(again, a, "freed slot is reused");
    }

    #[test]
    fn grow_extends_free_list() {
        let mut g = GraphStore::with_capacity(1);
        g.alloc(NodeLabel::Hole).unwrap();
        g.grow(5);
        assert_eq!(g.capacity(), 6);
        assert_eq!(g.free_count(), 5);
        assert!(g.alloc(NodeLabel::Hole).is_ok());
    }

    #[test]
    fn connect_disconnect_roundtrip() {
        let mut g = GraphStore::with_capacity(3);
        let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(2)).unwrap();
        g.connect(a, b);
        g.connect(a, b); // multiset arc
        assert_eq!(g.vertex(a).args(), &[b, b]);
        assert!(g.disconnect(a, b));
        assert_eq!(g.vertex(a).args(), &[b]);
        assert!(g.disconnect(a, b));
        assert!(!g.disconnect(a, b));
    }

    #[test]
    fn remove_requester_via_store() {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::lit_int(0)).unwrap();
        g.vertex_mut(b).add_requester(Requester::Vertex(a));
        assert!(g.remove_requester(b, Requester::Vertex(a)));
        assert!(!g.remove_requester(b, Requester::Vertex(a)));
    }

    #[test]
    fn live_ids_excludes_free() {
        let mut g = GraphStore::with_capacity(3);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        let b = g.alloc(NodeLabel::Hole).unwrap();
        g.free(a);
        let live: Vec<_> = g.live_ids().collect();
        assert_eq!(live, vec![b]);
        assert_eq!(g.live_count(), 1);
    }

    #[test]
    fn consistency_check_passes_on_sane_store() {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.vertex_mut(a)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(a);
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn begin_mark_cycle_resets_all_marks_in_o1() {
        use crate::vertex::Color;
        let mut g = GraphStore::with_capacity(3);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        let b = g.alloc(NodeLabel::Hole).unwrap();
        g.mark_mut(a, Slot::R).color = Color::Marked;
        g.mark_mut(b, Slot::R).mt_cnt = 5;
        g.mark_mut(b, Slot::T).color = Color::Transient;
        g.begin_mark_cycle(Slot::R);
        assert!(g.mark(a, Slot::R).is_unmarked());
        assert_eq!(g.mark(b, Slot::R).mt_cnt, 0);
        // The T slot has its own epoch and is untouched by R's reset.
        assert_eq!(g.mark(b, Slot::T).color, Color::Transient);
        // Writing after the reset stamps the new epoch.
        g.mark_mut(a, Slot::R).color = Color::Transient;
        assert_eq!(g.mark(a, Slot::R).color, Color::Transient);
    }

    #[test]
    fn touch_epoch_clears_in_o1() {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        let b = g.alloc(NodeLabel::Hole).unwrap();
        assert!(!g.is_touched(a));
        g.touch(a);
        assert!(g.is_touched(a));
        assert!(!g.is_touched(b));
        g.clear_touched();
        assert!(!g.is_touched(a));
        g.touch(b);
        assert!(g.is_touched(b));
    }

    #[test]
    fn parts_roundtrip_preserves_epochs() {
        use crate::vertex::Color;
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        g.mark_mut(a, Slot::R).color = Color::Marked;
        g.begin_mark_cycle(Slot::R);
        g.begin_mark_cycle(Slot::R);
        let epoch = g.mark_epoch(Slot::R);
        let (verts, free, root, epochs) = g.into_parts();
        let g2 = GraphStore::from_parts(verts, free, root, epochs);
        assert_eq!(g2.mark_epoch(Slot::R), epoch);
        // The stale pre-reset mark stays invisible after the roundtrip.
        assert!(g2.mark(a, Slot::R).is_unmarked());
    }

    #[test]
    fn byte_accounting_tracks_alloc_and_free() {
        let mut g = GraphStore::with_capacity(4);
        assert_eq!(g.live_bytes(), 0);
        let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap(); // 16 + 2*8
        let b = g.alloc(NodeLabel::lit_int(7)).unwrap(); // 16 + 0
        assert_eq!(g.vertex_bytes(a), 32);
        assert_eq!(g.vertex_bytes(b), 16);
        assert_eq!(g.live_bytes(), 48);
        assert_eq!(g.alloc_bytes_total(), 48);
        g.free(a);
        assert_eq!(g.vertex_bytes(a), 0);
        assert_eq!(g.live_bytes(), 16);
        assert_eq!(g.alloc_bytes_total(), 48, "cumulative never decreases");
        // Double free charges nothing twice.
        g.free(a);
        assert_eq!(g.live_bytes(), 16);
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn journal_replays_the_byte_traffic() {
        let mut g = GraphStore::with_capacity(3);
        let silent = g.alloc(NodeLabel::Hole).unwrap();
        g.set_heap_journal(true);
        assert!(!g.heap_journal_pending());
        let a = g.alloc(NodeLabel::Ind).unwrap(); // 16 + 8
        g.free(a);
        g.free(silent);
        let j = g.take_heap_journal();
        assert_eq!(
            j,
            vec![
                HeapDelta::Alloc { id: a, bytes: 24 },
                HeapDelta::Free { id: a, bytes: 24 },
                HeapDelta::Free {
                    id: silent,
                    bytes: 16
                },
            ]
        );
        assert!(!g.heap_journal_pending());
        g.set_heap_journal(false);
        let _ = g.alloc(NodeLabel::Hole).unwrap();
        assert!(!g.heap_journal_pending(), "journal off records nothing");
    }

    #[test]
    fn from_parts_rederives_weights_from_labels() {
        let mut g = GraphStore::with_capacity(3);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.free(b);
        let (verts, free, root, epochs) = g.into_parts();
        let g2 = GraphStore::from_parts(verts, free, root, epochs);
        assert_eq!(g2.vertex_bytes(a), 40, "re-derived from the If label");
        assert_eq!(g2.live_bytes(), 40);
        assert_eq!(g2.alloc_bytes_total(), 40);
        assert!(g2.check_consistency().is_ok());
    }

    #[test]
    fn partition_modulo() {
        let p = PartitionMap::new(4, 16, PartitionStrategy::Modulo);
        assert_eq!(p.pe_of(VertexId::new(0)).index(), 0);
        assert_eq!(p.pe_of(VertexId::new(7)).index(), 3);
        assert_eq!(p.pe_of(VertexId::new(9)).index(), 1);
    }

    #[test]
    fn partition_block() {
        let p = PartitionMap::new(4, 16, PartitionStrategy::Block);
        assert_eq!(p.pe_of(VertexId::new(0)).index(), 0);
        assert_eq!(p.pe_of(VertexId::new(3)).index(), 0);
        assert_eq!(p.pe_of(VertexId::new(4)).index(), 1);
        assert_eq!(p.pe_of(VertexId::new(15)).index(), 3);
        // Out-of-range indices clamp to the last PE rather than panic.
        assert_eq!(p.pe_of(VertexId::new(100)).index(), 3);
    }

    #[test]
    fn pe_of_matches_the_formula_it_caches() {
        for n in [1u16, 2, 3, 4, 7, 16] {
            for capacity in [0usize, 1, 2, 3, 5, 15, 16, 17, 100, 1000] {
                let modulo = PartitionMap::new(n, capacity, PartitionStrategy::Modulo);
                let block = PartitionMap::new(n, capacity, PartitionStrategy::Block);
                let (n, size) = (n as usize, capacity.div_ceil(n as usize).max(1));
                // Past `capacity` too: the last block takes the overshoot.
                for v in 0..capacity + 2 * n + 2 {
                    let id = VertexId::new(v as u32);
                    assert_eq!(modulo.pe_of(id).index(), v % n, "{n} {capacity} {v}");
                    assert_eq!(
                        block.pe_of(id).index(),
                        (v / size).min(n - 1),
                        "{n} {capacity} {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn modulo_holds_for_every_32_bit_index() {
        for n in [2u16, 3, 5, 7, 16, 1000, 65_521, u16::MAX] {
            let p = PartitionMap::new(n, 0, PartitionStrategy::Modulo);
            let edges = (0..4096u32).chain(u32::MAX - 4096..=u32::MAX);
            for v in edges.chain((0..4096u32).map(|k| k.wrapping_mul(2_654_435_761))) {
                let want = v % u32::from(n);
                assert_eq!(p.pe_of(VertexId::new(v)).index(), want as usize, "{n} {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn partition_requires_a_pe() {
        let _ = PartitionMap::new(0, 4, PartitionStrategy::Modulo);
    }
}
