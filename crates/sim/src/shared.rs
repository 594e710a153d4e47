//! A computation graph shared between PE threads: atomic mark words over
//! an immutable snapshot of the graph's shape.

use std::sync::atomic::{AtomicU32, Ordering};

use dgr_graph::{Epochs, GraphStore, MarkWords, Slot, Vertex, VertexId};

/// Set in the row start of a vertex on the free list.
const FREE: u32 = 1 << 31;

/// The computation graph in the form the threaded runtime uses: one
/// [`MarkWords`] record per vertex carrying its marking state and the
/// start of its R-children row, and the rows themselves in one array — a
/// compressed sparse row snapshot taken when the graph enters the shared
/// form.
///
/// Nothing allocates, frees or rewires a vertex while a graph is shared,
/// so the snapshot needs no lock: a task claims or drains one vertex's
/// record and reads one contiguous slice, and the task that claims a
/// vertex also probes its children's words, settling the children
/// already visited in place (Section 6: marking tasks "never nest the
/// locking of vertices" — a probe locks nothing). This is the
/// static-graph form, all
/// [`StealRuntime`] runs today; a mutator running beside the marker has
/// to bring an adjacency it can write.
///
/// [`StealRuntime`]: crate::StealRuntime
///
/// # Example
///
/// ```
/// use dgr_graph::{GraphStore, NodeLabel};
/// use dgr_sim::SharedGraph;
///
/// let mut store = GraphStore::with_capacity(3);
/// let a = store.alloc(NodeLabel::lit_int(1)).unwrap();
/// let b = store.alloc(NodeLabel::If).unwrap();
/// store.connect(b, a);
/// let shared = SharedGraph::from_store(store);
/// assert_eq!(shared.r_children(b), Some(&[a][..]));
/// assert_eq!(shared.r_children(a), Some(&[][..]));
/// let back = shared.into_store();
/// assert_eq!(back.live_count(), 2);
/// ```
#[derive(Debug)]
pub struct SharedGraph {
    /// The vertices as they came in, untouched until
    /// [`SharedGraph::into_store`] hands them back.
    verts: Vec<Vertex>,
    /// The free list, carried through for round-tripping (the shared
    /// form is read-only in shape: nothing allocates or frees).
    free: Vec<VertexId>,
    root: Option<VertexId>,
    /// Current marking epoch per [`Slot`] (see [`Epochs`]). Bumped only
    /// between passes, while no marking thread is running, so Relaxed
    /// loads inside a pass always see the pass's epoch (the thread spawn
    /// that starts the pass synchronizes-with everything before it).
    mark_epochs: [AtomicU32; 2],
    /// Touch epoch, carried through for round-tripping (the threaded
    /// marking runtime never touches vertices).
    touch_epoch: u32,
    /// One 16-byte record per vertex (see [`MarkWords`]): the hot R-slot
    /// state word that marking passes transition with CAS, the parent,
    /// and the start of the vertex's row in `child_targets`, which
    /// carries [`FREE`] iff the vertex is on the free list. The records
    /// are authoritative while the graph is shared;
    /// [`SharedGraph::into_store`] writes them back into the vertex slots.
    marks: MarkWords,
    /// Every vertex's R-children, row after row: vertex `v`'s row spans
    /// its record's row start to the next record's, [`FREE`] masked off.
    child_targets: Vec<VertexId>,
}

impl SharedGraph {
    /// Converts a plain store into the shared form.
    pub fn from_store(store: GraphStore) -> Self {
        let (verts, free, root, epochs) = store.into_parts();
        let mut child_targets = Vec::new();
        let marks = MarkWords::from_slots(&verts, Slot::R, |v| {
            let start = child_targets.len() as u32;
            match v {
                Some(v) if v.is_free() => start | FREE,
                Some(v) => {
                    v.for_each_r_child(|c| child_targets.push(c));
                    start
                }
                None => start,
            }
        });
        assert!(child_targets.len() < FREE as usize, "too many arcs");
        SharedGraph {
            verts,
            free,
            root,
            mark_epochs: [
                AtomicU32::new(epochs.mark[Slot::R.index()]),
                AtomicU32::new(epochs.mark[Slot::T.index()]),
            ],
            touch_epoch: epochs.touch,
            marks,
            child_targets,
        }
    }

    /// Converts back into a plain store, writing the marks back into the
    /// vertex slots.
    pub fn into_store(self) -> GraphStore {
        let mut verts = self.verts;
        let [epoch_r, epoch_t] = self.mark_epochs;
        let epoch_r = epoch_r.into_inner();
        self.marks.write_back(&mut verts, Slot::R, epoch_r);
        let epochs = Epochs {
            mark: [epoch_r, epoch_t.into_inner()],
            touch: self.touch_epoch,
        };
        GraphStore::from_parts(verts, self.free, self.root, epochs)
    }

    /// The atomic marking state of every vertex's R slot — the
    /// lock-free substrate marking passes run on (probe, claim,
    /// complete). Authoritative while the graph is shared.
    pub fn marks(&self) -> &MarkWords {
        &self.marks
    }

    /// The current marking epoch of `slot`. Relaxed: the epoch only
    /// changes between passes (never while marking threads run), so any
    /// load during a pass returns the pass's epoch.
    pub fn mark_epoch(&self, slot: Slot) -> u32 {
        self.mark_epochs[slot.index()].load(Ordering::Relaxed)
    }

    /// Begins a new marking cycle for `slot`: an O(1) epoch bump, after
    /// which every vertex's slot reads as freshly reset (stale mark
    /// words fail the epoch check in [`MarkWords::probe`]).
    ///
    /// Must only be called while no marking threads are running; the
    /// thread spawn that starts the next pass publishes the new epoch.
    pub fn begin_mark_cycle(&self, slot: Slot) {
        self.mark_epochs[slot.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The distinguished root, if set.
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Total number of vertex slots.
    pub fn capacity(&self) -> usize {
        self.verts.len()
    }

    /// The children `M_R` traces from `id`, in the order
    /// [`Vertex::for_each_r_child`] visits them, as of
    /// [`SharedGraph::from_store`]; `None` if `id` is on the free list (a
    /// dangling arc may still point there, and marking must not claim it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn r_children(&self, id: VertexId) -> Option<&[VertexId]> {
        let (start, end) = self.marks.row(id.index());
        (start & FREE == 0).then(|| &self.child_targets[start as usize..(end & !FREE) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::NodeLabel;

    #[test]
    fn roundtrip_preserves_contents() {
        let mut store = GraphStore::with_capacity(4);
        let a = store.alloc(NodeLabel::lit_int(7)).unwrap();
        let b = store.alloc(NodeLabel::If).unwrap();
        store.connect(b, a);
        store.set_root(b);
        let shared = SharedGraph::from_store(store);
        assert_eq!(shared.root(), Some(b));
        let back = shared.into_store();
        assert_eq!(back.vertex(b).args(), &[a]);
        assert_eq!(back.free_count(), 2);
        assert!(back.check_consistency().is_ok());
    }
}
