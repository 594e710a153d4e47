//! A computation graph shared between PE threads with per-vertex locks.

use std::sync::atomic::{AtomicU32, Ordering};

use std::sync::{Mutex, MutexGuard};

use dgr_graph::{Epochs, GraphStore, MarkWords, Slot, Vertex, VertexId};

const VERTEX_POISONED: &str = "a task panicked while holding a vertex lock";

/// The computation graph in the form the threaded runtime uses: each vertex
/// behind its own mutex.
///
/// This realizes the paper's atomicity assumption at exactly the granularity
/// Section 6 discusses: a task locks the vertices it manipulates, and
/// marking tasks "never nest the locking of vertices".
///
/// # Example
///
/// ```
/// use dgr_graph::{GraphStore, NodeLabel};
/// use dgr_sim::SharedGraph;
///
/// let mut store = GraphStore::with_capacity(2);
/// let a = store.alloc(NodeLabel::lit_int(1)).unwrap();
/// let shared = SharedGraph::from_store(store);
/// {
///     let guard = shared.lock(a);
///     assert_eq!(guard.label, NodeLabel::lit_int(1));
/// }
/// let back = shared.into_store();
/// assert_eq!(back.live_count(), 1);
/// ```
#[derive(Debug)]
pub struct SharedGraph {
    verts: Vec<Mutex<Vertex>>,
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
    /// The hot R-slot marking state, as a dense struct-of-arrays atomic
    /// array (see [`MarkWords`]): marking passes transition colors with
    /// CAS instead of taking the vertex mutex, and the state streams
    /// through the cache instead of hopping between fat vertices. The
    /// array is authoritative while the graph is shared;
    /// [`SharedGraph::into_store`] writes it back into the vertex slots.
    marks: MarkWords,
}

impl SharedGraph {
    /// Converts a plain store into the shared form.
    pub fn from_store(store: GraphStore) -> Self {
        let (verts, free, root, epochs) = store.into_parts();
        let marks = MarkWords::from_slots(&verts, Slot::R);
        SharedGraph {
            verts: verts.into_iter().map(Mutex::new).collect(),
            free,
            root,
            mark_epochs: [
                AtomicU32::new(epochs.mark[Slot::R.index()]),
                AtomicU32::new(epochs.mark[Slot::T.index()]),
            ],
            touch_epoch: epochs.touch,
            marks,
        }
    }

    /// Converts back into a plain store (consumes the shared graph; all
    /// locks must be free, which is guaranteed by ownership).
    pub fn into_store(self) -> GraphStore {
        let mut verts: Vec<Vertex> = self
            .verts
            .into_iter()
            .map(|m| m.into_inner().expect(VERTEX_POISONED))
            .collect();
        self.marks.write_back(&mut verts, Slot::R);
        let [epoch_r, epoch_t] = self.mark_epochs;
        let epochs = Epochs {
            mark: [epoch_r.into_inner(), epoch_t.into_inner()],
            touch: self.touch_epoch,
        };
        GraphStore::from_parts(verts, self.free, self.root, epochs)
    }

    /// The dense atomic marking state of every vertex's R slot — the
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

    /// Locks a single vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if a task panicked while
    /// holding this vertex's lock.
    pub fn lock(&self, id: VertexId) -> MutexGuard<'_, Vertex> {
        self.verts[id.index()].lock().expect(VERTEX_POISONED)
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
