//! Allocation/drop churn traces, replayable against different collectors.
//!
//! A trace is a sequence of abstract operations: allocate a *cluster* (a
//! chain of vertices, optionally closed into a cycle) and attach it under
//! the root, or drop a random live cluster (making it garbage). Replaying
//! the same trace against the marking collector and against the
//! reference-counting baseline yields the T2 comparison: marking reclaims
//! cyclic clusters, reference counting leaks them.

use dgr_core::{coop, MarkMsg, MarkState};
use dgr_graph::{GraphStore, NodeLabel, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One churn operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Allocate a cluster of `size` vertices and attach it to the root.
    /// If `cyclic`, the last vertex points back at the first.
    New {
        /// Vertices in the cluster.
        size: u8,
        /// Close the chain into a cycle.
        cyclic: bool,
    },
    /// Drop the `index`-th live cluster (indices are into the replayer's
    /// live-cluster list; the generator tracks the count so indices are
    /// always valid).
    Drop {
        /// Index into the live-cluster list at replay time.
        index: usize,
    },
}

/// Generates a deterministic churn trace.
///
/// Each step allocates a cluster; with probability `drop_prob` it also
/// drops a random live cluster, so the live set stays roughly constant
/// while garbage accumulates. `cyclic_fraction` of clusters are cycles.
pub fn churn_trace(
    steps: usize,
    cluster_size: u8,
    cyclic_fraction: f64,
    drop_prob: f64,
    seed: u64,
) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(steps * 2);
    let mut live = 0usize;
    for _ in 0..steps {
        out.push(ChurnOp::New {
            size: cluster_size.max(1),
            cyclic: rng.gen_bool(cyclic_fraction.clamp(0.0, 1.0)),
        });
        live += 1;
        if live > 1 && rng.gen_bool(drop_prob.clamp(0.0, 1.0)) {
            let index = rng.gen_range(0..live);
            out.push(ChurnOp::Drop { index });
            live -= 1;
        }
    }
    out
}

/// Replays churn against a [`GraphStore`], using the cooperating arc hooks
/// so replay can run concurrently with marking.
#[derive(Debug)]
pub struct ChurnReplayer {
    /// The graph being churned.
    pub g: GraphStore,
    root: VertexId,
    clusters: Vec<VertexId>,
    /// Clusters dropped so far (each of `cluster_size` vertices).
    pub dropped: usize,
    /// Cyclic clusters dropped so far.
    pub dropped_cyclic: usize,
}

impl ChurnReplayer {
    /// Creates a replayer with an initial capacity.
    pub fn new(capacity: usize) -> Self {
        let mut g = GraphStore::with_capacity(capacity.max(1));
        let root = g.alloc(NodeLabel::lit_int(-1)).expect("capacity ≥ 1");
        g.set_root(root);
        ChurnReplayer {
            g,
            root,
            clusters: Vec::new(),
            dropped: 0,
            dropped_cyclic: 0,
        }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Live clusters currently attached.
    pub fn live_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Applies one operation. `state`/`sink` make the new root arc
    /// cooperate with any active marking process.
    pub fn apply<S>(&mut self, op: ChurnOp, state: &mut MarkState, sink: &mut S)
    where
        S: FnMut(MarkMsg) + ?Sized,
    {
        match op {
            ChurnOp::New { size, cyclic } => {
                let size = size.max(1) as usize;
                if self.g.free_count() < size {
                    self.g.grow(size.max(256));
                }
                let ids: Vec<VertexId> = (0..size)
                    .map(|i| self.g.alloc(NodeLabel::lit_int(i as i64)).expect("grown"))
                    .collect();
                for w in ids.windows(2) {
                    self.g.connect(w[0], w[1]);
                }
                if cyclic && size > 1 {
                    self.g.connect(ids[size - 1], ids[0]);
                }
                // Mark the cluster head so we can tell cyclic drops apart
                // in reports.
                if cyclic {
                    self.g.vertex_mut(ids[0]).label = NodeLabel::lit_int(-2);
                }
                // Attach under the root through the cooperating hooks (a
                // brand-new arc from a possibly marked root).
                coop::coop_r_arc(state, &mut self.g, self.root, ids[0], sink);
                coop::coop_t_arc(state, &mut self.g, self.root, ids[0], sink);
                self.g.connect(self.root, ids[0]);
                self.clusters.push(ids[0]);
            }
            ChurnOp::Drop { index } => {
                if self.clusters.is_empty() {
                    return;
                }
                let index = index % self.clusters.len();
                let head = self.clusters.swap_remove(index);
                coop::delete_reference(&mut self.g, self.root, head);
                self.dropped += 1;
                if self.g.vertex(head).label == NodeLabel::lit_int(-2) {
                    self.dropped_cyclic += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::oracle;

    #[test]
    fn trace_is_deterministic_and_indices_valid() {
        let t1 = churn_trace(200, 4, 0.3, 0.6, 5);
        let t2 = churn_trace(200, 4, 0.3, 0.6, 5);
        assert_eq!(t1, t2);
        // Replay tracks validity.
        let mut r = ChurnReplayer::new(64);
        let mut state = MarkState::new();
        let mut sink = |_m: MarkMsg| {};
        for op in &t1 {
            r.apply(*op, &mut state, &mut sink);
        }
        assert!(r.g.check_consistency().is_ok());
        assert!(r.dropped > 0);
    }

    #[test]
    fn dropped_clusters_become_garbage() {
        let mut r = ChurnReplayer::new(64);
        let mut state = MarkState::new();
        let mut sink = |_m: MarkMsg| {};
        r.apply(
            ChurnOp::New {
                size: 5,
                cyclic: false,
            },
            &mut state,
            &mut sink,
        );
        r.apply(
            ChurnOp::New {
                size: 5,
                cyclic: true,
            },
            &mut state,
            &mut sink,
        );
        assert_eq!(r.live_clusters(), 2);
        r.apply(ChurnOp::Drop { index: 0 }, &mut state, &mut sink);
        let reach = oracle::reachable_r(&r.g);
        let gar = oracle::garbage(&r.g, &reach);
        assert_eq!(gar.len(), 5, "one 5-vertex cluster became garbage");
    }

    #[test]
    fn cyclic_fraction_extremes() {
        let all_cyclic = churn_trace(50, 3, 1.0, 0.0, 0);
        assert!(all_cyclic
            .iter()
            .all(|op| matches!(op, ChurnOp::New { cyclic: true, .. })));
        let none_cyclic = churn_trace(50, 3, 0.0, 0.0, 0);
        assert!(none_cyclic
            .iter()
            .all(|op| matches!(op, ChurnOp::New { cyclic: false, .. })));
    }
}
