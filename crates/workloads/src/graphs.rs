//! Random and structured computation graphs.

use dgr_graph::{GraphStore, NodeLabel, RequestKind, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random directed graph: `n` allocated vertices, the first being the
/// root, each with `Poisson-ish(avg_degree)` outgoing arcs to uniformly
/// random targets. A fraction of vertices ends up unreachable (garbage),
/// and cycles occur naturally.
pub fn random_digraph(n: usize, avg_degree: f64, seed: u64) -> GraphStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &v in &ids {
        // Geometric-ish degree with the requested mean.
        let mut d = 0usize;
        while rng.gen_bool((avg_degree / (avg_degree + 1.0)).clamp(0.0, 0.99)) {
            d += 1;
            if d > 8 * avg_degree as usize + 8 {
                break;
            }
        }
        for _ in 0..d {
            let t = ids[rng.gen_range(0..n)];
            g.connect(v, t);
        }
    }
    g.set_root(ids[0]);
    g
}

/// [`random_digraph`] plus sixteen arcs from the root to evenly spaced
/// vertices, so that every seed reaches most of the graph (one seed in
/// three otherwise reaches two vertices).
pub fn rooted_digraph(n: usize, avg_degree: f64, seed: u64) -> GraphStore {
    let mut g = random_digraph(n, avg_degree, seed);
    let root = g.root().expect("random_digraph sets a root");
    for i in 1..=16 {
        g.connect(root, VertexId::new((i * (n / 17)) as u32));
    }
    g
}

/// A complete binary tree of the given depth (depth 0 = a single leaf).
pub fn binary_tree(depth: usize) -> GraphStore {
    let n = (1usize << (depth + 1)) - 1;
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                g.connect(ids[i], ids[c]);
            }
        }
    }
    g.set_root(ids[0]);
    g
}

/// A complete binary tree numbered in *preorder* (each subtree occupies a
/// contiguous index range), so block partitioning assigns whole subtrees
/// to one PE — the locality-aware placement a real system would use.
pub fn binary_tree_dfs(depth: usize) -> GraphStore {
    let n = (1usize << (depth + 1)) - 1;
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    // Recursive wiring: node at `start` with `levels` levels below it.
    fn wire(g: &mut GraphStore, ids: &[VertexId], start: usize, levels: usize) {
        if levels == 0 {
            return;
        }
        let subtree = (1usize << levels) - 1; // size of each child subtree
        let left = start + 1;
        let right = left + subtree;
        g.connect(ids[start], ids[left]);
        g.connect(ids[start], ids[right]);
        wire(g, ids, left, levels - 1);
        wire(g, ids, right, levels - 1);
    }
    wire(&mut g, &ids, 0, depth);
    g.set_root(ids[0]);
    g
}

/// A linear chain `root → v1 → … → v(n-1)` (worst case for marking
/// parallelism: the marking tree is a path).
pub fn chain(n: usize) -> GraphStore {
    assert!(n > 0);
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for w in ids.windows(2) {
        g.connect(w[0], w[1]);
    }
    g.set_root(ids[0]);
    g
}

/// A DAG with maximal sharing: `levels` ranks of `width` vertices, each
/// vertex pointing to every vertex of the next rank (every internal vertex
/// is reached through `width` paths — the shared-subexpression stress case
/// for priority marking).
pub fn shared_dag(levels: usize, width: usize) -> GraphStore {
    assert!(levels > 0 && width > 0);
    let n = 1 + levels * width;
    let mut g = GraphStore::with_capacity(n);
    let root = g.alloc(NodeLabel::lit_int(-1)).unwrap();
    let ranks: Vec<Vec<VertexId>> = (0..levels)
        .map(|l| {
            (0..width)
                .map(|i| g.alloc(NodeLabel::lit_int((l * width + i) as i64)).unwrap())
                .collect()
        })
        .collect();
    for &v in &ranks[0] {
        g.connect(root, v);
    }
    for l in 0..levels - 1 {
        for &v in &ranks[l] {
            for &w in &ranks[l + 1] {
                g.connect(v, w);
            }
        }
    }
    g.set_root(root);
    g
}

/// Randomly assigns request kinds to arcs: each arc becomes vitally
/// requested with probability `p_vital`, eagerly with `p_eager`, and stays
/// unrequested otherwise. (Used to exercise `mark2`'s priority logic.)
pub fn sprinkle_request_kinds(g: &mut GraphStore, p_vital: f64, p_eager: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<VertexId> = g.live_ids().collect();
    for v in ids {
        let n = g.vertex(v).args().len();
        for i in 0..n {
            let r: f64 = rng.gen();
            let kind = if r < p_vital {
                Some(RequestKind::Vital)
            } else if r < p_vital + p_eager {
                Some(RequestKind::Eager)
            } else {
                None
            };
            g.vertex_mut(v).set_request_kind(i, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::oracle;

    #[test]
    fn random_digraph_is_consistent_and_deterministic() {
        let g1 = random_digraph(200, 2.0, 7);
        let g2 = random_digraph(200, 2.0, 7);
        assert!(g1.check_consistency().is_ok());
        let r1 = oracle::reachable_r(&g1);
        let r2 = oracle::reachable_r(&g2);
        assert_eq!(r1, r2, "same seed, same graph");
        assert!(r1.len() > 1, "root reaches something");
        let g3 = random_digraph(200, 2.0, 8);
        assert_ne!(
            oracle::reachable_r(&g3).len(),
            0,
            "different seed still has a root"
        );
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(4);
        assert_eq!(g.live_count(), 31);
        let r = oracle::reachable_r(&g);
        assert_eq!(r.len(), 31, "whole tree reachable");
    }

    #[test]
    fn chain_shape() {
        let g = chain(10);
        let r = oracle::reachable_r(&g);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn shared_dag_everything_reachable() {
        let g = shared_dag(3, 4);
        let r = oracle::reachable_r(&g);
        assert_eq!(r.len(), 13);
    }

    #[test]
    fn sprinkle_respects_probabilities_at_extremes() {
        let mut g = shared_dag(3, 4);
        sprinkle_request_kinds(&mut g, 1.0, 0.0, 0);
        for v in g.live_ids() {
            for k in g.vertex(v).request_kinds() {
                assert_eq!(*k, Some(RequestKind::Vital));
            }
        }
        sprinkle_request_kinds(&mut g, 0.0, 0.0, 0);
        for v in g.live_ids() {
            for k in g.vertex(v).request_kinds() {
                assert_eq!(*k, None);
            }
        }
    }
}
