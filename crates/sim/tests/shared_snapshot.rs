//! Properties of [`SharedGraph`]'s child snapshot: it is exactly what the
//! marking wave used to read off the vertex, free-list vertices are told
//! apart, and entering and leaving the shared form loses nothing.

use dgr_core::driver::{run_mark2, MarkRunConfig};
use dgr_graph::{GraphStore, NodeLabel, RequestKind, Slot, Value, VertexId};
use dgr_sim::SharedGraph;
use proptest::prelude::*;

/// A store of `n` vertices: `edges` become arcs (duplicates kept, so
/// multiset arcs occur), every `values` entry gives a vertex a computed
/// structured value whose components nothing else need reference, and the
/// `freed` ones go back to the free list with arcs still pointing at them.
fn store(
    n: usize,
    edges: &[(usize, usize)],
    values: &[(usize, usize, usize)],
    freed: &[usize],
) -> GraphStore {
    let mut g = GraphStore::with_capacity(n + 2);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &(a, b) in edges {
        g.connect(ids[a % n], ids[b % n]);
    }
    for &(v, head, tail) in values {
        g.vertex_mut(ids[v % n]).value = Some(if head % 2 == 0 {
            Value::Cons(ids[head % n], ids[tail % n])
        } else {
            Value::function(0, vec![ids[head % n], ids[tail % n], ids[head % n]])
        });
    }
    g.set_root(ids[0]);
    for &f in freed {
        if f % n != 0 {
            g.free(ids[f % n]);
        }
    }
    g
}

/// Checks both properties below on one store: every row is what
/// [`Vertex::for_each_r_child`] visits (a free vertex has none), and
/// marks a simulator pass wrote survive entering and leaving the shared
/// form.
///
/// [`Vertex::for_each_r_child`]: dgr_graph::Vertex::for_each_r_child
fn assert_snapshot_and_round_trip(mut g: GraphStore) {
    run_mark2(&mut g, &MarkRunConfig::default());
    let shared = SharedGraph::from_store(g.clone());
    assert_eq!(shared.capacity(), g.capacity());
    for v in g.ids() {
        if g.is_free(v) {
            assert_eq!(shared.r_children(v), None, "free {v} is claimable");
        } else {
            let mut want = Vec::new();
            g.vertex(v).for_each_r_child(|c| want.push(c));
            assert_eq!(shared.r_children(v), Some(&want[..]), "children of {v}");
        }
    }
    let back = shared.into_store();
    for v in g.ids() {
        assert_eq!(back.vertex(v), g.vertex(v), "vertex {v}");
        assert_eq!(back.mark(v, Slot::R), g.mark(v, Slot::R));
    }
    assert!(back.check_consistency().is_ok());
}

/// A store of exactly `n` vertices, all allocated, then `freed` freed.
fn exact(n: usize, edges: &[(usize, usize)], freed: &[usize]) -> GraphStore {
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &(a, b) in edges {
        g.connect(ids[a], ids[b]);
    }
    g.set_root(ids[0]);
    for &f in freed {
        g.free(ids[f]);
    }
    assert_eq!(g.capacity(), n);
    g
}

#[test]
fn the_sentinel_ends_the_last_row() {
    // The last vertex is free, with arcs still pointing at it.
    assert_snapshot_and_round_trip(exact(4, &[(0, 1), (1, 3), (0, 3), (2, 0)], &[3]));
    // The last vertex is live and its row runs to the sentinel.
    assert_snapshot_and_round_trip(exact(3, &[(0, 2), (2, 1), (2, 0)], &[]));
    // One vertex, with a self-loop and without.
    assert_snapshot_and_round_trip(exact(1, &[(0, 0)], &[]));
    assert_snapshot_and_round_trip(exact(1, &[], &[]));
    // Every vertex but the root is free.
    assert_snapshot_and_round_trip(exact(5, &[(0, 1), (0, 4), (0, 0)], &[1, 2, 3, 4]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_is_what_for_each_r_child_visits(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..120),
        values in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 0..6),
        freed in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let g = store(n, &edges, &values, &freed);
        let shared = SharedGraph::from_store(g.clone());
        prop_assert_eq!(shared.capacity(), g.capacity());
        for v in g.ids() {
            if g.is_free(v) {
                prop_assert_eq!(shared.r_children(v), None, "free {} is claimable", v);
            } else {
                let mut want = Vec::new();
                g.vertex(v).for_each_r_child(|c| want.push(c));
                prop_assert_eq!(shared.r_children(v), Some(&want[..]), "children of {}", v);
            }
        }
    }

    #[test]
    fn round_trip_keeps_simulator_written_marks(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64), 1..120),
        freed in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let mut g = store(n, &edges, &[], &freed);
        // Priorities are the part `MarkWords` does not carry.
        for v in g.ids().collect::<Vec<_>>() {
            for i in 0..g.vertex(v).args().len() {
                let kind = [None, Some(RequestKind::Eager), Some(RequestKind::Vital)][i % 3];
                g.vertex_mut(v).set_request_kind(i, kind);
            }
        }
        run_mark2(&mut g, &MarkRunConfig::default());
        let back = SharedGraph::from_store(g.clone()).into_store();
        prop_assert_eq!(back.root(), g.root());
        prop_assert_eq!(back.free_count(), g.free_count());
        for v in g.ids() {
            prop_assert_eq!(back.vertex(v), g.vertex(v), "vertex {}", v);
            prop_assert_eq!(back.mark(v, Slot::R), g.mark(v, Slot::R));
        }
        prop_assert!(back.check_consistency().is_ok());
    }
}
