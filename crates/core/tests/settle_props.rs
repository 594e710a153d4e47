//! Properties of settling duplicate visits at the spawn site.
//!
//! The task that wins the claim on a vertex probes each child's mark
//! word, and a child already visited this cycle is settled in place —
//! its mark and return run where they were found instead of as two
//! tasks. Quantified over the random digraphs of `steal_mark_props`
//! (optionally with a self-loop on the root and a dangling arc into a
//! freed vertex) and PE counts:
//!
//! 1. the marked set equals the oracle's and `messages` equals the
//!    deterministic simulator's event count — a settled arc counts the
//!    two messages it stands for;
//! 2. the path is used: an arc from a reachable vertex back to the root
//!    always finds the root claimed, so such a graph settles at least
//!    one arc on every schedule, and no graph settles more arcs than it
//!    has duplicate visits;
//! 3. a tree or a chain, where every vertex has one incoming arc, never
//!    settles one;
//! 4. a return never travels: every envelope carries a mark the pass
//!    spawned, and those number fewer than the marks it executed, so
//!    envelopes and settled arcs together stay below `messages / 2`;
//! 5. a leaf is marked where it is found: `leaves` is exactly the number
//!    of reachable live vertices other than the root with no children,
//!    on every schedule, and every other mark is a task or settled:
//!    `executed == messages / 2 − settled − leaves`.

use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::{run_mark1_shared, ThreadedMarkStats};
use dgr_graph::{oracle, GraphStore, NodeLabel, PartitionStrategy, Slot, VertexId};
use dgr_sim::SharedGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PES: [u16; 4] = [1, 2, 4, 8];

fn random_graph(n: usize, degree: f64, seed: u64) -> GraphStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &v in &ids {
        let d = rng.gen_range(0..=(2.0 * degree) as usize);
        for _ in 0..d {
            g.connect(v, ids[rng.gen_range(0..n)]);
        }
    }
    g.set_root(ids[0]);
    g
}

/// A path `0 → 1 → … → n-1`, or a binary tree in heap order.
fn one_parent_each(n: usize, tree: bool) -> GraphStore {
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for i in 1..n {
        let parent = if tree { (i - 1) / 2 } else { i - 1 };
        g.connect(ids[parent], ids[i]);
    }
    g.set_root(ids[0]);
    g
}

/// What every threaded pass is checked against.
struct Reference {
    marked: Vec<bool>,
    events: u64,
    /// Marks sent to a vertex already visited or freed: the most arcs a
    /// pass can settle.
    duplicates: u64,
    /// A reachable vertex has an arc to the root.
    back_to_root: bool,
}

fn reference(g: &GraphStore, pes: u16, strat: PartitionStrategy) -> Reference {
    let reach = oracle::reachable_r(g);
    let marked: Vec<bool> = g
        .ids()
        .map(|v| !g.is_free(v) && reach.contains(v))
        .collect();
    let mut sim = g.clone();
    let stats = run_mark1(
        &mut sim,
        &MarkRunConfig {
            num_pes: pes,
            partition: strat,
            ..Default::default()
        },
    );
    let root = g.root().expect("rooted");
    let back_to_root = g.live_ids().filter(|&v| reach.contains(v)).any(|v| {
        let mut hit = false;
        g.vertex(v).for_each_r_child(|c| hit |= c == root);
        hit
    });
    Reference {
        duplicates: stats.events / 2 - reach.len() as u64,
        marked,
        events: stats.events,
        back_to_root,
    }
}

fn run_threaded(
    g: &GraphStore,
    pes: u16,
    strat: PartitionStrategy,
) -> (ThreadedMarkStats, Vec<bool>) {
    let mut g = g.clone();
    g.begin_mark_cycle(Slot::R);
    let shared = SharedGraph::from_store(g);
    let stats = run_mark1_shared(&shared, pes, strat);
    let g = shared.into_store();
    let marked = g
        .ids()
        .map(|v| !g.is_free(v) && g.mark(v, Slot::R).is_marked())
        .collect();
    (stats, marked)
}

/// Checks properties 1, 2 and 4 on one pass; returns its settled count.
fn check(g: &GraphStore, pes: u16, strat: PartitionStrategy) -> Result<u64, TestCaseError> {
    let want = reference(g, pes, strat);
    let (stats, marked) = run_threaded(g, pes, strat);
    prop_assert_eq!(marked, want.marked, "marked set != oracle ({} PEs)", pes);
    prop_assert_eq!(
        stats.messages,
        want.events,
        "messages != DetSim events ({} PEs)",
        pes
    );
    prop_assert!(
        stats.settled <= want.duplicates,
        "{} settled, only {} duplicate visits ({} PEs)",
        stats.settled,
        want.duplicates,
        pes
    );
    prop_assert!(
        stats.envelopes + stats.settled < stats.messages / 2,
        "{} envelopes + {} settled of {} messages: a return travelled ({} PEs)",
        stats.envelopes,
        stats.settled,
        stats.messages,
        pes
    );
    if want.back_to_root {
        prop_assert!(
            stats.settled > 0,
            "an arc back to the root never settled ({} PEs)",
            pes
        );
    }
    Ok(stats.settled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn settling_keeps_the_oracle_and_detsim_counts(
        seed in 0u64..(1u64 << 32),
        n in 40usize..320,
        degree in 0.5f64..4.0,
        self_loop in any::<bool>(),
        freed in any::<bool>(),
        strat in prop_oneof![
            Just(PartitionStrategy::Modulo),
            Just(PartitionStrategy::Block),
        ],
    ) {
        let mut g = random_graph(n, degree, seed);
        let root = g.root().expect("rooted");
        if self_loop {
            // An arc back to the root: settled on every schedule.
            g.connect(root, root);
        }
        if freed {
            // The root keeps an arc into a vertex that is then freed.
            let victim = VertexId::new((n / 2) as u32);
            g.connect(root, victim);
            g.free(victim);
        }
        for pes in PES {
            check(&g, pes, strat)?;
        }
    }
}

#[test]
fn one_parent_per_vertex_settles_nothing() {
    for tree in [false, true] {
        let g = one_parent_each(511, tree);
        for pes in PES {
            for strat in [PartitionStrategy::Block, PartitionStrategy::Modulo] {
                let settled = check(&g, pes, strat).unwrap();
                assert_eq!(settled, 0, "tree {tree}, {pes} PEs, {strat:?}");
            }
        }
    }
}

#[test]
fn a_self_loop_always_settles_and_a_dangling_arc_never_does() {
    // Root 0 → {0, 1, 2}, 1 → 2, and 2 → 3 where 3 is freed: the self-loop
    // always settles, the dangling arc never does (a freed vertex is never
    // claimed, so its mark is sent as a task, whose return runs where it
    // ends), and 1 → 2 settles only when 2 was claimed first.
    let mut g = GraphStore::with_capacity(4);
    let ids: Vec<VertexId> = (0..4)
        .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
        .collect();
    for (a, b) in [(0, 0), (0, 1), (0, 2), (1, 2), (2, 3)] {
        g.connect(ids[a], ids[b]);
    }
    g.set_root(ids[0]);
    g.free(ids[3]);
    for pes in PES {
        for strat in [PartitionStrategy::Modulo, PartitionStrategy::Block] {
            let settled = check(&g, pes, strat).unwrap();
            assert!((1..=2).contains(&settled), "{settled} settled, {pes} PEs");
        }
    }
}

/// The leaves a pass must mark in place: reachable live vertices other
/// than the root with no R-children.
fn live_leaves(g: &GraphStore) -> u64 {
    let reach = oracle::reachable_r(g);
    let root = g.root().expect("rooted");
    g.live_ids()
        .filter(|&v| v != root && reach.contains(v))
        .filter(|&v| {
            let mut children = 0;
            g.vertex(v).for_each_r_child(|_| children += 1);
            children == 0
        })
        .count() as u64
}

/// Checks property 5 (and, through `check`, 1, 2 and 4) at every PE
/// count and both partitions; returns each pass's stats.
fn check_leaves(g: &GraphStore) -> Result<Vec<ThreadedMarkStats>, TestCaseError> {
    let want = live_leaves(g);
    let mut all = Vec::new();
    for pes in PES {
        for strat in [PartitionStrategy::Modulo, PartitionStrategy::Block] {
            check(g, pes, strat)?;
            let (stats, _) = run_threaded(g, pes, strat);
            prop_assert_eq!(stats.leaves, want, "leaves ({} PEs, {:?})", pes, strat);
            prop_assert_eq!(
                stats.executed,
                stats.messages / 2 - stats.settled - stats.leaves,
                "executed != messages / 2 - settled - leaves ({} PEs, {:?})",
                pes,
                strat
            );
            all.push(stats);
        }
    }
    Ok(all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_live_leaf_is_marked_in_place_once(
        seed in 0u64..(1u64 << 32),
        n in 40usize..320,
        degree in 0.5f64..4.0,
        self_loop in any::<bool>(),
        freed in any::<bool>(),
    ) {
        let mut g = random_graph(n, degree, seed);
        let root = g.root().expect("rooted");
        if self_loop {
            g.connect(root, root);
        }
        if freed {
            // A dangling arc into a freed leaf: never claimed in place.
            let victim = VertexId::new((n / 2) as u32);
            g.connect(root, victim);
            g.free(victim);
        }
        check_leaves(&g)?;
    }
}

#[test]
fn a_tree_marks_its_leaves_in_place_and_runs_only_its_inner_vertices() {
    let g = one_parent_each(511, true);
    for stats in check_leaves(&g).unwrap() {
        assert_eq!(stats.leaves, 256, "{stats:?}");
        assert_eq!(stats.settled, 0, "{stats:?}");
        assert_eq!(stats.executed, 255, "{stats:?}");
    }
}

#[test]
fn a_chain_has_one_leaf() {
    let g = one_parent_each(511, false);
    for stats in check_leaves(&g).unwrap() {
        assert_eq!(stats.leaves, 1, "{stats:?}");
        assert_eq!(stats.executed, 510, "{stats:?}");
    }
}
