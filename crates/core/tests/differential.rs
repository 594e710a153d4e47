//! Differential testing: the marking pass event-simulated (oldest message
//! first, and round-synchronously) and threaded (real parallelism) must
//! produce the identical mark set on the same graph, which must equal the
//! sequential oracle's `R`.

use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::run_mark1_threaded;
use dgr_graph::{oracle, GraphStore, NodeLabel, PartitionStrategy, Slot, VertexId};
use dgr_sim::SchedPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(n: usize, degree: f64, seed: u64, free_some: bool) -> GraphStore {
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
    if free_some {
        // Free a few unreachable vertices to exercise the free-list path.
        let reach = oracle::reachable_r(&g);
        let victims: Vec<_> = g
            .live_ids()
            .filter(|&v| !reach.contains(v))
            .take(n / 10)
            .collect();
        for victim in victims {
            for u in g.live_ids().collect::<Vec<_>>() {
                while g.disconnect(u, victim) {}
            }
            g.free(victim);
        }
    }
    g
}

/// Marks `base` round-synchronously on `num_pes` PEs under `partition`.
fn rounds(base: &GraphStore, num_pes: u16, partition: PartitionStrategy) -> GraphStore {
    let mut g = base.clone();
    let cfg = MarkRunConfig {
        num_pes,
        policy: SchedPolicy::Rounds,
        partition,
        ..Default::default()
    };
    run_mark1(&mut g, &cfg);
    g
}

fn mark_set(g: &GraphStore) -> Vec<bool> {
    g.ids()
        .map(|v| !g.is_free(v) && g.mark(v, Slot::R).is_marked())
        .collect()
}

#[test]
fn three_implementations_agree_with_each_other_and_the_oracle() {
    for seed in 0..12 {
        for pes in [1u16, 3, 8] {
            let base = random_graph(400, 2.0, seed, seed % 2 == 0);
            let want: Vec<bool> = {
                let reach = oracle::reachable_r(&base);
                base.ids()
                    .map(|v| !base.is_free(v) && reach.contains(v))
                    .collect()
            };

            let mut sim = base.clone();
            run_mark1(
                &mut sim,
                &MarkRunConfig {
                    num_pes: pes,
                    ..Default::default()
                },
            );
            assert_eq!(mark_set(&sim), want, "sim, seed {seed}, {pes} PEs");

            let bsp = rounds(&base, pes, PartitionStrategy::Modulo);
            assert_eq!(mark_set(&bsp), want, "rounds, seed {seed}, {pes} PEs");

            let (thr, _) = run_mark1_threaded(base.clone(), pes, PartitionStrategy::Block);
            assert_eq!(mark_set(&thr), want, "threaded, seed {seed}, {pes} PEs");
        }
    }
}

#[test]
fn threaded_batching_preserves_mark_set_and_message_count() {
    // The batched threaded runtime must be observationally identical to
    // the deterministic simulator on random cyclic graphs with sharing:
    // same mark set, and — because mark1's task count (one return per
    // mark, one spawn per first visit) is schedule-independent — exactly
    // as many messages handled as the simulator delivers events.
    for seed in 100..110 {
        let base = random_graph(600, 3.0, seed, seed % 3 == 0);
        let mut sim = base.clone();
        let sim_stats = run_mark1(&mut sim, &MarkRunConfig::default());
        let want = mark_set(&sim);
        for pes in [1u16, 2, 7] {
            let (thr, messages) = run_mark1_threaded(base.clone(), pes, PartitionStrategy::Modulo);
            assert_eq!(mark_set(&thr), want, "mark set, seed {seed}, {pes} PEs");
            assert_eq!(
                messages, sim_stats.events,
                "message count, seed {seed}, {pes} PEs"
            );
        }
    }
}

#[test]
fn agreement_on_pathological_shapes() {
    // Self-loop root, two-cycle, a long chain, and a dense clique.
    let mut shapes: Vec<GraphStore> = Vec::new();
    {
        let mut g = GraphStore::with_capacity(1);
        let v = g.alloc(NodeLabel::If).unwrap();
        g.connect(v, v);
        g.set_root(v);
        shapes.push(g);
    }
    {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        g.connect(a, b);
        g.connect(b, a);
        g.set_root(a);
        shapes.push(g);
    }
    {
        let mut g = GraphStore::with_capacity(500);
        let ids: Vec<_> = (0..500)
            .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
            .collect();
        for w in ids.windows(2) {
            g.connect(w[0], w[1]);
        }
        g.set_root(ids[0]);
        shapes.push(g);
    }
    {
        let mut g = GraphStore::with_capacity(24);
        let ids: Vec<_> = (0..24)
            .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
            .collect();
        for &a in &ids {
            for &b in &ids {
                g.connect(a, b);
            }
        }
        g.set_root(ids[0]);
        shapes.push(g);
    }
    for (i, base) in shapes.into_iter().enumerate() {
        let reach = oracle::reachable_r(&base);
        let want: Vec<bool> = base
            .ids()
            .map(|v| !base.is_free(v) && reach.contains(v))
            .collect();
        let mut sim = base.clone();
        run_mark1(&mut sim, &MarkRunConfig::default());
        assert_eq!(mark_set(&sim), want, "shape {i} sim");
        let bsp = rounds(&base, 5, PartitionStrategy::Block);
        assert_eq!(mark_set(&bsp), want, "shape {i} rounds");
        let (thr, _) = run_mark1_threaded(base.clone(), 5, PartitionStrategy::Modulo);
        assert_eq!(mark_set(&thr), want, "shape {i} threaded");
    }
}
