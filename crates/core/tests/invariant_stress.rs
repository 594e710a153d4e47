//! Stress: the Section 4.2 marking invariants hold after *every* event
//! while the graph is mutated mid-marking through the cooperating
//! primitives, across algorithms, schedules and mutation rates.

use dgr_core::driver::{reset_slot, route};
use dgr_core::invariants::check_invariants;
use dgr_core::{coop, handle_mark, MarkMsg, MarkState, RMode};
use dgr_graph::{
    GraphStore, MarkParent, NodeLabel, PartitionMap, PartitionStrategy, Priority, Slot, VertexId,
};
use dgr_sim::{DetSim, SchedPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tree(depth: usize) -> GraphStore {
    let n = (1usize << (depth + 1)) - 1;
    let mut g = GraphStore::with_capacity(n + 8);
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

/// One random move (add-reference + delete-reference) through the
/// cooperating primitives.
fn random_move(
    rng: &mut StdRng,
    state: &mut MarkState,
    g: &mut GraphStore,
    sink: &mut impl FnMut(MarkMsg),
) {
    for _ in 0..16 {
        let a = VertexId::new(rng.gen_range(0..g.capacity() as u32));
        if g.is_free(a) || g.vertex(a).args().is_empty() {
            continue;
        }
        let b = g.vertex(a).args()[rng.gen_range(0..g.vertex(a).args().len())];
        if g.vertex(b).args().is_empty() {
            continue;
        }
        let c = g.vertex(b).args()[rng.gen_range(0..g.vertex(b).args().len())];
        coop::add_reference(state, g, a, b, c, sink).unwrap();
        coop::delete_reference(g, b, c);
        return;
    }
}

fn stress(mode: RMode, seed: u64, mutation_period: u64) {
    let mut g = random_tree(6);
    reset_slot(&mut g, Slot::R);
    let partition = PartitionMap::new(4, g.capacity(), PartitionStrategy::Modulo);
    let mut sim: DetSim<MarkMsg> = DetSim::new(4, SchedPolicy::Random { marking_bias: 0.5 }, seed);
    let mut state = MarkState::new();
    state.begin_r(mode);
    let root = g.root().unwrap();
    sim.send(route(
        &partition,
        match mode {
            RMode::Simple => MarkMsg::Mark1 {
                v: root,
                par: MarkParent::RootPar,
            },
            RMode::Priority => MarkMsg::Mark2 {
                v: root,
                par: MarkParent::RootPar,
                prior: Priority::Vital,
            },
        },
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let mut events = 0u64;
    let mut buf = Vec::new();
    while let Some((_pe, _lane, msg)) = sim.next_event() {
        handle_mark(&mut state, &mut g, msg, &mut |m| buf.push(m));
        for m in buf.drain(..) {
            sim.send(route(&partition, m));
        }
        events += 1;
        if mutation_period > 0 && events.is_multiple_of(mutation_period) {
            let mut coop_buf = Vec::new();
            random_move(&mut rng, &mut state, &mut g, &mut |m| coop_buf.push(m));
            for m in coop_buf {
                sim.send(route(&partition, m));
            }
        }
        let pending: Vec<MarkMsg> = sim.iter_pending().map(|(_, _, m)| *m).collect();
        if let Err(e) = check_invariants(&g, Slot::R, &pending, &state) {
            panic!("mode {mode:?} seed {seed} period {mutation_period} event {events}: {e}");
        }
        assert!(events < 200_000, "marking diverged");
    }
    assert!(state.r_done);
    // Safety/liveness spot check: everything root-reachable is marked
    // (moves preserve R).
    let reach = dgr_graph::oracle::reachable_r(&g);
    for v in g.live_ids() {
        assert_eq!(reach.contains(v), g.mark(v, Slot::R).is_marked(), "{v}");
    }
}

#[test]
fn invariants_hold_under_mutation_mark1() {
    for seed in 0..8 {
        for period in [1, 3, 9] {
            stress(RMode::Simple, seed, period);
        }
    }
}

#[test]
fn invariants_hold_under_mutation_mark2() {
    for seed in 0..8 {
        for period in [1, 3, 9] {
            stress(RMode::Priority, seed, period);
        }
    }
}

#[test]
fn invariants_hold_without_mutation() {
    stress(RMode::Simple, 99, 0);
    stress(RMode::Priority, 99, 0);
}
