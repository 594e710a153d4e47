//! Stress: the Section 4.2 marking invariants hold after *every* event
//! while the graph is mutated mid-marking through the cooperating
//! primitives, across algorithms, schedules and mutation rates.

use dgr_core::driver::{run_pass, MarkRunConfig};
use dgr_core::{coop, MarkMsg, MarkState, RMode};
use dgr_graph::{GraphStore, MarkParent, NodeLabel, Priority, Slot, VertexId};
use dgr_sim::SchedPolicy;
use dgr_telemetry::Registry;
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
    sink: &mut dyn FnMut(MarkMsg),
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
    g.begin_mark_cycle(Slot::R);
    let mut state = MarkState::new();
    state.begin_r(mode);
    let root = g.root().unwrap();
    let first = match mode {
        RMode::Simple => MarkMsg::Mark1 {
            v: root,
            par: MarkParent::RootPar,
        },
        RMode::Priority => MarkMsg::Mark2 {
            v: root,
            par: MarkParent::RootPar,
            prior: Priority::Vital,
        },
    };
    let cfg = MarkRunConfig {
        num_pes: 4,
        policy: SchedPolicy::Random { marking_bias: 0.5 },
        seed,
        check_invariants: true,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    run_pass(
        &mut g,
        &cfg,
        &mut state,
        Slot::R,
        vec![first],
        &Registry::new(cfg.num_pes),
        |events, state, g, send| {
            if mutation_period > 0 && events.is_multiple_of(mutation_period) {
                random_move(&mut rng, state, g, send);
            }
            assert!(
                events < 200_000,
                "mode {mode:?} seed {seed} period {mutation_period}: marking diverged"
            );
        },
    );
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
