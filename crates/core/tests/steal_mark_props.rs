//! Properties of the work-stealing threaded marking runtime.
//!
//! Quantified over random digraphs, seeds, PE counts, and placement
//! strategies:
//!
//! 1. the marked set equals the sequential oracle's reachable-through-R
//!    set — stealing moves tasks between PEs, but mark transitions are
//!    CAS/fetch-sub on the shared mark words, so placement must not be
//!    observable in the result;
//! 2. the message count (marks + returns) equals the deterministic
//!    event simulator's event count on the same graph — Hudak's mark1
//!    performs a schedule-independent amount of work, so the racy real
//!    runtime must run exactly as many marks and returns as the
//!    serialized one delivers, though every threaded task is a mark and
//!    its return runs in place where the mark ends.
//!
//! Multi-parent vertices are the interesting case (concurrent claims,
//! lost races, wrong-parent return routing), so the generator leans on
//! shared substructure: average degree up to 4 with uniformly random
//! targets produces plenty of diamonds and cycles.

use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::run_mark1_threaded;
use dgr_graph::{oracle, GraphStore, NodeLabel, PartitionStrategy, Slot, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn mark_set(g: &GraphStore) -> Vec<bool> {
    g.ids()
        .map(|v| !g.is_free(v) && g.mark(v, Slot::R).is_marked())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn steal_marking_matches_the_oracle_and_detsim(
        seed in 0u64..(1u64 << 32),
        n in 40usize..320,
        degree in 0.5f64..4.0,
        pes in prop_oneof![Just(1u16), Just(2), Just(4), Just(8)],
        strat in prop_oneof![
            Just(PartitionStrategy::Modulo),
            Just(PartitionStrategy::Block),
        ],
    ) {
        let base = random_graph(n, degree, seed);
        let want: Vec<bool> = {
            let reach = oracle::reachable_r(&base);
            base.ids()
                .map(|v| !base.is_free(v) && reach.contains(v))
                .collect()
        };

        let mut sim = base.clone();
        let sim_stats = run_mark1(
            &mut sim,
            &MarkRunConfig {
                num_pes: pes,
                partition: strat,
                ..Default::default()
            },
        );

        let (thr, messages) = run_mark1_threaded(base, pes, strat);
        prop_assert_eq!(
            mark_set(&thr),
            want,
            "marked set != oracle (seed {}, {} PEs, {:?})",
            seed,
            pes,
            strat
        );
        prop_assert_eq!(
            messages,
            sim_stats.events,
            "task count != DetSim events (seed {}, {} PEs, {:?})",
            seed,
            pes,
            strat
        );
    }
}
