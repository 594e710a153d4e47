//! Property tests for the deterministic simulator: every policy delivers
//! every sent message exactly once, in a policy-consistent order, and the
//! expunge/relane surgery preserves the rest of the pool.

use dgr_core::driver::{run_mark1, run_mark2, run_mark3, MarkRunConfig};
use dgr_graph::{oracle, GraphStore, NodeLabel, PeId, Priority, RequestKind, Slot, VertexId};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
use proptest::prelude::*;

fn policies() -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::RoundRobin,
        SchedPolicy::PriorityFirst,
        SchedPolicy::Random { marking_bias: 0.3 },
        SchedPolicy::Random { marking_bias: 0.9 },
    ]
}

fn lane_of(tag: u8) -> Lane {
    Lane::ALL[tag as usize % Lane::ALL.len()]
}

/// A small random graph with per-arc request kinds: `edges` are
/// `(from, to, kind)` tuples over `n` vertices (kind 0 = unrequested,
/// 1 = eager, 2 = vital), vertex 0 is the root.
fn request_graph(n: usize, edges: &[(usize, usize, u8)]) -> GraphStore {
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<VertexId> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &(a, b, kind) in edges {
        let (a, b) = (ids[a % n], ids[b % n]);
        g.connect(a, b);
        let i = g.vertex(a).args().len() - 1;
        let kind = match kind % 3 {
            0 => None,
            1 => Some(RequestKind::Eager),
            _ => Some(RequestKind::Vital),
        };
        g.vertex_mut(a).set_request_kind(i, kind);
    }
    g.set_root(ids[0]);
    g
}

fn r_marks(g: &GraphStore) -> Vec<Option<Priority>> {
    g.ids()
        .map(|v| {
            let s = g.mark(v, Slot::R);
            s.is_marked().then_some(s.prior)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Real marking traffic through the simulator: under every scheduling
    /// policy, `mark1` and `M_R` passes — with the paper's Invariants 1–3
    /// checked by the driver after every delivered event — terminate and
    /// mark exactly the oracle's reachable set, with `M_R` also assigning
    /// every vertex the oracle's max-over-paths priority.
    #[test]
    fn marking_invariants_hold_under_every_policy(
        edges in proptest::collection::vec((0usize..16, 0usize..16, 0u8..3), 0..48),
        seed in 0u64..20,
    ) {
        let base = request_graph(16, &edges);
        let want_r: Vec<bool> = {
            let reach = oracle::reachable_r(&base);
            base.ids().map(|v| reach.contains(v)).collect()
        };
        let want_prior = oracle::priorities(&base);
        for policy in policies() {
            let cfg = MarkRunConfig {
                num_pes: 3,
                policy,
                seed,
                check_invariants: true,
                ..Default::default()
            };
            let mut g = base.clone();
            run_mark1(&mut g, &cfg);
            let got: Vec<bool> = g
                .ids()
                .map(|v| g.mark(v, Slot::R).is_marked())
                .collect();
            prop_assert_eq!(&got, &want_r, "mark1 under {:?}", policy);

            let mut g = base.clone();
            run_mark2(&mut g, &cfg);
            let got = r_marks(&g);
            prop_assert_eq!(&got, &want_prior, "M_R priorities under {:?}", policy);
        }
    }

    /// Same for `M_T`: task-root seeds, per-event invariant checks, and a
    /// final T-mark set equal to the oracle's task-reachable set.
    #[test]
    fn task_marking_invariants_hold_under_every_policy(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 0u8..3), 0..36),
        seeds in proptest::collection::vec(0usize..12, 1..4),
        seed in 0u64..20,
    ) {
        let base = request_graph(12, &edges);
        let mut tasks = oracle::TaskEndpoints::new();
        for &s in &seeds {
            tasks.push_seed(VertexId::new(s as u32));
        }
        let want: Vec<bool> = {
            let reach = oracle::reachable_t(&base, &tasks);
            base.ids().map(|v| reach.contains(v)).collect()
        };
        for policy in policies() {
            let cfg = MarkRunConfig {
                num_pes: 3,
                policy,
                seed,
                check_invariants: true,
                ..Default::default()
            };
            let mut g = base.clone();
            run_mark3(&mut g, &tasks, &cfg);
            let got: Vec<bool> = g
                .ids()
                .map(|v| g.mark(v, Slot::T).is_marked())
                .collect();
            prop_assert_eq!(&got, &want, "M_T under {:?}", policy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once delivery, for every policy, including messages sent
    /// while draining.
    #[test]
    fn exactly_once_delivery(
        sends in proptest::collection::vec((0u16..4, 0u8..5), 1..120),
        extra in proptest::collection::vec((0u16..4, 0u8..5), 0..30),
        seed in 0u64..100,
    ) {
        for policy in policies() {
            let mut sim: DetSim<u32> = DetSim::new(4, policy, seed);
            let mut next_id = 0u32;
            for &(pe, tag) in &sends {
                sim.send(Envelope::new(PeId::new(pe), lane_of(tag), next_id));
                next_id += 1;
            }
            let mut seen = vec![false; sends.len() + extra.len()];
            let mut extra_iter = extra.iter();
            while let Some((_pe, _lane, id)) = sim.next_event() {
                prop_assert!(!seen[id as usize], "duplicate delivery of {id}");
                seen[id as usize] = true;
                // Occasionally inject more messages mid-drain.
                if let Some(&(pe, tag)) = extra_iter.next() {
                    sim.send(Envelope::new(PeId::new(pe), lane_of(tag), next_id));
                    next_id += 1;
                }
            }
            prop_assert!(seen.iter().take(next_id as usize).all(|&s| s));
            prop_assert!(sim.is_empty());
            prop_assert_eq!(sim.stats().delivered_total(), u64::from(next_id));
        }
    }

    /// Expunge drops exactly the matching messages; relane moves without
    /// loss; lane-targeted delivery drains one lane first.
    #[test]
    fn pool_surgery_preserves_messages(
        sends in proptest::collection::vec((0u16..3, 0u8..5), 1..80),
        drop_mod in 2u32..5,
        seed in 0u64..50,
    ) {
        let mut sim: DetSim<u32> = DetSim::new(3, SchedPolicy::Random { marking_bias: 0.5 }, seed);
        for (i, &(pe, tag)) in sends.iter().enumerate() {
            sim.send(Envelope::new(PeId::new(pe), lane_of(tag), i as u32));
        }
        let before = sim.len();
        let dropped = sim.expunge(|_, _, &m| m % drop_mod != 0);
        let expected_dropped = sends.iter().enumerate().filter(|(i, _)| (*i as u32).is_multiple_of(drop_mod)).count();
        prop_assert_eq!(dropped, expected_dropped);
        prop_assert_eq!(sim.len(), before - dropped);

        let moved = sim.relane(|_, lane, _| match lane {
            Lane::Reduction(_) => Lane::Reduction(Priority::Vital),
            other => other,
        });
        let _ = moved;
        // Everything still delivers exactly once.
        let mut count = 0;
        let mut seen = std::collections::HashSet::new();
        while let Some((_, _, id)) = sim.next_event() {
            prop_assert!(seen.insert(id));
            count += 1;
        }
        prop_assert_eq!(count, before - dropped);
    }

}
