//! Experiment F4-1: the simplified marking algorithm (Figure 4-1) on
//! quiescent graphs — correctness against the oracle and cost/shape of
//! the marking wave across graph sizes, degrees and schedules.

use crate::{record, timed, Report};
use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_graph::{oracle, Slot};
use dgr_sim::SchedPolicy;
use dgr_workloads::graphs::{binary_tree, chain, random_digraph};

pub(crate) fn run(report: &mut Report) {
    // Size sweep on random digraphs.
    let mut rows = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000] {
        for &deg in &[2.0, 4.0] {
            let mut g = random_digraph(n, deg, 42);
            let reach = oracle::reachable_r(&g);
            let cfg = MarkRunConfig::default();
            let (stats, ms) = timed(|| run_mark1(&mut g, &cfg));
            // Verify against the oracle.
            let agree = g
                .live_ids()
                .all(|v| reach.contains(v) == g.mark(v, Slot::R).is_marked());
            assert!(agree, "marking disagrees with the oracle");
            rows.push(record! {
                "benchmark" => format!("detsim_fifo_random_digraph_deg{deg:.0}"),
                "vertices" => n,
                "pes" => cfg.num_pes,
                "messages" => stats.events,
                "wall_us" => ms * 1e3,
                "reachable" => reach.len(),
                "marked" => stats.marked,
                "per_reachable" => stats.events as f64 / reach.len().max(1) as f64,
                "remote" => stats.remote_messages,
            });
        }
    }
    report.table("F4-1a: mark1 on random digraphs (4 PEs, FIFO)", rows);

    // Shape sweep: tree vs chain (parallel wavefront vs sequential path),
    // plus the depth-15 tree (65k vertices) — the scalability experiments'
    // reference workload — under the det-sim FIFO schedule.
    let mut rows = Vec::new();
    for (slug, mut g) in [
        ("detsim_fifo_tree_d14", binary_tree(14)),
        ("detsim_fifo_tree_d15", binary_tree(15)),
        ("detsim_fifo_chain_32k", chain(32_768)),
    ] {
        let vertices = g.live_ids().count();
        let cfg = MarkRunConfig::default();
        let (stats, ms) = timed(|| run_mark1(&mut g, &cfg));
        rows.push(record! {
            "benchmark" => slug,
            "vertices" => vertices,
            "pes" => cfg.num_pes,
            "messages" => stats.events,
            "wall_us" => ms * 1e3,
            "marked" => stats.marked,
        });
    }
    report.table(
        "F4-1b: marking-tree shape (tree wavefront vs sequential chain)",
        rows,
    );

    // Schedule robustness: every policy yields the same mark set.
    let mut rows = Vec::new();
    let mut marked = Vec::new();
    for (name, policy) in [
        ("fifo", SchedPolicy::Fifo),
        ("lifo", SchedPolicy::Lifo),
        ("round-robin", SchedPolicy::RoundRobin),
        ("priority", SchedPolicy::PriorityFirst),
        ("random", SchedPolicy::Random { marking_bias: 0.5 }),
    ] {
        let mut g = random_digraph(20_000, 3.0, 7);
        let cfg = MarkRunConfig {
            policy,
            seed: 11,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        marked.push(stats.marked);
        rows.push(record! { "policy" => name, "marked" => stats.marked, "events" => stats.events });
    }
    assert!(
        marked.windows(2).all(|w| w[0] == w[1]),
        "mark set must be schedule-independent"
    );
    report.table("F4-1c: schedule independence (|V|=20k, degree 3)", rows);
}
