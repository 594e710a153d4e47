//! Experiments F4-2 and T-abl: mutator cooperation during marking.
//!
//! A stream of reachability-preserving *move* mutations runs concurrently
//! with a `mark1` pass. With the cooperating primitives of Figure 4-2, no
//! live vertex is ever lost; with cooperation disabled (the static-graph
//! assumption of Chandy–Misra-style algorithms), live vertices end up
//! unmarked at any nonzero mutation rate — a collector trusting those
//! marks would reclaim them.
//!
//! Two graph families: a tree, where every vertex has one parent, and a
//! random digraph, where shared vertices let a parent complete while a
//! mark another parent owes its child is still in flight — the case
//! trees cannot reach (DESIGN §9 note 11).

use crate::{record, Report};
use dgr_baseline::noncoop::mark_under_mutation;
use dgr_graph::GraphStore;
use dgr_workloads::graphs::{binary_tree, rooted_digraph};

const SEEDS: u64 = 20;

fn family(report: &mut Report, title: &str, build: impl Fn(u64) -> GraphStore) {
    let mut rows = Vec::new();
    for &period in &[0u64, 16, 8, 4, 2, 1] {
        for coop in [true, false] {
            let mut lost_total = 0usize;
            let mut lost_runs = 0usize;
            let mut mutations = 0u64;
            let mut live = 0usize;
            for seed in 0..SEEDS {
                let mut g = build(seed);
                let r = mark_under_mutation(&mut g, coop, period, seed);
                lost_total += r.lost_live;
                lost_runs += usize::from(r.lost_live > 0);
                mutations += r.mutations;
                live += r.live;
            }
            rows.push(record! {
                "mutation_rate" => if period == 0 { "none".into() } else { format!("1/{period}") },
                "cooperation" => if coop { "on" } else { "off" },
                "avg_mutations" => mutations as f64 / SEEDS as f64,
                "avg_live" => live as f64 / SEEDS as f64,
                "avg_lost" => lost_total as f64 / SEEDS as f64,
                "runs_with_loss" => lost_runs,
            });
            if coop {
                assert_eq!(lost_total, 0, "cooperation must never lose a live vertex");
            }
        }
    }
    report.table(
        &format!(
            "F4-2 / T-abl: live vertices lost by marking under mutation \
             ({title}, {SEEDS} seeds)"
        ),
        rows,
    );
}

pub(crate) fn run(report: &mut Report) {
    family(report, "binary tree d=9", |_| binary_tree(9));
    family(
        report,
        "random digraph n=2000 deg 3 + 16 root arcs",
        |seed| rooted_digraph(2000, 3.0, seed),
    );
    println!(
        "\nShape check: cooperation ON loses 0 at every rate; cooperation OFF \
         loses vertices increasingly often as the mutation rate rises."
    );
}
