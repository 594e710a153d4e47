//! Experiment T7: why `M_T` must execute before `M_R` (Theorem 2).
//!
//! The right-hand containment of Theorem 2 (nothing is *erroneously*
//! flagged deadlocked) is "the only part that requires M_T to execute
//! before M_R". This report constructs the failing interleaving: a
//! subgraph is vitally reachable when one phase runs, then dereferenced
//! (becoming garbage, its tasks drained) before the other phase runs.
//!
//! * Wrong order (`M_R` then `M_T`): the stale R marks still say "vital",
//!   the fresh T marks say "no tasks" — the garbage is reported
//!   deadlocked.
//! * Paper's order (`M_T` then `M_R`): the fresh R marks already exclude
//!   the dereferenced region, so nothing is misreported.

use crate::{record, Report};
use dgr_core::driver::{run_mark2, run_mark3, MarkRunConfig};
use dgr_gc::deadlocked_vertices;
use dgr_graph::{oracle, GraphStore, NodeLabel, PrimOp, RequestKind, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds: root vitally requests a chain of `depth` strict vertices (the
/// "speculation region") plus one always-live leaf. Returns the graph and
/// the arc index of the region so it can be dereferenced later.
fn build(depth: usize, seed: u64) -> (GraphStore, VertexId, Vec<VertexId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphStore::with_capacity(depth + 4);
    let root = g.alloc(NodeLabel::If).unwrap();
    let live = g.alloc(NodeLabel::lit_int(1)).unwrap();
    g.connect(root, live);
    g.vertex_mut(root)
        .set_request_kind(0, Some(RequestKind::Vital));
    let mut region = Vec::new();
    let mut prev = root;
    for i in 0..depth {
        let v = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        g.connect(prev, v);
        let idx = g.vertex(prev).args().len() - 1;
        g.vertex_mut(prev)
            .set_request_kind(idx, Some(RequestKind::Vital));
        region.push(v);
        prev = v;
        // Sprinkle extra internal arcs for variety.
        if i > 2 && rng.gen_bool(0.4) {
            let back = region[rng.gen_range(0..i)];
            g.connect(v, back);
        }
    }
    g.set_root(root);
    (g, root, region)
}

/// Dereference the region: the root drops its (only) arc into it, so all
/// its vertices become garbage and all its (here: none pending) task
/// activity is gone.
fn deref_region(g: &mut GraphStore, root: VertexId, region: &[VertexId]) {
    g.disconnect(root, region[0]);
    g.remove_requester(region[0], dgr_graph::Requester::Vertex(root));
}

pub(crate) fn run(report: &mut Report) {
    const RUNS: u64 = 25;
    let cfg = MarkRunConfig::default();
    let mut rows = Vec::new();
    for order in ["M_T then M_R (paper)", "M_R then M_T (wrong)"] {
        let wrong = order.starts_with("M_R");
        let mut false_pos = 0usize;
        let mut flagged_total = 0usize;
        for seed in 0..RUNS {
            let (mut g, root, region) = build(24, seed);
            let tasks = dgr_graph::TaskEndpoints::new(); // activity has ceased
            if wrong {
                run_mark2(&mut g, &cfg);
                // The graph mutates between the phases: the region is
                // dereferenced (this is what concurrency amounts to).
                deref_region(&mut g, root, &region);
                run_mark3(&mut g, &tasks, &cfg);
            } else {
                run_mark3(&mut g, &tasks, &cfg);
                deref_region(&mut g, root, &region);
                run_mark2(&mut g, &cfg);
            }
            let flagged = deadlocked_vertices(&g);
            flagged_total += flagged.len();
            // Ground truth *now*: the region is garbage, not deadlocked.
            let o = oracle::Oracle::compute(&g, &tasks);
            false_pos += flagged
                .iter()
                .filter(|&&v| !o.deadlocked.contains(v))
                .count();
        }
        rows.push(record! {
            "order" => order,
            "runs" => RUNS,
            "flagged" => flagged_total,
            "false_positives" => false_pos,
        });
        if !wrong {
            assert_eq!(false_pos, 0, "the paper's order must not misreport");
        }
    }
    report.table(
        "T7: phase order and deadlock misreporting \
         (24-vertex vital region dereferenced between phases, 25 runs)",
        rows,
    );
    println!(
        "\nShape check: the wrong order fabricates deadlocks out of garbage \
         (stale `R_v` ∩ fresh `¬T`); the paper's order reports none — \
         exactly the asymmetry Theorem 2's proof part (b) isolates."
    );
}
