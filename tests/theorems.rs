//! Empirical checks of the correctness results of Section 5.4: the
//! marking processes run concurrently with adversarial mutation streams,
//! and the theorems' containments are asserted against oracle snapshots
//! taken at the paper's time points (`t_a` = M_T begins, `t_b` = M_R
//! begins, `t_c` = M_R ends).

use dgr::graph::{oracle, MarkParent, Slot, VertexSet};
use dgr::marking::driver::{run_pass, MarkRunConfig};
use dgr::marking::{MarkMsg, MarkState, RMode};
use dgr::prelude::*;
use dgr::sim::SchedPolicy;
use dgr::telemetry::Registry;
use dgr::workloads::churn::{churn_trace, ChurnOp, ChurnReplayer};

/// Drives one `M_R` pass to completion over a churning graph: every
/// `period` marking events, one churn operation is applied through the
/// cooperating hooks.
fn marked_pass_with_churn(
    rep: &mut ChurnReplayer,
    state: &mut MarkState,
    ops: &mut std::vec::IntoIter<ChurnOp>,
    period: u64,
    seed: u64,
) {
    // The pass holds the graph; the replayer has it back for each op.
    let mut g = std::mem::take(&mut rep.g);
    g.begin_mark_cycle(Slot::R);
    state.begin_r(RMode::Priority);
    let root = g.root().unwrap();
    let cfg = MarkRunConfig {
        policy: SchedPolicy::Random { marking_bias: 0.5 },
        seed,
        ..Default::default()
    };
    run_pass(
        &mut g,
        &cfg,
        state,
        Slot::R,
        vec![MarkMsg::Mark2 {
            v: root,
            par: MarkParent::RootPar,
            prior: Priority::Vital,
        }],
        &Registry::new(cfg.num_pes),
        |events, state, g, send| {
            if events.is_multiple_of(period) {
                if let Some(op) = ops.next() {
                    std::mem::swap(&mut rep.g, g);
                    rep.apply(op, state, send);
                    std::mem::swap(&mut rep.g, g);
                }
            }
        },
    );
    rep.g = g;
    assert!(state.r_done, "M_R drained without done");
    state.end_r();
}

/// Theorem 1: `GAR(t_b) ⊆ GAR'(t_c) ⊆ GAR(t_c)` — everything that was
/// garbage when `M_R` began is identified, and nothing is erroneously
/// identified, even though clusters keep being attached and dropped
/// throughout the pass.
#[test]
fn theorem_1_garbage_containments() {
    for seed in 0..15 {
        let mut rep = ChurnReplayer::new(512);
        let mut state = MarkState::new();
        let mut quiet = |_m: MarkMsg| {};
        // Pre-populate.
        for op in churn_trace(150, 4, 0.4, 0.5, seed) {
            rep.apply(op, &mut state, &mut quiet);
        }
        // t_b snapshot.
        let reach_tb = oracle::reachable_r(&rep.g);
        let gar_tb = oracle::garbage(&rep.g, &reach_tb);

        // Run M_R with churn interleaved.
        let mut ops = churn_trace(60, 4, 0.4, 0.5, seed + 1000).into_iter();
        marked_pass_with_churn(&mut rep, &mut state, &mut ops, 5, seed);

        // t_c snapshot.
        let reach_tc = oracle::reachable_r(&rep.g);
        let gar_tc = oracle::garbage(&rep.g, &reach_tc);
        let gar_marked: VertexSet = rep
            .g
            .live_ids()
            .filter(|&v| !rep.g.vertex(v).mr.is_marked())
            .collect();

        for v in gar_tb.iter() {
            assert!(
                gar_marked.contains(v) || rep.g.is_free(v),
                "seed {seed}: garbage at t_b must be identified ({v})"
            );
        }
        for v in gar_marked.iter() {
            assert!(
                gar_tc.contains(v),
                "seed {seed}: {v} identified as garbage but live at t_c"
            );
        }
        // Axiom 3 sanity: garbage only grew (moves aside, drops only add).
        for v in gar_tb.iter() {
            assert!(gar_tc.contains(v) || rep.g.is_free(v), "seed {seed}");
        }
    }
}

/// Theorem 2: `DL_v(t_a) ⊆ DL'_v(t_c) ⊆ DL_v(t_c)` with `M_T` before
/// `M_R`, on graphs mixing a live region, garbage, and genuinely
/// deadlocked vital cycles.
#[test]
fn theorem_2_deadlock_containments() {
    use dgr::graph::{GraphStore, NodeLabel, PrimOp, RequestKind, TaskEndpoints};
    use dgr::marking::driver::{run_mark2, run_mark3, MarkRunConfig};

    for seed in 0..15 {
        // Build: root vitally reaches a deadlocked cycle and a healthy
        // in-progress computation with one pending task.
        let mut g = GraphStore::with_capacity(64);
        let root = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        // Deadlocked region: x = x + k (cycle of length seed%3+1).
        let n = (seed % 3 + 1) as usize;
        let cyc: Vec<_> = (0..n)
            .map(|_| g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap())
            .collect();
        for i in 0..n {
            g.connect(cyc[i], cyc[(i + 1) % n]);
            g.vertex_mut(cyc[i])
                .set_request_kind(0, Some(RequestKind::Vital));
        }
        g.connect(root, cyc[0]);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        // Healthy region: an in-progress strict op with a pending task.
        let busy = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        let leaf = g.alloc(NodeLabel::lit_int(5)).unwrap();
        g.connect(busy, leaf);
        g.vertex_mut(busy)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, busy);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Vital));
        g.vertex_mut(leaf)
            .add_requester(dgr::graph::Requester::Vertex(busy));
        g.set_root(root);
        let mut tasks = TaskEndpoints::new();
        tasks.push_task(Some(busy), leaf);

        // t_a snapshot.
        let o_ta = oracle::Oracle::compute(&g, &tasks);
        assert!(!o_ta.deadlocked.is_empty(), "cycle is deadlocked");
        assert!(!o_ta.deadlocked.contains(busy) && !o_ta.deadlocked.contains(leaf));

        let cfg = MarkRunConfig {
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        run_mark3(&mut g, &tasks, &cfg);
        run_mark2(&mut g, &cfg);
        let flagged = dgr::gc::deadlocked_vertices(&g);

        // t_c snapshot (graph unchanged here).
        let o_tc = oracle::Oracle::compute(&g, &tasks);
        for v in o_ta.deadlocked.iter() {
            assert!(flagged.contains(&v), "seed {seed}: {v} missed");
        }
        for &v in &flagged {
            assert!(
                o_tc.deadlocked.contains(v),
                "seed {seed}: {v} false positive"
            );
        }
    }
}

/// Lemma 1 / Lemma 3 (safety) under mutation: nothing that was garbage
/// before marking began is ever marked by `M_R`.
#[test]
fn lemma_1_safety_under_mutation() {
    for seed in 20..30 {
        let mut rep = ChurnReplayer::new(512);
        let mut state = MarkState::new();
        let mut quiet = |_m: MarkMsg| {};
        for op in churn_trace(120, 5, 0.5, 0.5, seed) {
            rep.apply(op, &mut state, &mut quiet);
        }
        let reach = oracle::reachable_r(&rep.g);
        let gar_tb = oracle::garbage(&rep.g, &reach);

        let mut ops = churn_trace(40, 5, 0.5, 0.5, seed + 500).into_iter();
        marked_pass_with_churn(&mut rep, &mut state, &mut ops, 3, seed);

        for v in gar_tb.iter() {
            assert!(
                !rep.g.vertex(v).mr.is_marked(),
                "seed {seed}: pre-existing garbage {v} was marked"
            );
        }
    }
}
