//! Watch the marking wave: dumps Graphviz snapshots of a marking pass at
//! several points, showing unmarked (white), transient (gray) and marked
//! (green) vertices — Dijkstra's colors, distributed.
//!
//! Run with: `cargo run --example visualize_marking`
//! Then:     `dot -Tsvg wave_2.dot > wave_2.svg` (if graphviz is installed)

use dgr::graph::dot::{to_dot, DotOptions};
use dgr::graph::{MarkParent, Slot};
use dgr::marking::driver::{run_pass, MarkRunConfig};
use dgr::marking::{MarkMsg, MarkState, RMode};
use dgr::prelude::*;
use dgr::telemetry::Registry;

fn main() {
    // A small diamond-rich graph.
    let mut g = GraphStore::new();
    let mut b = dgr::reduction::Builder::new(&mut g);
    let leaves: Vec<_> = (0..4).map(|i| b.int(i)).collect();
    let l0 = b.prim2(PrimOp::Add, leaves[0], leaves[1]);
    let l1 = b.prim2(PrimOp::Add, leaves[1], leaves[2]);
    let l2 = b.prim2(PrimOp::Add, leaves[2], leaves[3]);
    let m0 = b.prim2(PrimOp::Mul, l0, l1);
    let m1 = b.prim2(PrimOp::Mul, l1, l2);
    let root = b.prim2(PrimOp::Add, m0, m1);
    g.set_root(root);

    g.begin_mark_cycle(Slot::R);
    let mut state = MarkState::new();
    state.begin_r(RMode::Simple);
    let cfg = MarkRunConfig {
        num_pes: 3,
        policy: SchedPolicy::Fifo,
        ..Default::default()
    };

    let mut snapshots = 0;
    let opts = DotOptions::default();
    let mut snapshot = |g: &GraphStore, events: u64| {
        let path = format!("wave_{snapshots}.dot");
        std::fs::write(&path, to_dot(g, &opts)).expect("write snapshot");
        println!("event {events:>3}: wrote {path}");
        snapshots += 1;
    };
    let stats = run_pass(
        &mut g,
        &cfg,
        &mut state,
        Slot::R,
        vec![MarkMsg::Mark1 {
            v: root,
            par: MarkParent::RootPar,
        }],
        &Registry::new(cfg.num_pes),
        |events, _, g, _| {
            if events % 5 == 0 {
                snapshot(g, events);
            }
        },
    );
    // The finished wave, unless the last event already drew it.
    if stats.events % 5 != 0 {
        snapshot(&g, stats.events);
    }
    assert!(state.r_done);
    println!(
        "\nmarking complete in {} events; render the snapshots with\n  for f in wave_*.dot; do dot -Tsvg $f > ${{f%.dot}}.svg; done",
        stats.events
    );
}
