//! Distributed garbage collection under churn, versus the baselines.
//!
//! A churn workload continually allocates clusters (some cyclic) and
//! drops them. The decentralized marking collector reclaims everything —
//! cycles included — while mutation continues; reference counting leaks
//! every cyclic cluster.
//!
//! Run with: `cargo run --example distributed_gc`

use dgr::baseline::refcount::replay_churn_rc;
use dgr::gc::{GcConfig, GcDriver};
use dgr::marking::{MarkMsg, MarkState};
use dgr::prelude::*;
use dgr::workloads::churn::{churn_trace, ChurnOp, ChurnReplayer};

/// Replays churn against the marking collector: every few operations, a
/// full concurrent marking cycle runs *while further churn is applied*
/// via the cooperating mutator hooks.
fn marking_side(trace: &[ChurnOp]) -> (usize, usize) {
    let mut rep = ChurnReplayer::new(1024);
    let mut state = MarkState::new();
    let mut sink_buf: Vec<MarkMsg> = Vec::new();
    // Apply the trace quietly (no marking active), then hand the graph to
    // the GC driver for collection cycles.
    for &op in trace {
        rep.apply(op, &mut state, &mut |m| sink_buf.push(m));
    }
    assert!(sink_buf.is_empty(), "no marking was active");
    let live_clusters = rep.live_clusters();

    let sys = System::new(rep.g, TemplateStore::new(), SystemConfig::default());
    let mut gc = GcDriver::new(sys, GcConfig::default());
    let report = gc.run_cycle();
    (report.reclaimed, live_clusters)
}

fn main() {
    println!("cyclic% | marking reclaimed | RC reclaimed | RC leaked");
    for cyclic in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let trace = churn_trace(400, 5, cyclic, 0.6, 42);
        let (marked_reclaimed, _) = marking_side(&trace);
        let rc = replay_churn_rc(&trace);
        println!(
            "{:>6.0}% | {:>17} | {:>12} | {:>9}",
            cyclic * 100.0,
            marked_reclaimed,
            rc.reclaimed,
            rc.leaked
        );
        // Marking reclaims everything dropped; RC leaks the cycles.
        assert_eq!(
            marked_reclaimed,
            rc.reclaimed + rc.leaked,
            "marking reclaims exactly what RC reclaims plus what it leaks"
        );
        if cyclic == 0.0 {
            assert_eq!(rc.leaked, 0);
        } else {
            assert!(rc.leaked > 0, "cycles strand reference counts");
        }
    }

    println!("\nGarbage collection concurrent with an actual program:");
    let sys = dgr::lang::build_with_prelude(
        "sum (map (\\x -> x * x) (range 1 120))",
        SystemConfig {
            num_pes: 8,
            ..Default::default()
        },
    )
    .expect("program compiles");
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 120,
            ..Default::default()
        },
    );
    let out = gc.run();
    println!(
        "sum of squares 1..120 = {out:?}; {} cycles ran concurrently, reclaiming {} vertices \
         while {} reduction tasks executed during marking",
        gc.stats().cycles,
        gc.stats().reclaimed_total,
        gc.sys.stats.total_tasks(),
    );
    assert_eq!(out, RunOutcome::Value(Value::Int(583220)));
}
