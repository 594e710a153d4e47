//! Experiment T2: decentralized marking versus reference counting on
//! cyclic garbage (the paper's Section 4 argument for marking).
//!
//! The same churn trace (allocate clusters, drop clusters; a fraction are
//! cycles) is replayed against both collectors. Marking reclaims exactly
//! the dropped vertices; reference counting reclaims only the acyclic
//! ones and leaks the rest, at a cost of one count message per reference
//! operation.

use dgr_baseline::refcount::replay_churn_rc;
use dgr_bench::{record, Report};
use dgr_core::{MarkMsg, MarkState};
use dgr_gc::{GcConfig, GcDriver};
use dgr_reduction::{System, SystemConfig, TemplateStore};
use dgr_workloads::churn::{churn_trace, ChurnReplayer};

fn marking_reclaim(trace: &[dgr_workloads::churn::ChurnOp]) -> (usize, u64) {
    let mut rep = ChurnReplayer::new(4096);
    let mut state = MarkState::new();
    let mut buf: Vec<MarkMsg> = Vec::new();
    for &op in trace {
        rep.apply(op, &mut state, &mut |m| buf.push(m));
    }
    let sys = System::new(rep.g, TemplateStore::new(), SystemConfig::default());
    let mut gc = GcDriver::new(sys, GcConfig::default());
    let report = gc.run_cycle();
    (report.reclaimed, report.mark_events)
}

fn main() {
    let mut report = Report::new("rc_vs_marking", &[], &[]);
    let mut rows = Vec::new();
    for &cyclic in &[0.0f64, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let trace = churn_trace(1_000, 6, cyclic, 0.6, 99);
        let (mark_reclaimed, mark_events) = marking_reclaim(&trace);
        let rc = replay_churn_rc(&trace);
        assert_eq!(
            mark_reclaimed,
            rc.reclaimed + rc.leaked,
            "marking reclaims what RC reclaims plus what it leaks"
        );
        rows.push(record! {
            "cyclic_pct" => cyclic * 100.0,
            "mark_reclaimed" => mark_reclaimed,
            "mark_events" => mark_events,
            "rc_reclaimed" => rc.reclaimed,
            "rc_leaked" => rc.leaked,
            "leak_pct" => rc.leaked as f64 / mark_reclaimed.max(1) as f64 * 100.0,
            "rc_count_msgs" => rc.count_messages,
        });
    }
    report.table(
        "T2: churn (1000 clusters of 6, drop 60%) — marking vs reference counting",
        rows,
    );
    println!(
        "\nShape check: the leak share tracks the cyclic fraction (0% leaks \
         nothing, 100% leaks everything dropped), while marking's reclaim is \
         independent of cyclicity. Reference counting also pays a count \
         message per reference mutation regardless of collection.\n\
         The paper's second deficiency — RC cannot classify tasks or detect \
         deadlock — holds by construction: counts carry no reachability."
    );
    report.finish();
}
