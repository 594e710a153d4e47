//! Experiments F3-2 / F3-3: the task taxonomy over a live speculative
//! computation, and the Venn relationships of Figure 3-3.
//!
//! Every GC cycle classifies the pending tasks (Properties 3–6). The
//! table shows the taxonomy evolving: eager tasks while speculation is
//! undecided, irrelevant tasks after predicates resolve, vital tasks
//! along the needed spine. After each cycle the Figure 3-3 relationships
//! are checked against the sequential oracle.

use crate::{record, Report};
use dgr_gc::{classify_pending_tasks, GcConfig, GcDriver};
use dgr_graph::oracle;
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;
use dgr_sim::SchedPolicy;

pub(crate) fn run(report: &mut Report) {
    let src = "
        let rec spin = \\n -> if n == 0 then 0 else spin (n - 1) + nfib 5
        in (if nfib 9 > 0 then 1 + nfib 7 else spin 500)
           + (if nfib 9 > 1000 then spin 500 else 2)
    ";
    let cfg = SystemConfig {
        speculation: true,
        policy: SchedPolicy::Random { marking_bias: 0.5 },
        seed: 3,
        ..Default::default()
    };
    let sys = build_with_prelude(src, cfg).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 300,
            ..Default::default()
        },
    );
    gc.sys.demand_root();

    let mut rows = Vec::new();
    for cycle in 1..=100u64 {
        for _ in 0..300 {
            if !gc.sys.step() {
                break;
            }
        }
        if gc.sys.result.is_some() {
            break;
        }
        let census_before = classify_pending_tasks(&gc.sys);
        let report = gc.run_cycle();

        // ---- Figure 3-3 Venn checks against the oracle ----
        let tasks = gc.sys.pending_task_endpoints();
        let o = oracle::Oracle::compute(&gc.sys.graph, &tasks);
        // GAR is disjoint from R and from F.
        for v in o.garbage.iter() {
            assert!(!o.r.contains(v) && !gc.sys.graph.is_free(v));
        }
        // DL_v ⊆ R_v.
        for v in o.deadlocked.iter() {
            assert_eq!(o.prior[v.index()], Some(dgr_graph::Priority::Vital));
        }
        // Theorem 1's containment (the marked garbage set is a subset of
        // the oracle's garbage): a live vertex reclaimed by mistake would
        // have a task reach it after its free.
        assert_eq!(
            gc.sys.stats.dangling_requests, 0,
            "no task ever reached a freed vertex"
        );

        if rows.len() >= 30 {
            continue; // table stays readable; the run continues to the result
        }
        rows.push(record! {
            "cycle" => cycle,
            "vital" => census_before.vital,
            "eager" => census_before.eager,
            "reserve" => census_before.reserve,
            "irrelevant" => census_before.irrelevant,
            "expunged" => report.expunged,
            "reclaimed" => report.reclaimed,
            "relaned" => report.relaned,
        });
    }
    report.table(
        "F3-2: pending-task census per cycle (speculative two-branch program)",
        rows,
    );
    println!("\nresult: {:?}", gc.sys.result);
    println!(
        "Shape check: eager tasks dominate while the predicates are \
         undecided; once they resolve, the dead branches' tasks show up as \
         irrelevant and are expunged, vital tasks carry the spine, and the \
         Figure 3-3 set relationships hold at every cycle."
    );
}
