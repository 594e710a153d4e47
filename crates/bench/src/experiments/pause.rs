//! Experiment T1: concurrent collection versus stop-the-world.
//!
//! Both collectors do tracing work proportional to the live set; the
//! difference is *where the mutator is* while it happens. The
//! stop-the-world pause admits zero reduction; the concurrent cycle
//! interleaves reduction tasks throughout (the overlap column), so the
//! mutator never observes a pause longer than one task execution.

use crate::{record, Report};
use dgr_baseline::stw::collect_stw;
use dgr_gc::{GcConfig, GcDriver};
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;

pub(crate) fn run(report: &mut Report) {
    let mut rows = Vec::new();
    for &n in &[50u64, 150, 400, 1000] {
        // The same program twice: once under the concurrent collector,
        // once pausing for stop-the-world collections at the same period.
        let src = format!("sum (map (\\x -> x * x) (range 1 {n}))");

        let sys = build_with_prelude(&src, SystemConfig::default()).unwrap();
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 400,
                // M_T (deadlock detection) is a synchronous pass, so it is
                // run only occasionally, exactly as Section 6 recommends;
                // M_R and restructuring stay concurrent every cycle.
                mt_every: 4,
                ..Default::default()
            },
        );
        let out = gc.run();
        assert!(matches!(out, dgr_reduction::RunOutcome::Value(_)));
        let cc_cycles = gc.stats().cycles.max(1);

        // Stop-the-world at the same cadence.
        let mut sys = build_with_prelude(&src, SystemConfig::default()).unwrap();
        sys.demand_root();
        let mut stw_pause_max = 0usize;
        let mut stw_reclaimed = 0usize;
        loop {
            let mut n_ev = 0;
            while n_ev < 400 && sys.result.is_none() {
                if !sys.step() {
                    break;
                }
                n_ev += 1;
            }
            // World stopped: nothing runs during this call.
            let rep = collect_stw(&mut sys.graph);
            stw_pause_max = stw_pause_max.max(rep.pause_units);
            stw_reclaimed += rep.reclaimed;
            if sys.result.is_some() || n_ev == 0 {
                break;
            }
        }

        rows.push(record! {
            "n" => n,
            "cc_cycles" => cc_cycles,
            "cc_reclaimed" => gc.stats().reclaimed_total,
            "cc_mark_per_cycle" => gc.stats().mark_events_total as f64 / f64::from(cc_cycles),
            "cc_max_cycle" => gc.stats().max_cycle_mark_events,
            // Overlap: reduction tasks executed *during* marking phases.
            "cc_overlap" => gc.last_report().reduction_events_during_marking,
            "stw_reclaimed" => stw_reclaimed,
            "stw_max_pause" => stw_pause_max,
            "stw_overlap" => 0u64,
        });
    }
    report.table(
        "T1: concurrent cycles vs stop-the-world pauses (sum of squares 1..n)",
        rows,
    );
    println!(
        "\nShape check: both collectors' tracing work grows with the live set, \
         but the concurrent collector's overlap column is nonzero (reduction \
         keeps executing during M_R and restructuring) while stop-the-world is \
         zero by definition. The occasional M_T pass is the one synchronous \
         piece (Section 6 runs it rarely for exactly that reason)."
    );
}
