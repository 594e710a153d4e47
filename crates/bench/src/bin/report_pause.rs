//! Experiment T1: concurrent collection versus stop-the-world.
//!
//! Both collectors do tracing work proportional to the live set; the
//! difference is *where the mutator is* while it happens. The
//! stop-the-world pause admits zero reduction; the concurrent cycle
//! interleaves reduction tasks throughout (the overlap column), so the
//! mutator never observes a pause longer than one task execution.

use dgr_baseline::stw::collect_stw;
use dgr_bench::{f2, print_table};
use dgr_gc::{GcConfig, GcDriver};
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;

fn main() {
    dgr_bench::Flags::parse(&[], &[]);
    let mut rows = Vec::new();
    for &n in &[50i64, 150, 400, 1000] {
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
        let cc_mark = gc.stats().mark_events_total;
        let cc_max_cycle = gc.stats().max_cycle_mark_events;
        let cc_reclaimed = gc.stats().reclaimed_total;
        // Overlap: reduction tasks executed *during* marking phases.
        let overlap = gc.last_report().reduction_events_during_marking;

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

        rows.push(vec![
            n.to_string(),
            cc_cycles.to_string(),
            cc_reclaimed.to_string(),
            f2(cc_mark as f64 / cc_cycles as f64),
            cc_max_cycle.to_string(),
            overlap.to_string(),
            stw_reclaimed.to_string(),
            stw_pause_max.to_string(),
            "0".to_string(),
        ]);
    }
    print_table(
        "T1: concurrent cycles vs stop-the-world pauses (sum of squares 1..n)",
        &[
            "n",
            "cc cycles",
            "cc reclaimed",
            "cc mark/cycle",
            "cc max cycle",
            "cc overlap",
            "stw reclaimed",
            "stw max pause",
            "stw overlap",
        ],
        &rows,
    );
    println!(
        "\nShape check: both collectors' tracing work grows with the live set, \
         but the concurrent collector's overlap column is nonzero (reduction \
         keeps executing during M_R and restructuring) while stop-the-world is \
         zero by definition. The occasional M_T pass is the one synchronous \
         piece (Section 6 runs it rarely for exactly that reason)."
    );
}
