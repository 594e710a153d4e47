//! Experiment T3: expunging irrelevant tasks bounds speculative waste.
//!
//! Speculative evaluation of a recursive program breeds an unbounded
//! irrelevant workload (Section 3.2: "the subcomputation may be
//! non-terminating"). With GC expunging, the computation converges and
//! wasted work is bounded; without it, the event budget blows up (or the
//! run never finishes).

use dgr_bench::{record, JsonRecord, Report};
use dgr_gc::{GcConfig, GcDriver};
use dgr_lang::build_with_prelude;
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_sim::SchedPolicy;

fn run(src: &str, label: &str, expunge: bool, reclaim: bool, budget: u64) -> JsonRecord {
    let cfg = SystemConfig {
        speculation: true,
        policy: SchedPolicy::Random { marking_bias: 0.5 },
        seed: 5,
        max_events: budget,
        ..Default::default()
    };
    let sys = build_with_prelude(src, cfg).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 300,
            expunge,
            reclaim,
            max_total_events: budget,
            ..Default::default()
        },
    );
    let out = gc.run();
    record! {
        "restructuring" => label,
        "outcome" => match out {
            RunOutcome::Value(v) => format!("{v}"),
            RunOutcome::Quiescent => "quiescent".into(),
            RunOutcome::Budget => "BUDGET BLOWN".into(),
        },
        "events" => gc.sys.events(),
        "derefs" => gc.sys.stats.dereferences,
        "expunged" => gc.stats().expunged_total,
        "reclaimed" => gc.stats().reclaimed_total,
        "dangling" => gc.sys.stats.dangling_requests,
        "tasks" => gc.sys.stats.total_tasks(),
    }
}

fn main() {
    let mut report = Report::new("irrelevant", &[], &[]);
    // fib under speculation: every `fib k, k<2` speculates an infinite
    // descent that the predicate then cancels — an unbounded irrelevant
    // workload unless the restructuring phase intervenes.
    let src = "fib 10";
    let budget = 2_000_000;
    let rows = vec![
        run(src, "expunge + reclaim", true, true, budget),
        run(src, "reclaim only", false, true, budget),
        run(src, "neither", false, false, budget),
    ];
    report.table(
        "T3: speculative `fib 10` under three restructuring policies \
         (budget 2M events)",
        rows,
    );
    println!(
        "\nShape check: with expunging the irrelevant tasks die in the pools \
         (dangling = 0) and the program converges fastest; with reclaim only, \
         the orphaned tasks run until they hit reclaimed vertices (dangling > \
         0) and more work is wasted; with neither, the speculative descent is \
         never cut and the budget is exhausted."
    );
    report.finish();
}
