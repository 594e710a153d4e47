//! Phase-resolved observability report.
//!
//! Runs the GC driver over a list-heavy reduction workload with the
//! telemetry layer on (build with `--features telemetry`) and emits:
//!
//! * `BENCH_telemetry.json` (under `--json`) — per-cycle records plus
//!   per-phase (`M_T`, `M_R`, `classify`) duration totals;
//! * `BENCH_telemetry_trace.json` — the drained event ring in Chrome
//!   `trace_event` format, loadable in `chrome://tracing` or Perfetto;
//! * `BENCH_telemetry_events.jsonl` — the same events as JSON Lines.
//!
//! A second section drives the threaded marking runtime and reports its
//! counters (task deliveries, batches, parks, local/remote spawns) and
//! the batch-size histogram, one row per bucket. Pass `--small` for a
//! CI-sized workload.

use crate::{record, Report};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared_observed};
use dgr_gc::{GcConfig, GcDriver};
use dgr_graph::PartitionStrategy;
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;
use dgr_sim::SharedGraph;
use dgr_telemetry::{
    bucket_label, chrome_trace_json, events_jsonl, CounterId, HeartbeatHandle, HistId, Registry,
    TELEMETRY_ENABLED,
};
use dgr_workloads::graphs::binary_tree_dfs;

pub(crate) fn run(report: &mut Report) {
    let small = report.has("--small");
    if !TELEMETRY_ENABLED {
        println!(
            "note: built without the `telemetry` feature — durations and cycle \
             census are still reported, message counters and traces are empty"
        );
    }

    // Phase-resolved GC cycles over a reduction that allocates and drops
    // one cons cell per element (steady garbage for the collector).
    let n = if small { 60 } else { 250 };
    let src = format!("sum (map (\\x -> x * x) (range 1 {n}))");
    let sys = build_with_prelude(&src, SystemConfig::default()).expect("workload builds");
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: if small { 150 } else { 300 },
            mt_every: 2,
            ..Default::default()
        },
    );
    let out = gc.run();
    assert!(
        matches!(out, dgr_reduction::RunOutcome::Value(_)),
        "workload finished: {out:?}"
    );

    let cycles = gc.timeline();
    let rows = (cycles.iter())
        .map(|c| {
            record! {
                "benchmark" => "gc_cycle",
                "cycle" => c.cycle,
                "mt_us" => c.mt_us,
                "mr_us" => c.mr_us,
                "settle_us" => c.settle_us,
                "classify_us" => c.restructure_us,
                "total_us" => c.total_us,
                "mark_events" => c.mark_events,
                "marks_in_place" => c.marks_in_place,
                "red_events_during_marking" => c.reduction_events_during_marking,
                "sends_local" => c.sends_local,
                "sends_remote" => c.sends_remote,
                "mark_backlog_hw" => c.mark_backlog_hw,
                "marked_t" => c.marked_t,
                "marked_r" => c.marked_r(),
                "garbage" => c.garbage,
                "reclaimed" => c.reclaimed,
                "expunged" => c.expunged,
                "relaned" => c.relaned,
            }
        })
        .collect();
    report.table(&format!("per-cycle timeline (sum of squares 1..{n})"), rows);

    // The per-phase totals the trajectory tooling plots: M_T (synchronous
    // deadlock-detection pass), M_R (concurrent marking incl. settling),
    // classify (census + restructuring).
    let phase_totals = [
        ("M_T", cycles.iter().map(|c| c.mt_us).sum::<u64>()),
        (
            "M_R",
            cycles.iter().map(|c| c.mr_us + c.settle_us).sum::<u64>(),
        ),
        ("classify", cycles.iter().map(|c| c.restructure_us).sum()),
    ];
    let rows = (phase_totals.into_iter())
        .map(|(phase, us)| {
            record! {
                "benchmark" => "phase_total",
                "phase" => phase,
                "total_us" => us,
                "cycles" => cycles.len(),
                "us_per_cycle" => us as f64 / cycles.len().max(1) as f64,
            }
        })
        .collect();
    report.table(&format!("phase totals over {} cycles", cycles.len()), rows);

    let events = gc.sys.telemetry().drain_events();
    report.side_file("BENCH_telemetry_trace.json", &chrome_trace_json(&events));
    report.side_file("BENCH_telemetry_events.jsonl", &events_jsonl(&events));
    println!(
        "trace: {} events ({} dropped by the ring)",
        events.len(),
        gc.sys.telemetry().dropped_events()
    );

    // Threaded marking runtime: counters and the outbox batch-size
    // histogram across a DFS-numbered tree with block placement.
    let depth = if small { 12 } else { 15 };
    let pes: u16 = 4;
    let shared = SharedGraph::from_store(binary_tree_dfs(depth));
    reset_shared_r(&shared);
    let telem = Registry::new(pes);
    let hb = HeartbeatHandle::new();
    let stats = run_mark1_shared_observed(&shared, pes, PartitionStrategy::Block, &telem, &hb);
    let snap = telem.snapshot().merged();
    let batch = snap.hist(HistId::BatchSize);
    report.table(
        &format!("threaded mark1, tree depth {depth}, {pes} PEs, block partition"),
        vec![record! {
            "benchmark" => "threaded_mark1",
            "pes" => pes,
            "messages" => stats.messages,
            "tasks" => snap.counter(CounterId::Tasks),
            "batches" => snap.counter(CounterId::Batches),
            "parks" => snap.counter(CounterId::Parks),
            // Which worker ran a spawning task decides these two, so they
            // are named apart from the GC cycles' deterministic sends.
            "spawns_local" => snap.counter(CounterId::SendsLocal),
            "spawns_remote" => snap.counter(CounterId::SendsRemote),
            "batch_mean" => batch.mean(),
        }],
    );
    // Every bucket, empty ones included: the row set stays fixed.
    let rows = (batch.buckets.iter().enumerate())
        .map(|(i, &count)| record! { "bucket" => bucket_label(i), "batches" => count })
        .collect();
    report.table("outbox batch sizes", rows);
}
