//! Experiment T9: per-PE utilization and speedup-gap attribution.
//!
//! Runs the work-stealing threaded runtime over the scalability
//! workloads with the per-PE scheduler state clock recording, then
//! feeds the emitted `sched_*` instants straight into the `dgr-trace`
//! blame analyzer and prints, per (workload, PEs) cell, where the
//! non-working PE-time went: steal overhead, mailbox delay, parking,
//! true span limit, or load imbalance.
//!
//! The span estimate piggybacks on the simulator's round-synchronous
//! (BSP) policy, `SchedPolicy::Rounds`: with `W` the serial round count
//! (one task per round on one PE, so the 1-PE pass's message count) and
//! `R_P` the round count at `P` PEs, the workload's inherent span is
//! approximated as `serial_wall * R_P / W` and injected into the event
//! stream as a `bsp_span_us` instant, which `blame` uses when no flow
//! edges exist (the steal runtime does not flow-stamp its envelopes).
//!
//! Every measured rep gets a **fresh registry**: the state clock
//! accumulates across passes, and blame wants pass-exact clocks.
//!
//! Under a telemetry build each cell carries `utilization_pct` and
//! writes a `BENCH_utilization_events_<cell>.jsonl` stream that
//! `dgr-trace blame` reads back. `--small` shrinks the workloads for
//! CI's `ledger-smoke` job.

use dgr_bench::{record, timed, Report};
use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared_observed, ThreadedMarkStats};
use dgr_graph::{GraphStore, PartitionStrategy};
use dgr_sim::{SchedPolicy, SharedGraph};
use dgr_telemetry::{events_jsonl, Event, EventKind, Phase, Registry, TELEMETRY_ENABLED};
use dgr_trace::{attribution, blame, blame_text, parse_events};
use dgr_workloads::graphs::{binary_tree_dfs, random_digraph};

/// Repetitions per cell; the rep with the minimum wall time is kept,
/// and its event stream (not a mixture) is what blame analyzes.
const REPS: usize = 2;

/// One measured cell: best-of-REPS wall time, run stats, and the best
/// rep's drained event stream.
struct Cell {
    wall_ms: f64,
    stats: ThreadedMarkStats,
    events_jsonl: String,
}

/// Measures one (workload, PEs) cell with a fresh registry per rep.
fn measure(shared: &SharedGraph, pes: u16) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..REPS {
        reset_shared_r(shared);
        let telem = Registry::new(pes);
        let hb = dgr_telemetry::HeartbeatHandle::new();
        let (stats, ms) =
            timed(|| run_mark1_shared_observed(shared, pes, PartitionStrategy::Block, &telem, &hb));
        if best.as_ref().is_none_or(|b| ms < b.wall_ms) {
            best = Some(Cell {
                wall_ms: ms,
                stats,
                events_jsonl: events_jsonl(&telem.drain_events()),
            });
        }
    }
    best.expect("REPS >= 1")
}

fn main() {
    let mut report = Report::new("utilization", &["--small"], &[]);
    let small = report.has("--small");
    if !TELEMETRY_ENABLED {
        println!(
            "note: built without the `telemetry` feature — state clocks are \
             zero-sized no-ops, so utilization and blame are absent; wall \
             times and message counts are reported"
        );
    }

    // (name, vertices, store) — the scalability families, headline cells
    // tree_d16 @ 16 PEs and digraph_1m @ 4 PEs in full mode.
    let workloads: Vec<(&str, u64, GraphStore)> = if small {
        vec![
            ("tree_d14", 32767, binary_tree_dfs(14)),
            ("digraph_200k", 200_000, random_digraph(200_000, 3.0, 17)),
        ]
    } else {
        vec![
            ("tree_d16", 131_071, binary_tree_dfs(16)),
            ("digraph_1m", 1_000_000, random_digraph(1_000_000, 3.0, 17)),
        ]
    };
    let pe_list: &[u16] = if small { &[1, 4] } else { &[1, 4, 16] };

    for (name, vertices, store) in workloads {
        // Round counts feed the span estimate; run_mark1 resets the R
        // slot itself, so one mutable store serves every PE count.
        let mut rounds_store = store.clone();
        let shared = SharedGraph::from_store(store);
        let mut rows = Vec::new();
        let (mut serial_wall_us, mut serial_rounds) = (0.0f64, 0u64);
        for &pes in pe_list {
            let cell = measure(&shared, pes);
            let wall_us = cell.wall_ms * 1e3;
            if pes == 1 {
                serial_wall_us = wall_us;
                serial_rounds = cell.stats.messages;
            }
            let mut rec = record! {
                "benchmark" => format!("utilization_{name}"),
                "vertices" => vertices,
                "pes" => pes,
                "messages" => cell.stats.messages,
                "steals" => cell.stats.steals,
                "parks" => cell.stats.parks,
                "wall_us" => wall_us,
                "speedup" => serial_wall_us / wall_us.max(1e-9),
            };
            if !TELEMETRY_ENABLED {
                rows.push(rec);
                continue;
            }
            // Inherent-span estimate: serial wall scaled by the ideal
            // parallel-time fraction the rounds measure, carried in the
            // stream as the instant `dgr-trace blame` reads.
            let mut stream = cell.events_jsonl;
            if pes > 1 {
                let cfg = MarkRunConfig {
                    num_pes: pes,
                    policy: SchedPolicy::Rounds,
                    partition: PartitionStrategy::Block,
                    ..Default::default()
                };
                let rounds = run_mark1(&mut rounds_store, &cfg).rounds;
                let est = (serial_wall_us * rounds as f64 / serial_rounds as f64) as u64;
                stream.push_str(&events_jsonl(&[Event {
                    ts_us: 0,
                    pe: 0,
                    cycle: 0,
                    phase: Phase::Mr,
                    kind: EventKind::Instant,
                    name: "bsp_span_us",
                    value: est,
                    lamport: 0,
                }]));
                rec.extend(record! { "span_est_us" => est });
            }
            let cell_key = format!("{name}_p{pes}");
            report.side_file(
                &format!("BENCH_utilization_events_{cell_key}.jsonl"),
                &stream,
            );
            let blamed = blame(&parse_events(&stream));
            let attr = attribution(&blamed);
            if pes > 1 {
                println!("\n-- {cell_key} --");
                print!("{}", blame_text(&blamed));
            }
            rec.extend(record! { "utilization_pct" => attr.work * 100.0 });
            if blamed.pes.len() == pes as usize {
                // The exact-sum invariant of the state clock: every
                // PE's wall-clock is fully charged to some state.
                assert!(
                    attr.min_accounted >= 0.95,
                    "{cell_key}: state clock accounts for only {:.1}% of \
                     the worst PE's wall-clock",
                    attr.min_accounted * 100.0
                );
            }
            rows.push(rec);
        }
        report.table(
            &format!(
                "T9: per-PE utilization, {name} + block partition \
                 ({vertices} vertices, best of {REPS})"
            ),
            rows,
        );
    }

    report.finish();
}
