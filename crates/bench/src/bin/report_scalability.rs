//! Experiment T5: marking scalability across processing elements.
//!
//! Parallel time is measured two ways. Round-synchronously (BSP): in each
//! round every PE executes one pending marking task, so the number of
//! rounds is the pass's ideal parallel time with that many PEs. And in
//! wall time on the work-stealing threaded runtime, where the derived
//! `speedup` column is `wall[1 PE] / wall[N PEs]`. Wall-clock speedup
//! needs real hardware threads; on a single-core CI container every PE
//! count time-slices one core, so the report asserts only a loose
//! "monotone-ish" profile (no anti-scaling collapse). Timed throughput
//! at 1 and 2 PEs is gated by `benchmark/` (`mark_tree`, `mark_digraph`).
//!
//! `--small` runs a reduced T5c only (small tree + small digraph, PEs
//! 1/4/16) for the CI scalability smoke job; `--json` writes
//! `BENCH_scalability.json` either way.

use dgr_bench::{emit_json, f2, print_table, timed, JsonValue};
use dgr_core::driver::{run_mark1, run_mark1_bsp, MarkRunConfig};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared};
use dgr_graph::PartitionStrategy;
use dgr_sim::SharedGraph;
use dgr_workloads::graphs::{binary_tree_dfs, random_digraph};

/// Repetitions per (workload, PEs) cell; the minimum wall time is kept.
/// Two is enough to shed the worst scheduling outliers on shared runners
/// without doubling the report's runtime budget.
const REPS: usize = 2;

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Asserts the wall-time profile of one workload is monotone-ish.
///
/// Two guards, separating two failure modes:
///
/// * **Floor** (every host) — the *best* multi-PE point must keep at
///   least `floor` of serial throughput. Local workloads (DFS trees
///   under block placement, near-zero envelopes) get a tight floor; the
///   random digraph is communication-bound (~50-95% remote share), pays
///   the full envelope tax with no parallel payback when PEs time-slice
///   one core, and its floor only rules out collapse. Using the best
///   point rather than the last keeps the guard robust to single-point
///   scheduling outliers (2x swings are routine on shared runners).
/// * **Decay** (hosts with real parallelism only) — among the multi-PE
///   points, the speedup at N PEs must never fall more than `1 - decay`
///   below the best at any smaller multi-PE count. This is the
///   anti-scaling guard: it is what the old one-channel-per-PE runtime
///   failed on tree_d15 past 4 PEs. On a single hardware thread every
///   point is noise around 1.0, so per-point comparisons are skipped.
///
/// Thresholds are deliberately loose: they rule out collapse, and a
/// shared runner's clock supports nothing stricter.
fn assert_monotone_ish(name: &str, profile: &[(u16, f64)], floor: f64, decay: f64, para: usize) {
    let base = profile[0].1;
    let mut best = f64::MIN;
    for &(pes, wall) in profile.iter().filter(|&&(pes, _)| pes > 1) {
        let s = base / wall;
        if para > 1 {
            assert!(
                s >= decay * best,
                "{name}: anti-scaling at {pes} PEs: speedup {s:.2} fell below \
                 {decay} x best-so-far ({best:.2})"
            );
        }
        best = best.max(s);
    }
    assert!(
        best >= floor,
        "{name}: best multi-PE speedup is {best:.2}, below the {floor} floor"
    );
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let small = std::env::args().any(|a| a == "--small");
    let mut records = Vec::new();

    if !small {
        // T5a: ideal parallel time (BSP rounds) vs PEs.
        let mut rows = Vec::new();
        let mut base_rounds = 0u64;
        for &pes in &[1u16, 2, 4, 8, 16, 32, 64] {
            let mut g = binary_tree_dfs(15); // 65k vertices
            let stats = run_mark1_bsp(&mut g, pes, PartitionStrategy::Modulo);
            if pes == 1 {
                base_rounds = stats.rounds;
            }
            rows.push(vec![
                pes.to_string(),
                stats.events.to_string(),
                stats.rounds.to_string(),
                f2(base_rounds as f64 / stats.rounds as f64),
            ]);
        }
        print_table(
            "T5a: round-synchronous marking, binary tree depth 15 (65k vertices)",
            &["PEs", "work (tasks)", "parallel time (rounds)", "speedup"],
            &rows,
        );

        // T5b: the chain is the worst case — no parallelism to extract.
        let mut rows = Vec::new();
        for &pes in &[1u16, 8, 64] {
            let mut g = dgr_workloads::graphs::chain(8192);
            let stats = run_mark1_bsp(&mut g, pes, PartitionStrategy::Modulo);
            rows.push(vec![
                pes.to_string(),
                stats.events.to_string(),
                stats.rounds.to_string(),
            ]);
        }
        print_table(
            "T5b: round-synchronous marking, chain of 8192 (the marking tree is a path)",
            &["PEs", "work (tasks)", "parallel time (rounds)"],
            &rows,
        );
    }

    // T5c: the work-stealing threaded runtime — wall time, derived
    // speedup, and cross-PE envelope counts under block placement. The
    // timed region is the marking pass alone: the shared graph is built
    // once and epoch-reset per run. Envelope counts stay the
    // hardware-independent signal; wall speedup is meaningful only up to
    // the host's available parallelism (printed in the table title).
    // Each entry: (name, vertices, graph, floor, decay) — see
    // `assert_monotone_ish` for the threshold semantics. Small mode uses
    // looser floors: its workloads are short enough that thread spawn
    // overhead is a visible fraction of the 16-PE run.
    let workloads: Vec<(&str, u64, dgr_graph::GraphStore, f64, f64)> = if small {
        vec![
            ("tree_d14", 32767, binary_tree_dfs(14), 0.40, 0.6),
            (
                "digraph_200k",
                200_000,
                random_digraph(200_000, 3.0, 17),
                0.25,
                0.4,
            ),
        ]
    } else {
        vec![
            ("tree_d15", 65535, binary_tree_dfs(15), 0.70, 0.8),
            ("tree_d16", 131071, binary_tree_dfs(16), 0.70, 0.8),
            (
                "digraph_1m",
                1_000_000,
                random_digraph(1_000_000, 3.0, 17),
                0.30,
                0.4,
            ),
        ]
    };
    let pe_list: &[u16] = if small {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let para = available_parallelism();

    for (name, vertices, store, floor, decay) in workloads {
        let mut rows = Vec::new();
        let mut profile: Vec<(u16, f64)> = Vec::new();
        let shared = SharedGraph::from_store(store);
        for &pes in pe_list {
            let mut best_ms = f64::INFINITY;
            let mut best_stats = None;
            for _ in 0..REPS {
                reset_shared_r(&shared);
                let (stats, ms) =
                    timed(|| run_mark1_shared(&shared, pes, PartitionStrategy::Block));
                if ms < best_ms {
                    best_ms = ms;
                    best_stats = Some(stats);
                }
            }
            let stats = best_stats.expect("REPS >= 1");
            let speedup = profile.first().map_or(1.0, |&(_, base)| base / best_ms);
            profile.push((pes, best_ms));
            rows.push(vec![
                pes.to_string(),
                stats.messages.to_string(),
                stats.envelopes.to_string(),
                f2(best_ms),
                f2(speedup),
            ]);
            records.push(vec![
                (
                    "benchmark",
                    JsonValue::Str(format!("threaded_mark1_{name}")),
                ),
                ("vertices", JsonValue::Int(vertices)),
                ("pes", JsonValue::Int(pes as u64)),
                ("messages", JsonValue::Int(stats.messages)),
                ("wall_us", JsonValue::Float(best_ms * 1e3)),
            ]);
        }
        print_table(
            &format!(
                "T5c: work-stealing runtime, {name} + block partition \
                 ({vertices} vertices, best of {REPS}, {para} hardware threads)"
            ),
            &["PEs", "tasks", "cross-PE envelopes", "wall ms", "speedup"],
            &rows,
        );
        assert_monotone_ish(name, &profile, floor, decay, para);
    }

    if !small {
        // T5d: cross-partition traffic by placement in the event simulator.
        let mut rows = Vec::new();
        for &pes in &[2u16, 8, 32] {
            for (name, strat) in [
                ("modulo", PartitionStrategy::Modulo),
                ("block", PartitionStrategy::Block),
            ] {
                let mut g = random_digraph(50_000, 3.0, 17);
                let cfg = MarkRunConfig {
                    num_pes: pes,
                    partition: strat,
                    ..Default::default()
                };
                let stats = run_mark1(&mut g, &cfg);
                rows.push(vec![
                    pes.to_string(),
                    name.to_string(),
                    stats.events.to_string(),
                    stats.remote_messages.to_string(),
                    f2(stats.remote_messages as f64 / stats.events.max(1) as f64 * 100.0) + "%",
                ]);
            }
        }
        print_table(
            "T5d: cross-partition marking traffic (random digraph 50k, degree 3)",
            &["PEs", "partition", "events", "remote", "remote share"],
            &rows,
        );
        println!(
            "\nShape check: parallel time falls near-linearly with PEs on the tree \
             and not at all on the chain (the marking wavefront is the available \
             parallelism); locality-aware placement (DFS + block) needs orders of \
             magnitude fewer cross-PE messages than hashed placement."
        );
    }

    emit_json(json, "BENCH_scalability.json", &records);
}
