//! Experiment T5: marking scalability across processing elements.
//!
//! Parallel time is measured two ways. Round-synchronously (BSP, the
//! simulator's `SchedPolicy::Rounds`): in each round every PE executes
//! one pending marking task, so the number of rounds is the pass's ideal
//! parallel time with that many PEs. And in wall time on the
//! work-stealing threaded runtime, where the derived `speedup` column is
//! `wall[1 PE] / wall[N PEs]`. Wall-clock speedup
//! needs real hardware threads; where every PE count time-slices one
//! core the report asserts only a loose "monotone-ish" profile (no
//! anti-scaling collapse), and where the host runs two threads at once —
//! measured around each workload, see [`delivered_parallelism`] — it
//! also asserts that multi-PE never loses to serial. Timed throughput at
//! 1 and 2 PEs is gated by `benchmark/` (`mark_tree`, `mark_digraph`).
//!
//! `--small` runs a reduced T5c only (one tree + the digraph, PEs
//! 1/2/4/16) for the CI scalability smoke job.

use crate::{record, timed, Report};
use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared};
use dgr_graph::PartitionStrategy;
use dgr_sim::{SchedPolicy, SharedGraph};
use dgr_workloads::graphs::{binary_tree_dfs, random_digraph};
use std::time::{Duration, Instant};

/// Repetitions per (workload, PEs) cell; the minimum wall time is kept.
/// Five is enough to shed the scheduling outliers of a shared runner;
/// the digraph passes bound the cost at a few seconds.
const REPS: usize = 5;

/// Threads the host runs at once right now, measured: `reported` threads
/// each count loop iterations through one wall-clock window, and the
/// total is divided by what one thread counts alone.
/// `available_parallelism` is a promise — the pipeline's 2-vCPU guest at
/// times keeps every thread of a process on one vCPU for minutes, reads
/// 1.0 here, and nothing beats serial on it then.
fn delivered_parallelism(reported: usize) -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < Duration::from_millis(20) {
            n += 1;
        }
        n
    };
    let solo = spin();
    let together: u64 = std::thread::scope(|s| {
        let spinners: Vec<_> = (0..reported).map(|_| s.spawn(spin)).collect();
        spinners
            .into_iter()
            .map(|t| t.join().expect("spinner panicked"))
            .sum()
    });
    together as f64 / solo as f64
}

/// Asserts the wall-time profile of one workload is monotone-ish.
/// `para` is the number of hardware threads the host reports if it ran
/// at least two threads at once around this workload's cells, else 1.
///
/// * **Gate** (`para > 1`) — multi-PE never loses to serial: the *best*
///   point among PE counts the host has hardware threads for must reach
///   `gate` x serial throughput — 1.2 on the DFS trees (block placement,
///   near-zero envelopes: nothing but the runtime to lose time to), 1.0
///   on the random digraph, where half the tasks cross PEs and the
///   mark-word lines are shared. The best point, not the last: 2x swings
///   of a single point are routine on shared runners.
/// * **Floor** (`para == 1`) — every PE count time-slices one core and
///   pays the envelope tax with no parallel payback, so the best point
///   over all PE counts must only keep `floor` of serial throughput:
///   that rules out collapse, nothing more.
/// * **Decay** (`para > 1`) — the speedup at N PEs must not fall below
///   `decay` x the best at any smaller multi-PE count: the anti-scaling
///   shape the old one-channel-per-PE runtime had on tree_d15 past 4
///   PEs. Time-slicing one core every point is noise around 1.0.
fn assert_monotone_ish(
    name: &str,
    profile: &[(u16, f64)],
    (floor, gate, decay): (f64, f64, f64),
    para: usize,
) {
    let base = profile[0].1;
    let (mut best, mut best_on_hw) = (f64::MIN, f64::MIN);
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
        if usize::from(pes) <= para {
            best_on_hw = best_on_hw.max(s);
        }
    }
    let (got, need) = if para > 1 {
        (best_on_hw, gate)
    } else {
        (best, floor)
    };
    assert!(
        got >= need,
        "{name}: best multi-PE speedup with {para} thread(s) running at once \
         is {got:.2}, below {need}"
    );
}

pub(crate) fn run(report: &mut Report) {
    let small = report.has("--small");

    if !small {
        // T5a: ideal parallel time (rounds) vs PEs.
        let rounds = |num_pes| MarkRunConfig {
            num_pes,
            policy: SchedPolicy::Rounds,
            ..Default::default()
        };
        let mut rows = Vec::new();
        let mut base_rounds = 0u64;
        for &pes in &[1u16, 2, 4, 8, 16, 32, 64] {
            let mut g = binary_tree_dfs(15); // 65k vertices
            let stats = run_mark1(&mut g, &rounds(pes));
            if pes == 1 {
                base_rounds = stats.rounds;
            }
            rows.push(record! {
                "pes" => pes,
                "tasks" => stats.events,
                "rounds" => stats.rounds,
                "speedup" => base_rounds as f64 / stats.rounds as f64,
            });
        }
        report.table(
            "T5a: round-synchronous marking, binary tree depth 15 (65k vertices); \
             rounds = parallel time",
            rows,
        );

        // T5b: the chain is the worst case — no parallelism to extract.
        let mut rows = Vec::new();
        for &pes in &[1u16, 8, 64] {
            let mut g = dgr_workloads::graphs::chain(8192);
            let stats = run_mark1(&mut g, &rounds(pes));
            rows.push(record! { "pes" => pes, "tasks" => stats.events, "rounds" => stats.rounds });
        }
        report.table(
            "T5b: round-synchronous marking, chain of 8192 (the marking tree is a path)",
            rows,
        );
    }

    // T5c: the work-stealing threaded runtime — wall time, derived
    // speedup, and cross-PE envelope counts under block placement. The
    // timed region is the marking pass alone: the shared graph is built
    // once and epoch-reset per run. Envelope counts stay the
    // hardware-independent signal; wall speedup is meaningful only up to
    // the parallelism the host delivers (printed in the table title).
    // `settled` counts the duplicate visits claim winners settled in
    // place of two tasks: it varies with the schedule and is not gated.
    // `leaves` counts the leaves they marked in place: one per reachable
    // leaf below the root on every schedule, and gated. A tree row also
    // gates `executed`: no vertex has two parents, so nothing settles
    // and `executed = messages / 2 - leaves` on every schedule; on the
    // digraph it moves with `settled` and is left out.
    // Each entry: (name, vertices, graph, (floor, gate, decay)) — see
    // `assert_monotone_ish`. The trees' decay leaves room for what a
    // 16-PE pass costs before any task runs (1.3 ms on the 2-vCPU
    // pipeline host, 1.0 ms of it filling 256 mailbox rings) beside a
    // tree_d15 pass of 2 ms: its 16-PE point sits at 0.5 of the 2-PE one
    // there. Small mode takes workloads whose 2-PE gain stands clear of a
    // shared runner's noise (digraph_200k's 1.0-1.3x does not).
    type Thresholds = (f64, f64, f64);
    let digraph_1m = || random_digraph(1_000_000, 3.0, 17);
    let workloads: Vec<(&str, u64, dgr_graph::GraphStore, Thresholds)> = if small {
        vec![
            ("tree_d18", 524_287, binary_tree_dfs(18), (0.40, 1.2, 0.4)),
            ("digraph_1m", 1_000_000, digraph_1m(), (0.30, 1.0, 0.4)),
        ]
    } else {
        vec![
            ("tree_d15", 65535, binary_tree_dfs(15), (0.70, 1.2, 0.35)),
            ("tree_d16", 131071, binary_tree_dfs(16), (0.70, 1.2, 0.35)),
            ("digraph_1m", 1_000_000, digraph_1m(), (0.30, 1.0, 0.4)),
        ]
    };
    // 2 PEs in both lists: every host with real parallelism has a point
    // the gate applies to.
    let pe_list: &[u16] = if small {
        &[1, 2, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let reported = std::thread::available_parallelism().map_or(1, |n| n.get());

    for (name, vertices, store, thresholds) in workloads {
        let mut rows = Vec::new();
        let mut profile: Vec<(u16, f64)> = Vec::new();
        let shared = SharedGraph::from_store(store);
        let mut delivered = delivered_parallelism(reported);
        // Rounds outside, PE counts inside: a noisy spell of the host
        // cannot take all of one cell's tries and none of another's.
        let mut cells = vec![(f64::INFINITY, None); pe_list.len()];
        for _ in 0..REPS {
            for (cell, &pes) in cells.iter_mut().zip(pe_list) {
                reset_shared_r(&shared);
                let (stats, ms) =
                    timed(|| run_mark1_shared(&shared, pes, PartitionStrategy::Block));
                if ms < cell.0 {
                    *cell = (ms, Some(stats));
                }
            }
        }
        for (&pes, (best_ms, stats)) in pe_list.iter().zip(cells) {
            let stats = stats.expect("REPS >= 1");
            let speedup = profile.first().map_or(1.0, |&(_, base)| base / best_ms);
            profile.push((pes, best_ms));
            let mut row = record! {
                "benchmark" => format!("threaded_mark1_{name}"),
                "vertices" => vertices,
                "pes" => pes,
                "messages" => stats.messages,
                "wall_us" => best_ms * 1e3,
                "envelopes" => stats.envelopes,
                "settled" => stats.settled,
                "leaves" => stats.leaves,
                "speedup" => speedup,
            };
            if name.starts_with("tree") {
                row.push(("executed", stats.executed.into()));
            }
            rows.push(row);
        }
        // Both before and after the cells, for the gate to apply.
        delivered = delivered.min(delivered_parallelism(reported));
        report.table(
            &format!(
                "T5c: work-stealing runtime, {name} + block partition \
                 ({vertices} vertices, best of {REPS}, {reported} hardware threads \
                 reported, {delivered:.1} delivered)"
            ),
            rows,
        );
        let para = if delivered >= 1.5 { reported } else { 1 };
        assert_monotone_ish(name, &profile, thresholds, para);
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
                rows.push(record! {
                    "pes" => pes,
                    "partition" => name,
                    "events" => stats.events,
                    "remote" => stats.remote_messages,
                    "remote_pct" => stats.remote_messages as f64 / stats.events.max(1) as f64 * 100.0,
                });
            }
        }
        report.table(
            "T5d: cross-partition marking traffic (random digraph 50k, degree 3)",
            rows,
        );
        println!(
            "\nShape check: parallel time falls near-linearly with PEs on the tree \
             and not at all on the chain (the marking wavefront is the available \
             parallelism); locality-aware placement (DFS + block) needs orders of \
             magnitude fewer cross-PE messages than hashed placement."
        );
    }
}
