//! Experiment T10: GC lifecycle observatory — reclamation latency,
//! floating-garbage census, and message-complexity accounting.
//!
//! Every collector in the repo drives the **same** `LifecycleTracker`
//! meters (census → reclaim → message meter per cycle), so their
//! latency and float histograms are directly comparable:
//!
//! * `gcdriver` — the concurrent collector over a reduction program
//!   (its natural workload); the one backend whose census can see a
//!   vertex float across cycles, and the one that emits the `lc_*`
//!   instants `dgr-trace lifecycle` folds back into this table.
//! * `rc` — reference counting over a churn trace: reclaims at latency
//!   zero, but every cyclic cluster it strands is censused as
//!   *permanent* float (the T2 deficiency, now measured in the same
//!   units as everything else).
//! * `stw` — stop-the-world over mutating tree/digraph stores: exact
//!   and float-free by construction (census and reclaim are the same
//!   traversal), at the price T1 measures.
//! * `noncoop` — the decentralized marking pass without mutator
//!   cooperation, metered against the paper's Section 4 bound of
//!   `2 × marked` messages.
//!
//! Under a telemetry build the report hard-asserts that ≥ 95 % of all
//! reclaimed vertices carry an **exact** latency stamp — the census
//! taps the very garbage sets the collectors compute, so a drop below
//! that means a backend reclaimed vertices its census never saw.
//!
//! Each (backend, workload) cell carries `mean_latency_cycles` under a
//! telemetry build, for `dgr-report gate --max mean_latency_cycles=N`; that
//! build also writes `BENCH_gclat_events.jsonl` (the gcdriver cell's
//! event stream) for `dgr-trace lifecycle`. `--small` shrinks the
//! workloads for CI's `ledger-smoke` job.

use crate::{record, timed, Report};
use dgr_baseline::noncoop::mark_under_mutation_observed;
use dgr_baseline::refcount::replay_churn_rc_observed;
use dgr_baseline::stw::collect_stw_observed;
use dgr_gc::{GcConfig, GcDriver};
use dgr_graph::{GraphStore, VertexId};
use dgr_lang::build_with_prelude;
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_telemetry::{
    bucket_label, events_jsonl, LifecycleSnapshot, LifecycleTracker, HIST_BUCKETS,
    TELEMETRY_ENABLED,
};
use dgr_workloads::churn::churn_trace;
use dgr_workloads::graphs::{binary_tree, random_digraph};

/// One measured (backend, workload) cell. All lifecycle numbers come
/// from the same `LifecycleSnapshot` type regardless of backend.
struct Cell {
    /// `<backend>_<workload>`, the benchmark key suffix.
    name: &'static str,
    /// Workload-size parameter (deterministic, feature-independent).
    vertices: u64,
    /// Backend-native message/work count (deterministic, gate-diffable).
    messages: u64,
    wall_ms: f64,
    snap: LifecycleSnapshot,
}

/// Deterministically severs up to `count` outgoing arcs from random
/// live vertices (xorshift64 — the bench crate carries no RNG dep),
/// turning the orphaned substructures into garbage for the next
/// collection to census.
fn sever_arcs(g: &mut GraphStore, rng: &mut u64, count: usize) {
    let ids: Vec<VertexId> = g.live_ids().collect();
    if ids.is_empty() {
        return;
    }
    for _ in 0..count {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let v = ids[(*rng as usize) % ids.len()];
        let Some(&t) = g.vertex(v).args().first() else {
            continue;
        };
        g.disconnect(v, t);
    }
}

/// The concurrent collector over a reduction program. Returns the cell
/// and the drained event stream carrying the per-cycle `lc_*` instants.
fn run_gcdriver(n: i64) -> (Cell, String) {
    let src = format!("sum (map (\\x -> x * x) (range 1 {n}))");
    let sys = build_with_prelude(&src, SystemConfig::default()).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 300,
            mt_every: 4,
            ..Default::default()
        },
    );
    // Drain the event ring at every window end: the ring is
    // overwrite-oldest, and a full run's reduction spans would evict the
    // early cycles' `lc_*` instants before a single end-of-run drain
    // could see them.
    let mut events = String::new();
    let (out, wall_ms) = timed(|| {
        gc.sys.demand_root();
        gc.run_more_with(|gc| {
            events.push_str(&events_jsonl(&gc.sys.telemetry().drain_events()));
        })
    });
    assert!(
        matches!(out, RunOutcome::Value(_)),
        "the reduction reached a value: {out:?}"
    );
    events.push_str(&events_jsonl(&gc.sys.telemetry().drain_events()));
    (
        Cell {
            name: "gcdriver_sum",
            vertices: u64::try_from(n).expect("n > 0"),
            messages: gc.stats().mark_events_total,
            wall_ms,
            snap: gc.lifecycle_snapshot(),
        },
        events,
    )
}

/// Reference counting over a churn trace (brackets its own cycles:
/// one churn op = one cycle).
fn run_rc(steps: usize) -> Cell {
    let trace = churn_trace(steps, 3, 0.3, 0.6, 11);
    let mut lc = LifecycleTracker::new();
    let (r, wall_ms) = timed(|| replay_churn_rc_observed(&trace, &mut lc));
    Cell {
        name: "rc_churn",
        vertices: u64::try_from(steps).expect("steps fit"),
        messages: r.count_messages,
        wall_ms,
        snap: lc.snapshot(),
    }
}

/// A collector over a mutating store, `cycles` times: each cycle first
/// severs `sever` arcs (`rng` seeds the choice), then `collect` censuses
/// and reclaims the resulting garbage and returns its work count. The
/// caller owns the cycle bracket, so all collections share one ledger.
fn run_cycles(
    name: &'static str,
    mut g: GraphStore,
    vertices: u64,
    cycles: u64,
    (mut rng, sever): (u64, usize),
    mut collect: impl FnMut(&mut GraphStore, &mut LifecycleTracker, u64) -> u64,
) -> Cell {
    let mut lc = LifecycleTracker::new();
    let mut messages = 0u64;
    let (_, wall_ms) = timed(|| {
        for c in 0..cycles {
            sever_arcs(&mut g, &mut rng, sever);
            lc.begin_cycle(c);
            messages += collect(&mut g, &mut lc, c);
            lc.end_cycle();
        }
    });
    Cell {
        name,
        vertices,
        messages,
        wall_ms,
        snap: lc.snapshot(),
    }
}

/// One-line rendering of a power-of-two histogram: only the occupied
/// buckets, labeled by their cycle range.
fn hist_line(buckets: &[u64; HIST_BUCKETS]) -> String {
    let parts: Vec<String> = (0..HIST_BUCKETS)
        .filter(|&i| buckets[i] > 0)
        .map(|i| format!("[{}]={}", bucket_label(i), buckets[i]))
        .collect();
    if parts.is_empty() {
        "(empty)".to_string()
    } else {
        parts.join("  ")
    }
}

pub(crate) fn run(report: &mut Report) {
    let small = report.has("--small");
    let (sum_n, churn_steps, tree_depth, digraph_n, cycles) = if small {
        (150i64, 400usize, 8usize, 2_000usize, 8u64)
    } else {
        (400, 2_000, 12, 20_000, 12)
    };

    let (gc_cell, gc_events) = run_gcdriver(sum_n);
    if TELEMETRY_ENABLED {
        report.side_file("BENCH_gclat_events.jsonl", &gc_events);
    }
    // Stop-the-world counts the vertices it traced. The non-cooperating
    // pass counts its marking events; a tree's internal move-mutations
    // orphan nothing on their own, hence the severed arcs.
    let stw = |g: &mut GraphStore, lc: &mut LifecycleTracker, _| {
        collect_stw_observed(g, lc).traced as u64
    };
    let noncoop = |g: &mut GraphStore, lc: &mut LifecycleTracker, c| {
        mark_under_mutation_observed(g, false, 16, 5 + c, lc).mark_events
    };
    let (stw_rng, noncoop_rng) = (0x9e3779b97f4a7c15u64, 0x2545f4914f6cdd1du64);
    let tree_vertices = (1u64 << (tree_depth + 1)) - 1;
    let digraph = || random_digraph(digraph_n, 2.5, 7);
    let cells = [
        gc_cell,
        run_rc(churn_steps),
        run_cycles(
            "stw_tree",
            binary_tree(tree_depth),
            tree_vertices,
            cycles,
            (stw_rng, 8),
            stw,
        ),
        run_cycles(
            "stw_digraph",
            digraph(),
            digraph_n as u64,
            cycles,
            (stw_rng, 16),
            stw,
        ),
        run_cycles(
            "noncoop_tree",
            binary_tree(tree_depth),
            tree_vertices,
            cycles.min(8),
            (noncoop_rng, 8),
            noncoop,
        ),
        run_cycles(
            "noncoop_digraph",
            digraph(),
            digraph_n as u64,
            cycles.min(8),
            (noncoop_rng, 8),
            noncoop,
        ),
    ];

    let mut rows = Vec::new();
    for cell in &cells {
        let s = &cell.snap;
        let mut rec = record! {
            "benchmark" => format!("gclat_{}", cell.name),
            "vertices" => cell.vertices,
            "pes" => 1u64,
            "messages" => cell.messages,
            "wall_us" => cell.wall_ms * 1e3,
        };
        if TELEMETRY_ENABLED {
            // The exactness contract: the census taps the very garbage
            // set each backend computes, so (nearly) every reclaim
            // carries a stamp. A miss means a backend freed vertices
            // its census never saw.
            if s.reclaimed > 0 {
                assert!(
                    s.exact_fraction() >= 0.95,
                    "{}: only {:.1}% of {} reclaimed vertices carry an exact \
                     latency stamp",
                    cell.name,
                    s.exact_fraction() * 100.0,
                    s.reclaimed
                );
            }
            rec.extend(record! {
                "cycles" => s.cycles,
                "reclaimed" => s.reclaimed,
                "exact_pct" => s.exact_fraction() * 100.0,
                "mean_latency_cycles" => s.mean_latency(),
                "p99_latency_cycles" => s.latency_quantile(0.99),
                "float_now" => s.float_now,
                "msgs_per_reclaimed_mr" => s.msgs_per_reclaimed().1,
                "efficiency" => s.efficiency(),
            });
        }
        rows.push(rec);
    }
    let size = if small { "small" } else { "full" };
    report.table(
        &format!("T10: reclamation latency / float / message cost per backend ({size} workloads)"),
        rows,
    );

    if TELEMETRY_ENABLED {
        let rows = (cells.iter())
            .map(|cell| {
                record! {
                    "cell" => cell.name,
                    "latency_cycles" => hist_line(&cell.snap.latency),
                    "float_age_cycles" => hist_line(&cell.snap.float_age),
                }
            })
            .collect();
        report.table("T10 histograms (occupied buckets only)", rows);
        println!(
            "\nfold the gcdriver cell's events back with: \
             dgr-trace lifecycle BENCH_gclat_events.jsonl"
        );
    }
}
