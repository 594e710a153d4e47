//! Experiment T11: heap pressure observatory — the coupling curve
//! between the GC trigger's byte bound and the heap's waterline.
//!
//! Two workload families run under a pure-pressure trigger
//! (`GcTrigger::Either` with the period effectively disabled), sweeping
//! the byte bound tight → loose:
//!
//! * `sumsq` — `sum (map (\x -> x * x) (range 1 n))`: steady list
//!   production and consumption, the repo's standard reduction workload.
//! * `churn` — `sum (map (\x -> sum (range 1 x)) (range 1 m))`: each
//!   element builds and exhausts its own list, so allocation churns far
//!   past the working set.
//!
//! Each family first runs **uncollected** to measure its natural peak
//! live bytes (the graph's always-on byte clock — feature-independent
//! and deterministic); the sweep bounds interpolate between the built
//! graph's live bytes and that peak, with a final bound far above it as
//! the no-pressure anchor. The coupling contract, hard-asserted: on
//! both families tightening the bound monotonically increases the
//! marking-cycle count and (under a telemetry build, where the tracker
//! records exact waterlines) the tightest bound holds a strictly lower
//! peak than the no-pressure anchor; on the `churn` family the peak is
//! additionally monotone in the bound. (`sumsq` is exempt from the
//! per-step monotonicity because reclamation lag — floating garbage
//! survives into the next cycle — puts a floor under its waterline
//! that the two tightest bounds both sit on.)
//!
//! Under a telemetry build the report also hard-asserts that ≥ 95 % of
//! all reclaimed **bytes** carry an exact allocation stamp — the
//! tracker stamps at allocation via the graph's journal, so a drop
//! means bytes were freed that no stamp ever covered.
//!
//! Each (family, bound) cell carries `peak_live_bytes` under a telemetry
//! build, for `dgr-report gate --max peak_live_bytes=N`; that build also
//! writes `BENCH_heap_events.jsonl` (the tightest `sumsq` cell's event
//! stream) for `dgr-trace heap`. `--small` shrinks the workloads for
//! CI's `ledger-smoke` job.

use crate::{record, timed, Report};
use dgr_gc::{GcConfig, GcDriver, GcTrigger};
use dgr_lang::build_with_prelude;
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_telemetry::{events_jsonl, HeapSnapshot, TELEMETRY_ENABLED};

/// The period used while pressure drives the sweep: high enough that the
/// byte bound decides every cycle, low enough to bound a cell where the
/// collector cannot get back under its bound.
const SWEEP_PERIOD: u64 = 1 << 40;

/// One measured (family, bound) cell.
struct Cell {
    family: &'static str,
    bound: u64,
    vertices: u64,
    /// Total deliveries (deterministic, gate-diffable).
    messages: u64,
    wall_ms: f64,
    cycles: u64,
    /// The graph clock's maximum over the cycle boundaries; the
    /// tracker's exact waterline is `snap.peak`.
    sampled_peak: u64,
    live_end: u64,
    snap: HeapSnapshot,
}

/// Runs a family's program uncollected, sampling the graph's byte clock
/// every step: returns `(built live bytes, peak live bytes)` — both
/// deterministic and feature-independent.
fn probe(src: &str) -> (u64, u64) {
    let mut sys = build_with_prelude(src, SystemConfig::default()).unwrap();
    let live0 = sys.graph.live_bytes();
    let mut peak = live0;
    sys.demand_root();
    while sys.result.is_none() && sys.step() {
        peak = peak.max(sys.graph.live_bytes());
    }
    assert!(sys.result.is_some(), "probe reached a value");
    (live0, peak)
}

/// Runs one sweep cell, sampling the graph clock at every window end and,
/// when `drain` is set, draining the event ring there too — the ring is
/// overwrite-oldest, and a full run's reduction spans would evict the
/// early cycles' `hp_*` instants before an end-of-run drain saw them.
fn run_cell(
    family: &'static str,
    src: &str,
    vertices: u64,
    bound: u64,
    drain: bool,
) -> (Cell, String) {
    let sys = build_with_prelude(src, SystemConfig::default()).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: SWEEP_PERIOD,
            trigger: GcTrigger::Either(bound),
            mt_every: 4,
            ..Default::default()
        },
    );
    let mut events = String::new();
    let mut sampled_peak = gc.sys.graph.live_bytes();
    let (out, wall_ms) = timed(|| {
        gc.sys.demand_root();
        gc.run_more_with(|gc| {
            sampled_peak = sampled_peak.max(gc.sys.graph.live_bytes());
            if drain {
                events.push_str(&events_jsonl(&gc.sys.telemetry().drain_events()));
            }
        })
    });
    assert!(
        matches!(out, RunOutcome::Value(_)),
        "{family}: reduction reached a value: {out:?}"
    );
    if drain {
        events.push_str(&events_jsonl(&gc.sys.telemetry().drain_events()));
    }
    (
        Cell {
            family,
            bound,
            vertices,
            messages: gc.sys.events(),
            wall_ms,
            cycles: u64::from(gc.stats().cycles),
            sampled_peak,
            live_end: gc.sys.graph.live_bytes(),
            snap: gc.sys.heap_snapshot(),
        },
        events,
    )
}

/// The sweep bounds for one family, tight → loose: three waypoints
/// interpolated between the built graph's live bytes and the
/// uncollected peak, plus a no-pressure anchor far above the peak.
fn sweep_bounds(live0: u64, peak: u64) -> [u64; 4] {
    let span = peak.saturating_sub(live0).max(4);
    [
        live0 + span / 4,
        live0 + span / 2,
        live0 + span * 3 / 4,
        peak * 2,
    ]
}

pub(crate) fn run(report: &mut Report) {
    let small = report.has("--small");
    let (sum_n, churn_m) = if small { (120i64, 14i64) } else { (300, 30) };
    let sumsq_src = format!("sum (map (\\x -> x * x) (range 1 {sum_n}))");
    let churn_src = format!("sum (map (\\x -> sum (range 1 x)) (range 1 {churn_m}))");
    let families: [(&'static str, &str, u64); 2] = [
        ("sumsq", &sumsq_src, sum_n as u64),
        ("churn", &churn_src, churn_m as u64),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (family, src, vertices) in families {
        let (live0, probe_peak) = probe(src);
        for (i, bound) in sweep_bounds(live0, probe_peak).into_iter().enumerate() {
            // The tightest sumsq cell is the representative event stream
            // for the dgr-trace heap round trip.
            let drain = TELEMETRY_ENABLED && family == "sumsq" && i == 0;
            let (cell, events) = run_cell(family, src, vertices, bound, drain);
            if drain {
                report.side_file("BENCH_heap_events.jsonl", &events);
            }
            cells.push(cell);
        }
    }

    let mut rows = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let s = &cell.snap;
        let mut rec = record! {
            "benchmark" => format!("heap_{}_b{}", cell.family, i % 4),
            "vertices" => cell.vertices,
            "pes" => 1u64,
            "messages" => cell.messages,
            "wall_us" => cell.wall_ms * 1e3,
            "bound_bytes" => cell.bound,
            "cycles" => cell.cycles,
            "sampled_peak_bytes" => cell.sampled_peak,
            "live_end_bytes" => cell.live_end,
        };
        if TELEMETRY_ENABLED {
            // The exactness contract: every byte the tracker frees was
            // stamped when the graph journaled its allocation, so
            // (nearly) all reclaimed bytes carry an exact stamp.
            if s.freed_bytes > 0 {
                assert!(
                    s.exact_fraction() >= 0.95,
                    "{} bound {}: only {:.1}% of {} freed bytes carry an \
                     exact allocation stamp",
                    cell.family,
                    cell.bound,
                    s.exact_fraction() * 100.0,
                    s.freed_bytes
                );
            }
            rec.extend(record! {
                "peak_live_bytes" => s.peak,
                "alloc_bytes" => s.alloc_bytes,
                "exact_pct" => s.exact_fraction() * 100.0,
                "trigger_heap" => s.trigger_heap,
                "trigger_period" => s.trigger_period,
            });
        }
        rows.push(rec);
    }
    let size = if small { "small" } else { "full" };
    report.table(
        &format!("T11: pressure-coupled GC — byte bound vs cycles and peak ({size} workloads)"),
        rows,
    );

    // The coupling contract, per family (4 cells each, tight → loose):
    // more pressure means more cycles, and pressure lowers the
    // waterline below the no-pressure anchor. On churn the waterline is
    // additionally monotone in the bound; sumsq's two tightest bounds
    // share a reclamation-lag floor, so it is held only to the
    // tight-vs-anchor drop. The waterline is the tracker's, so those
    // two hold under a telemetry build.
    for fam in cells.chunks(4) {
        let name = fam[0].family;
        for w in fam.windows(2) {
            assert!(
                w[0].cycles >= w[1].cycles,
                "{name}: tightening the bound must not reduce the cycle \
                 count: bound {} ran {} cycles, bound {} ran {}",
                w[0].bound,
                w[0].cycles,
                w[1].bound,
                w[1].cycles
            );
        }
        assert!(
            fam[0].cycles > fam[3].cycles,
            "{name}: the tightest bound must out-cycle the no-pressure \
             anchor ({} vs {})",
            fam[0].cycles,
            fam[3].cycles
        );
        if TELEMETRY_ENABLED {
            assert!(
                fam[0].snap.peak < fam[3].snap.peak,
                "{name}: the tightest bound must hold a lower waterline \
                 than the no-pressure anchor ({} vs {})",
                fam[0].snap.peak,
                fam[3].snap.peak
            );
            if name == "churn" {
                for w in fam.windows(2) {
                    assert!(
                        w[0].snap.peak <= w[1].snap.peak,
                        "churn: tightening the bound must not raise the \
                         waterline: bound {} peaked at {}, bound {} at {}",
                        w[0].bound,
                        w[0].snap.peak,
                        w[1].bound,
                        w[1].snap.peak
                    );
                }
            }
            println!(
                "\ncoupling holds on {name}: {} cycles at bound {} \
                 (peak {}) vs {} cycles unpressured (peak {})",
                fam[0].cycles, fam[0].bound, fam[0].snap.peak, fam[3].cycles, fam[3].snap.peak
            );
        }
    }
    if TELEMETRY_ENABLED {
        println!(
            "\nfold the tightest sumsq cell's events back with: \
             dgr-trace heap BENCH_heap_events.jsonl"
        );
    }
}
