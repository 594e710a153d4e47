//! Experiment T8: heap behavior over time — the practical payoff of
//! Property 1, now in bytes.
//!
//! The same program runs with and without the collector; we sample the
//! graph's live-byte clock (plus the vertex count and capacity) as
//! reduction proceeds. With collection, the heap stays bounded near the
//! true working set; without it, every exhausted subcomputation stays
//! resident and live bytes grow with total allocation. The byte clock
//! is always on (it feeds the `GcTrigger::HeapBytes` pressure trigger),
//! so the comparison is feature-independent; under a telemetry build
//! the heap tracker's waterline and exact-stamp accounting ride along
//! in the final-heap table.
//!
//! The boundedness contract is hard-asserted: the collected
//! run must end with both a smaller heap capacity and fewer live bytes
//! than the uncollected run.

use dgr_bench::{record, timed, Report};
use dgr_gc::{GcConfig, GcDriver};
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;
use dgr_telemetry::TELEMETRY_ENABLED;

const SRC: &str = "sum (map (\\x -> x * x) (range 1 200))";
const SAMPLE_EVERY: u64 = 2_000;

/// One sampled point: `(events, live vertices, capacity, live bytes)`.
type Sample = (u64, usize, usize, u64);

fn main() {
    let mut report = Report::new("memory", &[], &[]);

    // With GC.
    let sys = build_with_prelude(SRC, SystemConfig::default()).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 300,
            mt_every: 4,
            ..Default::default()
        },
    );
    let mut gc_samples: Vec<Sample> = Vec::new();
    let mut gc_peak = gc.sys.graph.live_bytes();
    let (_, gc_wall_ms) = timed(|| {
        gc.sys.demand_root();
        loop {
            for _ in 0..300 {
                if !gc.sys.step() {
                    break;
                }
            }
            gc_peak = gc_peak.max(gc.sys.graph.live_bytes());
            if gc.sys.events() / SAMPLE_EVERY > gc_samples.len() as u64 {
                gc_samples.push((
                    gc.sys.events(),
                    gc.sys.graph.live_count(),
                    gc.sys.graph.capacity(),
                    gc.sys.graph.live_bytes(),
                ));
            }
            if gc.sys.result.is_some() {
                break;
            }
            gc.run_cycle();
        }
    });
    let gc_final: Sample = (
        gc.sys.events(),
        gc.sys.graph.live_count(),
        gc.sys.graph.capacity(),
        gc.sys.graph.live_bytes(),
    );
    let snap = gc.sys.heap_snapshot();

    // Without GC.
    let mut plain = build_with_prelude(SRC, SystemConfig::default()).unwrap();
    let mut plain_samples: Vec<Sample> = Vec::new();
    let (_, plain_wall_ms) = timed(|| {
        plain.demand_root();
        while plain.result.is_none() && plain.step() {
            if plain.events().is_multiple_of(SAMPLE_EVERY) {
                plain_samples.push((
                    plain.events(),
                    plain.graph.live_count(),
                    plain.graph.capacity(),
                    plain.graph.live_bytes(),
                ));
            }
        }
    });
    let plain_final: Sample = (
        plain.events(),
        plain.graph.live_count(),
        plain.graph.capacity(),
        plain.graph.live_bytes(),
    );

    let rows = gc_samples
        .iter()
        .zip(plain_samples.iter().chain(std::iter::repeat(&plain_final)))
        .map(|(&(ev, gl, gcap, gb), &(_, pl, pcap, pb))| {
            record! {
                "events" => ev,
                "gc_live" => gl,
                "gc_capacity" => gcap,
                "gc_bytes" => gb,
                "nogc_live" => pl,
                "nogc_capacity" => pcap,
                "nogc_bytes" => pb,
            }
        })
        .collect();
    report.table(&format!("T8: heap over time for `{SRC}`"), rows);

    let mut with_gc = record! {
        "benchmark" => "memory_with_gc",
        "vertices" => 200u64,
        "pes" => 1u64,
        "messages" => gc_final.0,
        "wall_us" => gc_wall_ms * 1e3,
        "final_live" => gc_final.1,
        "final_capacity" => gc_final.2,
        "final_live_bytes" => gc_final.3,
        "sampled_peak_bytes" => gc_peak,
    };
    if TELEMETRY_ENABLED {
        with_gc.extend(record! {
            "peak_live_bytes" => snap.peak,
            "alloc_bytes" => snap.alloc_bytes,
            "freed_bytes" => snap.freed_bytes,
            "exact_pct" => snap.exact_fraction() * 100.0,
        });
    }
    let without_gc = record! {
        "benchmark" => "memory_without_gc",
        "vertices" => 200u64,
        "pes" => 1u64,
        "messages" => plain_final.0,
        "wall_us" => plain_wall_ms * 1e3,
        "final_live" => plain_final.1,
        "final_capacity" => plain_final.2,
        "final_live_bytes" => plain_final.3,
    };
    report.table("T8: final heap per run mode", vec![with_gc, without_gc]);
    assert!(
        gc_final.2 < plain_final.2,
        "the collected heap must end smaller (capacity)"
    );
    assert!(
        gc_final.3 < plain_final.3,
        "the collected heap must end smaller (live bytes)"
    );
    println!(
        "Shape check: under collection the live set (and hence the heap) stays \
         bounded near the working set; without it both grow monotonically with \
         total allocation — memory equal to the entire history of the program."
    );

    report.finish();
}
