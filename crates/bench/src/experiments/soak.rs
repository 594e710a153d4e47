//! Soak harness for the live observability plane.
//!
//! Churns prelude programs through continuous reduction + GC cycles and
//! periodic threaded `mark1` passes with the `dgr-observe` exporter and
//! watchdog attached, so `/metrics`, `/status`, `/healthz` and
//! `/graph.dot` can be scraped against a live, changing system. Each
//! iteration publishes fresh snapshots (metrics, census, GC progress,
//! bounded DOT, event tail) into the hub and self-scrapes `/metrics`
//! over real HTTP to measure end-to-end scrape latency.
//!
//! Under `--json` writes `BENCH_soak.json`: iterations, cycles completed, reclaim
//! totals, watchdog incidents, scrape latency quantiles, and (with
//! `--inject-stall`) the result of forcing a stalled marking phase —
//! `/healthz` must flip to 503 and a flight dump must land in
//! `$DGR_FLIGHT_DIR`.
//!
//! Flags:
//!
//! * `--small` — CI-sized workloads and a short default duration;
//! * `--seconds <n>` — soak duration (default 20, `--small` default 5);
//! * `--addr <ip:port>` — exporter bind address (default `127.0.0.1:0`,
//!   the chosen port is printed);
//! * `--inject-stall` — after the soak, hold a marking phase silent past
//!   the watchdog deadline and verify degradation + recovery.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{record, Report};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared_observed};
use dgr_gc::{GcConfig, GcDriver, GcStats};
use dgr_graph::{dot, PartitionStrategy};
use dgr_lang::build_with_prelude;
use dgr_observe::{watchdog, ObserveHub, Server, WatchdogConfig};
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_sim::SharedGraph;
use dgr_telemetry::{flight_path, Phase, Registry, TELEMETRY_ENABLED};
use dgr_workloads::graphs::binary_tree_dfs;

/// Rotated soak programs: list churn (steady garbage), arithmetic
/// recursion, and speculative choice (irrelevant-task census fodder).
const SOURCES: [&str; 3] = [
    "sum (map (\\x -> x * x) (range 1 80))",
    "sum (map (\\x -> x + 1) (range 1 120))",
    "sum (append (range 1 60) (range 1 40))",
];

/// One blocking HTTP GET against the exporter; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("exporter reachable");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub(crate) fn run(report: &mut Report) {
    let small = report.has("--small");
    let inject_stall = report.has("--inject-stall");
    let seconds: u64 = report
        .value_as("--seconds")
        .unwrap_or(if small { 5 } else { 20 });
    let addr = report.value("--addr").unwrap_or("127.0.0.1:0").to_string();

    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind(addr.as_str(), Arc::clone(&hub)).expect("exporter binds");
    let addr = server.addr();
    println!("dgr-observe exporter listening on http://{addr}");
    println!("  curl http://{addr}/metrics   # Prometheus text exposition");
    println!("  curl http://{addr}/status    # JSON status");
    println!("  curl http://{addr}/healthz   # 200 ok / 503 degraded");
    println!("  curl http://{addr}/graph.dot # live graph snapshot");
    let wd_cfg = WatchdogConfig {
        // Tight deadline when the point is to trip it; generous for the
        // steady-state soak so a slow CI box cannot false-alarm.
        stall_timeout_ms: if inject_stall { 300 } else { 5_000 },
        ..Default::default()
    };
    let dog = watchdog::spawn(Arc::clone(&hub), wd_cfg);

    // The threaded passes share one registry (counters accumulate; the
    // per-PE mailbox gauges drain back toward zero after every pass) and
    // one tree, epoch-reset between passes.
    let pes: u16 = 4;
    let threaded_telem = Registry::new(pes);
    let shared = SharedGraph::from_store(binary_tree_dfs(if small { 10 } else { 13 }));

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut totals = GcStats::default();
    let mut iterations = 0u64;
    let mut scrape_us: Vec<u64> = Vec::new();
    while Instant::now() < deadline {
        let src = SOURCES[(iterations % SOURCES.len() as u64) as usize];
        let sys = build_with_prelude(src, SystemConfig::default()).expect("workload builds");
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: if small { 120 } else { 250 },
                mt_every: 2,
                ..Default::default()
            },
        );
        gc.attach_heartbeat(hub.heartbeat_handle());
        let out = gc.run();
        assert!(
            matches!(out, RunOutcome::Value(_)),
            "soak workload: {out:?}"
        );
        // The timeline keeps the newest `TIMELINE_CAP` cycles; a soak
        // program runs a few dozen, so it holds every one.
        assert_eq!(gc.timeline().len(), gc.stats().cycles as usize);
        for c in gc.timeline() {
            totals.absorb(c);
        }

        // A threaded mark1 pass per iteration: populates the per-PE
        // mailbox/batch metrics and beats the pulse from real threads.
        reset_shared_r(&shared);
        run_mark1_shared_observed(
            &shared,
            pes,
            PartitionStrategy::Block,
            &threaded_telem,
            &hub.heartbeat_handle(),
        );

        // Publish: threaded per-PE shards, with the GC driver's
        // single-shard tallies folded into PE 0. A no-op registry
        // (default build) snapshots zero shards — publish empty ones so
        // the exposition still lists every PE.
        let mut snap = threaded_telem.snapshot();
        if snap.per_pe.is_empty() {
            snap.per_pe.resize(usize::from(pes), Default::default());
        }
        snap.per_pe[0].merge(&gc.sys.telemetry().snapshot().merged());
        hub.publish_metrics(snap);
        hub.publish_census(gc.last_report().census);
        hub.publish_gc(totals);
        hub.publish_lifecycle(gc.lifecycle_snapshot());
        hub.publish_dot(dot::to_dot(
            &gc.sys.graph,
            &dot::DotOptions {
                max_vertices: 200,
                ..Default::default()
            },
        ));
        hub.publish_events(gc.sys.telemetry().drain_events());

        // Self-scrape over real HTTP: end-to-end render + serve latency.
        let t = Instant::now();
        let (code, body) = http_get(addr, "/metrics");
        scrape_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(code, 200, "/metrics scrape failed mid-soak");
        assert!(
            body.contains("dgr_uptime_seconds"),
            "/metrics body incomplete"
        );
        iterations += 1;
    }

    let incidents_steady = hub.incidents();
    let (healthz_steady, _) = http_get(addr, "/healthz");
    scrape_us.sort_unstable();
    let scrape_mean_us = scrape_us.iter().sum::<u64>() as f64 / scrape_us.len().max(1) as f64;
    report.table(
        &format!("soak: {iterations} iterations over {seconds}s"),
        vec![record! {
            "benchmark" => "soak",
            "seconds" => seconds,
            "iterations" => iterations,
            "gc_cycles" => totals.cycles,
            "gc_cycles_aborted" => totals.aborted_cycles,
            "reclaimed" => totals.reclaimed_total,
            "expunged" => totals.expunged_total,
            "relaned" => totals.relaned_total,
            "deadlocked" => totals.deadlocks_total,
            "watchdog_incidents" => incidents_steady,
            "healthz" => healthz_steady,
            "scrapes" => hub.scrapes(),
            "scrape_p50_us" => quantile_us(&scrape_us, 0.5),
            "scrape_p90_us" => quantile_us(&scrape_us, 0.9),
            "scrape_p99_us" => quantile_us(&scrape_us, 0.99),
            "scrape_max_us" => scrape_us.last().copied().unwrap_or(0),
            "scrape_mean_us" => scrape_mean_us,
            "telemetry" => TELEMETRY_ENABLED,
        }],
    );
    assert_eq!(healthz_steady, 200, "steady-state soak must stay healthy");

    // Optional stall injection: hold a marking phase silent past the
    // watchdog deadline, observe 503 + flight dump, then recover.
    if inject_stall {
        let pulse = hub.heartbeat_handle();
        pulse.begin_phase(u32::MAX, Phase::Mr);
        // A no-op pulse cannot stall, so don't wait long proving it.
        let window = Duration::from_secs(if TELEMETRY_ENABLED { 10 } else { 1 });
        let t = Instant::now();
        let mut degraded_status = 0u16;
        while t.elapsed() < window {
            let (code, _) = http_get(addr, "/healthz");
            if code == 503 {
                degraded_status = code;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let dump_exists = flight_path(0).exists();
        pulse.end_phase();
        // The next poll must see the fresh beat and recover.
        let mut recovered = 0u16;
        let t = Instant::now();
        while t.elapsed() < window {
            let (code, _) = http_get(addr, "/healthz");
            if code == 200 {
                recovered = code;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        println!("flight dump path: {}", flight_path(0).display());
        report.table(
            "inject-stall: /healthz during the stall and after recovery",
            vec![record! {
                "benchmark" => "soak_inject_stall",
                "incidents" => hub.incidents() - incidents_steady,
                "flight_dump" => dump_exists,
                "healthz_during_stall" => degraded_status,
                "healthz_recovered" => recovered,
            }],
        );
        if TELEMETRY_ENABLED {
            assert_eq!(degraded_status, 503, "stall must flip /healthz to 503");
            assert!(dump_exists, "stall must produce a flight dump");
            assert_eq!(recovered, 200, "ending the phase must recover health");
        }
    }

    server.shutdown();
    dog.join().expect("watchdog joins");
}
