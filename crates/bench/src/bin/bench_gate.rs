//! Bench regression gate: diffs the deterministic columns of a freshly
//! generated `BENCH_*.json` against the committed baseline, and holds
//! per-family ceilings on a fresh file.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json>
//! bench_gate <fresh.json> [--max-reclaim-latency CYC] [--max-peak-bytes B]
//! # e.g. bench_gate baselines/BENCH_marking.json BENCH_marking.json
//! ```
//!
//! The committed reference copies live under `baselines/` (tracked);
//! freshly regenerated reports land in the repo root, which is
//! gitignored so regeneration never dirties the tree.
//!
//! With two files, records are keyed by `(benchmark, vertices, pes)` and
//! every baseline record must be present in the fresh file with the same
//! message count — counts are deterministic (fixed seeds, fixed
//! schedules), so any difference is a behaviour change. `wall_us` is
//! printed beside its baseline for the reader and never gated: a shared
//! runner's clock cannot tell a regression from a noisy neighbour. The
//! timed numbers are gated by `benchmark/` (see its README), which pairs
//! runs and measures its own spread. `dgr-bench` builds with telemetry
//! off unless `--features telemetry` is passed, which is the state the
//! committed baselines were taken in.
//!
//! With one file, at least one ceiling must be given:
//!
//! `--max-reclaim-latency CYC` gates records that carry a
//! `mean_latency_cycles` field (the gclat report under a
//! telemetry-enabled build): the worst cell of each family must keep
//! its mean reclamation latency at or under the ceiling, catching a
//! collector that starts letting garbage float across cycles.
//!
//! `--max-peak-bytes B` gates records that carry a `peak_live_bytes`
//! field (the heap report under a telemetry-enabled build): the worst
//! cell of each family must keep its peak live bytes at or under the
//! ceiling, catching a pressure trigger that stops holding the
//! waterline.
//!
//! Both read simulator clocks (cycles, bytes), not wall-clock, so they
//! repeat exactly on any host. The ceilings may also be passed alongside
//! a baseline diff.
//!
//! Exit code is non-zero on any missing record, count mismatch, or
//! broken ceiling; every CI job that runs the gate is blocking.

use std::process::ExitCode;

/// One benchmark record: identity key plus the measures we gate.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    key: String,
    /// Benchmark family (key minus the `/peN` suffix): records in one
    /// family differ only in PE count.
    family: String,
    pes: u64,
    messages: u64,
    wall_us: f64,
    /// Mean reclamation latency in cycles, present only in records the
    /// gclat report emits from a telemetry-enabled build.
    mean_latency_cycles: Option<f64>,
    /// Peak live bytes over the run, present only in records the heap
    /// report emits from a telemetry-enabled build.
    peak_live_bytes: Option<f64>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"benchmark\"") {
            continue;
        }
        let (Some(bench), Some(messages), Some(wall)) = (
            field(line, "benchmark"),
            field(line, "messages").and_then(|v| v.parse::<u64>().ok()),
            field(line, "wall_us").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        let vertices = field(line, "vertices").unwrap_or("?");
        let pes = field(line, "pes")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        out.push(Record {
            key: format!("{bench}/v{vertices}/pe{pes}"),
            family: format!("{bench}/v{vertices}"),
            pes,
            messages,
            wall_us: wall,
            mean_latency_cycles: field(line, "mean_latency_cycles").and_then(|v| v.parse().ok()),
            peak_live_bytes: field(line, "peak_live_bytes").and_then(|v| v.parse().ok()),
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok(out)
}

const USAGE: &str = "usage: bench_gate <baseline.json> <fresh.json> \
                     [--max-reclaim-latency CYC] [--max-peak-bytes B]\n       \
                     bench_gate <fresh.json> [--max-reclaim-latency CYC] [--max-peak-bytes B]";

fn main() -> ExitCode {
    let mut max_reclaim_latency: Option<f64> = None;
    let mut max_peak_bytes: Option<f64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-reclaim-latency" => {
                max_reclaim_latency = it.next().and_then(|v| v.parse().ok());
            }
            "--max-peak-bytes" => max_peak_bytes = it.next().and_then(|v| v.parse().ok()),
            _ if a.starts_with("--") => {
                eprintln!("bench_gate: unknown flag {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => files.push(a),
        }
    }
    let has_ceiling = max_reclaim_latency.is_some() || max_peak_bytes.is_some();

    let mut failures = 0u32;
    let fresh = match &files[..] {
        [fresh_path] if has_ceiling => match parse(fresh_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        [baseline_path, fresh_path] => {
            let (baseline, fresh) = match (parse(baseline_path), parse(fresh_path)) {
                (Ok(b), Ok(f)) => (b, f),
                (b, f) => {
                    for e in [b.err(), f.err()].into_iter().flatten() {
                        eprintln!("{e}");
                    }
                    return ExitCode::FAILURE;
                }
            };
            println!("bench gate: {fresh_path} vs baseline {baseline_path}");
            println!(
                "{:<44} {:>12} {:>12} {:>8}  status",
                "benchmark", "base us", "fresh us", "delta"
            );
            for base in &baseline {
                let Some(new) = fresh.iter().find(|r| r.key == base.key) else {
                    println!(
                        "{:<44} {:>12} {:>12} {:>8}  MISSING",
                        base.key, base.wall_us, "-", "-"
                    );
                    failures += 1;
                    continue;
                };
                let delta_pct = if base.wall_us > 0.0 {
                    (new.wall_us - base.wall_us) / base.wall_us * 100.0
                } else {
                    0.0
                };
                let status = if new.messages != base.messages {
                    failures += 1;
                    format!("COUNT {} != {}", new.messages, base.messages)
                } else {
                    "ok".to_string()
                };
                println!(
                    "{:<44} {:>12.1} {:>12.1} {:>+7.1}%  {status}",
                    base.key, base.wall_us, new.wall_us, delta_pct
                );
            }
            for new in &fresh {
                if !baseline.iter().any(|r| r.key == new.key) {
                    println!(
                        "{:<44} {:>12} {:>12.1} {:>8}  NEW (not gated)",
                        new.key, "-", new.wall_us, "-"
                    );
                }
            }
            fresh
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Reclamation-latency ceiling: among the records that carry a mean
    // reclamation latency (the gclat report under a telemetry-enabled
    // build), the worst cell of each family must stay at or under the
    // ceiling — a drift above it means a collector started letting
    // garbage float across cycles instead of reclaiming promptly.
    if let Some(ceiling) = max_reclaim_latency {
        let with_lat: Vec<&Record> = fresh
            .iter()
            .filter(|r| r.mean_latency_cycles.is_some())
            .collect();
        if with_lat.is_empty() {
            eprintln!(
                "bench gate: --max-reclaim-latency set but no record carries \
                 mean_latency_cycles (telemetry-off build?)"
            );
            failures += 1;
        } else {
            println!("\nreclaim-latency ceiling: worst cell per family <= {ceiling} cycles");
            println!("{:<36} {:>8} {:>10}  status", "family", "pes", "mean lat");
            let mut families: Vec<&str> = with_lat.iter().map(|r| r.family.as_str()).collect();
            families.dedup();
            for fam in families {
                let worst = with_lat
                    .iter()
                    .filter(|r| r.family == fam)
                    .max_by(|a, b| {
                        a.mean_latency_cycles
                            .partial_cmp(&b.mean_latency_cycles)
                            .expect("latency is finite")
                    })
                    .expect("family came from a non-empty record");
                let lat = worst.mean_latency_cycles.expect("filtered to Some");
                let status = if lat > ceiling {
                    failures += 1;
                    "TOO FLOATY"
                } else {
                    "ok"
                };
                println!("{fam:<36} {:>8} {lat:>10.2}  {status}", worst.pes);
            }
        }
    }

    // Peak-bytes ceiling: among the records that carry a peak live
    // bytes reading (the heap report under a telemetry-enabled build),
    // the worst cell of each family must stay at or under the ceiling —
    // a drift above it means the pressure trigger stopped holding the
    // waterline it was configured to hold.
    if let Some(ceiling) = max_peak_bytes {
        let with_peak: Vec<&Record> = fresh
            .iter()
            .filter(|r| r.peak_live_bytes.is_some())
            .collect();
        if with_peak.is_empty() {
            eprintln!(
                "bench gate: --max-peak-bytes set but no record carries \
                 peak_live_bytes (telemetry-off build?)"
            );
            failures += 1;
        } else {
            println!("\npeak-bytes ceiling: worst cell per family <= {ceiling} bytes");
            println!("{:<36} {:>8} {:>12}  status", "family", "pes", "peak bytes");
            let mut families: Vec<&str> = with_peak.iter().map(|r| r.family.as_str()).collect();
            families.dedup();
            for fam in families {
                let worst = with_peak
                    .iter()
                    .filter(|r| r.family == fam)
                    .max_by(|a, b| {
                        a.peak_live_bytes
                            .partial_cmp(&b.peak_live_bytes)
                            .expect("peak is finite")
                    })
                    .expect("family came from a non-empty record");
                let peak = worst.peak_live_bytes.expect("filtered to Some");
                let status = if peak > ceiling {
                    failures += 1;
                    "TOO HIGH"
                } else {
                    "ok"
                };
                println!("{fam:<36} {:>8} {peak:>12.0}  {status}", worst.pes);
            }
        }
    }

    if failures > 0 {
        eprintln!("bench gate: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("bench gate: all gates passed");
    ExitCode::SUCCESS
}
