//! `dgr-trace` — analyze dgr-telemetry event streams from the command
//! line.
//!
//! ```text
//! dgr-trace summarize      <events.jsonl | flight-N.json>
//! dgr-trace critical-path  <events.jsonl | flight-N.json> [--cycle N] [--verbose]
//! dgr-trace fanout         <events.jsonl | flight-N.json>
//! dgr-trace blame          <events.jsonl | flight-N.json>
//! dgr-trace lifecycle      <events.jsonl | flight-N.json>
//! dgr-trace heap           <events.jsonl | flight-N.json>
//! dgr-trace diff           <before.jsonl> <after.jsonl>
//! ```
//!
//! Both the JSON Lines file a bench run writes
//! (`BENCH_telemetry_events.jsonl`) and a flight-recorder dump
//! (`flight-<pe>.json`) are accepted everywhere a file is expected.

use std::process::ExitCode;

use dgr_trace::{
    analyze, blame, blame_text, critical_path_text, critical_paths, fanout, fanout_text, heap,
    heap_text, lifecycle, lifecycle_text, match_flows, parse_events, summarize, summary_text,
    ParsedEvent,
};

const USAGE: &str =
    "usage: dgr-trace <summarize|critical-path|fanout|blame|lifecycle|heap|diff> <file> [args]
  summarize     <file>                       run statistics and flow matching
  critical-path <file> [--cycle N] [--verbose]  longest causal hop chain per cycle
  fanout        <file>                       per-phase fan-out histograms
  blame         <file>                       speedup-gap attribution from state clocks
  lifecycle     <file>                       per-cycle float/latency/message-cost table
  heap          <file>                       per-cycle live/peak/trigger-cause table
  diff          <before> <after>             A/B comparison of two runs
<file> is an events JSONL (BENCH_telemetry_events.jsonl) or a flight dump (flight-<pe>.json)";

fn load(path: &str) -> Result<Vec<ParsedEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = parse_events(&text);
    if events.is_empty() {
        return Err(format!(
            "{path}: no events found — was the run built with the `telemetry` feature?"
        ));
    }
    Ok(events)
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    match cmd.as_str() {
        "summarize" | "fanout" | "blame" | "lifecycle" | "heap" => {
            let [path] = rest else {
                return Err(USAGE.to_string());
            };
            let events = load(path)?;
            Ok(match cmd.as_str() {
                "summarize" => summary_text(&summarize(&events)),
                "fanout" => fanout_text(&fanout(&events)),
                "blame" => blame_text(&blame(&events)),
                "lifecycle" => lifecycle_text(&lifecycle(&events)),
                _ => heap_text(&heap(&events)),
            })
        }
        "critical-path" => {
            let path = rest.first().ok_or_else(|| USAGE.to_string())?;
            let verbose = rest.iter().any(|a| a == "--verbose");
            let cycle: Option<u32> = rest
                .iter()
                .position(|a| a == "--cycle")
                .and_then(|i| rest.get(i + 1))
                .map(|v| v.parse().map_err(|_| format!("bad --cycle value: {v}")))
                .transpose()?;
            let mut paths = critical_paths(&match_flows(&load(path)?));
            if let Some(c) = cycle {
                paths.retain(|p| p.cycle == c);
            }
            Ok(critical_path_text(&paths, verbose))
        }
        "diff" => {
            let [before, after] = rest else {
                return Err(USAGE.to_string());
            };
            let a = analyze(&load(before)?);
            let b = analyze(&load(after)?);
            Ok(dgr_trace::diff_text(before, &a, after, &b))
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
