//! Bench regression gate: diffs the message counts of a freshly
//! generated `BENCH_*.json` against the committed baseline and holds
//! per-family ceilings (see [`dgr_bench::gate`]).
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [--max FIELD=N]...
//! bench_gate <fresh.json> --max FIELD=N [--max FIELD=N]...
//! # e.g. bench_gate baselines/BENCH_marking.json BENCH_marking.json
//! #      bench_gate BENCH_heap.json --max peak_live_bytes=65536
//! ```
//!
//! The committed reference copies live under `baselines/` (tracked);
//! freshly regenerated reports land in the repo root, which is
//! gitignored. Exit status: 0 when every gate holds, 1 on a missing
//! record, a count mismatch, a broken ceiling or an unreadable file, 2
//! on a bad command line.

use std::process::ExitCode;

use dgr_bench::gate;

const USAGE: &str = "usage: bench_gate <baseline.json> <fresh.json> [--max FIELD=N]...\n       \
                     bench_gate <fresh.json> --max FIELD=N [--max FIELD=N]...";

fn main() -> ExitCode {
    let args = match gate::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = match gate::run(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", verdict.text);
    if verdict.failures > 0 {
        eprintln!("bench gate: {} failure(s)", verdict.failures);
        return ExitCode::FAILURE;
    }
    println!("bench gate: all gates passed");
    ExitCode::SUCCESS
}
