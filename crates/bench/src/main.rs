//! `dgr-report`: runs one experiment of the registry
//! ([`dgr_bench::EXPERIMENTS`]), lists those gated in this build's
//! feature state, or gates a `BENCH_<name>.json` ([`dgr_bench::gate`]).
//! With no argument it prints every experiment's usage. Exit status: 0
//! when the run or every gate holds, 1 when a gate fails or a file cannot
//! be read, 2 on a bad command line.

use std::process::ExitCode;

use dgr_bench::{gate, Experiment, Report, EXPERIMENTS};
use dgr_telemetry::TELEMETRY_ENABLED;

fn usage(bad: &str) -> ExitCode {
    eprintln!("dgr-report: {bad}\nusage:");
    for e in EXPERIMENTS {
        let build = if e.telemetry {
            "  (--features telemetry)"
        } else {
            ""
        };
        eprintln!("  {}{build}", e.usage());
    }
    eprintln!(
        "  dgr-report gate <baseline.json> <fresh.json> [--max FIELD=N]...\n  \
         dgr-report gate <fresh.json> --max FIELD=N [--max FIELD=N]...\n  \
         dgr-report list"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let first = args.next().unwrap_or_default();
    if first == "list" && args.next().is_none() {
        for e in EXPERIMENTS
            .iter()
            .filter(|e| e.telemetry == TELEMETRY_ENABLED)
        {
            println!("{}", e.name);
        }
        return ExitCode::SUCCESS;
    }
    if first != "gate" {
        let Some(exp) = Experiment::find(&first) else {
            return usage(&format!("no experiment {first:?}"));
        };
        let mut report = Report::new(exp, args);
        if exp.telemetry && !TELEMETRY_ENABLED {
            println!(
                "note: built without the `telemetry` feature: the columns and \
                 event files the recording feeds are absent, so the gate against \
                 baselines/BENCH_{}.json fails",
                exp.name
            );
        }
        (exp.run)(&mut report);
        report.finish();
        return ExitCode::SUCCESS;
    }
    let verdict = match gate::parse_args(args).map(|args| gate::run(&args)) {
        Err(e) => return usage(&e),
        Ok(Err(e)) => {
            eprintln!("bench gate: {e}");
            return ExitCode::FAILURE;
        }
        Ok(Ok(v)) => v,
    };
    print!("{}", verdict.text);
    if verdict.failures > 0 {
        eprintln!("bench gate: {} failure(s)", verdict.failures);
        return ExitCode::FAILURE;
    }
    println!("bench gate: all gates passed");
    ExitCode::SUCCESS
}
