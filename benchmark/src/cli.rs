//! Command line.
//!
//! ```text
//! dgr-benchmark run <workload> [--seed N] [--seconds S] [--traced] [--quick]
//! dgr-benchmark all            [--seed N] [--seconds S] [--traced] [--quick]
//! dgr-benchmark compare <a.json> <b.json>
//! dgr-benchmark --workload <name> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the one the benchmark driver appends to the command
//! in `BENCHMARK.json`; it is `run` with the flags spelled the driver's
//! way. Every run ends with one line holding the driver's JSON object.

use std::path::Path;
use std::process::ExitCode;

use crate::mark::{self, Shape};
use crate::report::{out_dir, write_result_file, RunResult, Stamp, WORKLOADS};
use crate::trace::Tracer;
use crate::{compare, reduce, Opts};

/// Seconds a workload measures for unless told otherwise; `run_seconds`
/// in `BENCHMARK.json` is the same number.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  dgr-benchmark run <workload> [--seed N] [--seconds S] [--traced] [--quick]
  dgr-benchmark all [--seed N] [--seconds S] [--traced] [--quick]
  dgr-benchmark compare <a.json> <b.json>
  dgr-benchmark --workload <name> --seed N --seconds S --trace 0|1
workloads: reduce_nogc reduce_gc mark_tree mark_digraph";

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workloads: Vec<&'static str>,
        opts: Opts,
        traced: bool,
    },
    Compare(String, String),
}

fn workload(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut named = None;
    let mut opts = Opts {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        quick: false,
    };
    let mut traced = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg {
            "--workload" => named = Some(workload(value("a workload")?)?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => traced = true,
            "--quick" => opts.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word => positional.push(word),
        }
    }
    let workloads = match (positional.as_slice(), named) {
        ([], Some(w)) => vec![w],
        (["run", name], None) => vec![workload(name)?],
        (["all"], None) => WORKLOADS.to_vec(),
        (["compare", a, b], None) => return Ok(Command::Compare(a.to_string(), b.to_string())),
        _ => {
            return Err(
                "expected `run <workload>`, `all`, `compare <a> <b>` or `--workload`".into(),
            )
        }
    };
    Ok(Command::Run {
        workloads,
        opts,
        traced,
    })
}

fn run_one(
    name: &'static str,
    opts: &Opts,
    traced: bool,
    stamp: &Stamp,
) -> (RunResult, Option<Tracer>) {
    let shape = match name {
        "mark_tree" => Some(Shape::Tree),
        "mark_digraph" => Some(Shape::Digraph),
        _ => None,
    };
    let gc = name == "reduce_gc";
    match (shape, traced) {
        (Some(shape), false) => (mark::run(shape, opts, stamp), None),
        (Some(shape), true) => {
            let (r, t) = mark::run_traced(shape, opts, stamp);
            (r, Some(t))
        }
        (None, false) => (reduce::run(gc, opts), None),
        (None, true) => {
            let (r, t) = reduce::run_traced(gc, opts, stamp);
            (r, Some(t))
        }
    }
}

fn write_trace(name: &str, tracer: &Tracer) -> std::io::Result<()> {
    let path = out_dir()?.join(format!("trace_{name}.json"));
    std::fs::write(&path, tracer.to_json().to_line() + "\n")?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Parses the arguments, runs, and returns the process's exit code.
pub fn main(args: &[String]) -> ExitCode {
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => match compare::compare(Path::new(&a), Path::new(&b)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Command::Run {
            workloads,
            opts,
            traced,
        } => {
            let stamp = Stamp::new(opts.seed, opts.seconds, opts.quick);
            stamp.print();
            let mut results = Vec::new();
            for &name in &workloads {
                println!("== {name}{} ==", if traced { " (traced)" } else { "" });
                let (res, tracer) = run_one(name, &opts, traced, &stamp);
                res.print();
                if let Some(tracer) = tracer {
                    let root = if name.starts_with("reduce") {
                        "program"
                    } else {
                        "pair"
                    };
                    tracer.print_self_times(root);
                    if let Err(e) = write_trace(name, &tracer) {
                        eprintln!("could not write the trace: {e}");
                    }
                }
                results.push(res);
            }
            let stem = format!(
                "result_{}{}",
                if let [one] = workloads.as_slice() {
                    one
                } else {
                    "all"
                },
                if traced { "_traced" } else { "" }
            );
            if let Err(e) = write_result_file(&stem, &stamp, &results) {
                eprintln!("could not write the result file: {e}");
            }
            // The driver reads the last line of stdout.
            for res in &results {
                println!("{}", res.driver_line());
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_is_run() {
        let driver = parse(&args("--workload mark_tree --seed 7 --seconds 3 --trace 1")).unwrap();
        let typed = parse(&args("run mark_tree --seed 7 --seconds 3 --traced")).unwrap();
        assert_eq!(driver, typed);
    }

    #[test]
    fn all_runs_every_workload() {
        match parse(&args("all --quick")).unwrap() {
            Command::Run {
                workloads, opts, ..
            } => {
                assert_eq!(workloads, WORKLOADS);
                assert!(opts.quick);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse(&args("run nope")).is_err());
        assert!(parse(&args("--workload mark_tree --trace 2")).is_err());
        assert!(parse(&args("run mark_tree --seconds -1")).is_err());
        assert!(parse(&args("run mark_tree --frobnicate")).is_err());
        assert!(parse(&args("")).is_err());
    }
}
