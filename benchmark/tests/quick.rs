//! Runs the benchmark in `--quick` mode and holds its output against
//! `BENCHMARK.json`: every declared workload and metric is printed exactly
//! once per run with a finite value, and the declarations in the binary
//! and in the file are the same.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use dgr_benchmark::cli::DEFAULT_SECONDS;
use dgr_benchmark::json::{self, Json};
use dgr_benchmark::report::{Better, Decl, END_TO_END, PER_LAYER, WORKLOADS};

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn name_is_well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Per workload, every `metric` line's `(name, value, unit)`.
type Printed = BTreeMap<String, Vec<(String, f64, String)>>;

/// Runs `all --quick` (plus `extra`) and returns what it printed and the
/// driver's JSON lines.
fn run_all(extra: &[&str]) -> (Printed, Vec<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dgr-benchmark"))
        .args(["all", "--quick", "--seed", "11"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let mut metrics = Printed::new();
    let mut driver_lines = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut f = rest.split(' ');
            let (w, name, value, unit) = (f.next(), f.next(), f.next(), f.next());
            let value: f64 = value.expect("a value").parse().expect("a number");
            metrics
                .entry(w.expect("a workload").to_string())
                .or_default()
                .push((
                    name.expect("a name").to_string(),
                    value,
                    unit.expect("a unit").to_string(),
                ));
        } else if line.starts_with('{') {
            driver_lines.push(json::parse(line).expect("the driver line is JSON"));
        }
    }
    (metrics, driver_lines)
}

fn check_run(extra: &[&str], decls: &[Decl], never_zero: bool) {
    let (metrics, driver_lines) = run_all(extra);
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        {
            let mut w = WORKLOADS.to_vec();
            w.sort_unstable();
            w
        },
        "every workload prints its metrics"
    );
    for (workload, printed) in &metrics {
        for d in decls {
            let hits: Vec<_> = printed.iter().filter(|(n, _, _)| n == d.name).collect();
            assert_eq!(
                hits.len(),
                1,
                "{workload}: `{}` printed {} times",
                d.name,
                hits.len()
            );
            let (_, value, unit) = hits[0];
            assert!(value.is_finite(), "{workload}: `{}` = {value}", d.name);
            assert!(
                !never_zero || *value > 0.0,
                "{workload}: `{}` = {value}",
                d.name
            );
            assert_eq!(unit, d.unit, "{workload}: unit of `{}`", d.name);
        }
        assert_eq!(
            printed.len(),
            decls.len(),
            "{workload}: undeclared metrics printed"
        );
    }
    assert_eq!(driver_lines.len(), WORKLOADS.len());
    for line in &driver_lines {
        let keys: Vec<_> = line
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
        assert!(line
            .get("attempted")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        let reported = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(
            reported.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            decls.iter().map(|d| d.name).collect::<Vec<_>>()
        );
    }
}

#[test]
fn quick_run_prints_every_declared_metric_once() {
    let started = Instant::now();
    check_run(&[], &END_TO_END, true);
    check_run(&["--traced"], &PER_LAYER, false);
    let secs = started.elapsed().as_secs_f64();
    assert!(
        secs < 10.0,
        "--quick took {secs:.1} s for both runs of all workloads"
    );
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    let doc = declared();
    assert_eq!(names(doc.get("workloads").expect("workloads")), WORKLOADS);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS),
        "run_seconds and the binary's default"
    );
    for (key, decls) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let list = doc.get(key).and_then(Json::as_arr).expect("a metric list");
        assert_eq!(list.len(), decls.len(), "{key}");
        for (m, d) in list.iter().zip(decls) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name), "{key}");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            let better = match d.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                d.name
            );
            assert!(name_is_well_formed(d.name), "`{}`", d.name);
        }
    }
    for w in WORKLOADS {
        assert!(name_is_well_formed(w), "`{w}`");
    }
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    for m in bounds {
        let b = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(b > 0.0 && b <= 0.25, "bound {b}");
    }
}
