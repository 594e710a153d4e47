//! Metric declarations, the per-run result, and how it is printed and
//! written.
//!
//! The tables here and `BENCHMARK.json` declare the same names; the test
//! under `tests/` fails when they drift apart.

use std::path::PathBuf;

use crate::json::{obj, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["reduce_nogc", "reduce_gc", "mark_tree", "mark_digraph"];

/// What a user of the machine sees. Every workload reports all six (the
/// driver asks for that); README.md says what each means on a workload
/// outside the metric's home scope.
pub const END_TO_END: [Decl; 6] = [
    lo("setup_s", "s"),
    hi("tasks_per_s", "1/s"),
    lo("heap_peak_vertices", "count"),
    lo("mark_msgs_per_task", "msgs/task"),
    hi("mark_msgs_per_s_1pe", "1/s"),
    hi("mark_msgs_per_s_2pe", "1/s"),
];

/// Single-layer numbers from the traced run. A metric that does not exist
/// on a workload (`gc.cycles` on `mark_tree`) reads 0 there.
pub const PER_LAYER: [Decl; 55] = [
    lo("lang.compile_us", "us"),
    lo("lang.install_us", "us"),
    lo("lang.templates", "count"),
    lo("reduction.step_ns", "ns"),
    lo("reduction.tasks", "count"),
    lo("reduction.expansions", "count"),
    lo("reduction.add_references", "count"),
    lo("reduction.grows", "count"),
    lo("reduction.window_ms_total", "ms"),
    hi("reduction.mutator_share_in_gc", "ratio"),
    lo("sim.detsim_ns_per_msg", "ns"),
    lo("sim.deque_push_pop_ns", "ns"),
    lo("sim.deque_steal_ns", "ns"),
    lo("sim.steal_rt_ns_per_task_1pe", "ns"),
    lo("sim.steal_rt_ns_per_task_2pe", "ns"),
    lo("sim.mailbox_hop_ns", "ns"),
    lo("sim.steal_rt_remote_ns_per_task_2pe", "ns"),
    lo("sim.envelopes_per_msg", "ratio"),
    lo("sim.steals", "count"),
    lo("sim.steal_fail_share", "ratio"),
    lo("sim.parks", "count"),
    lo("sim.spill_hw", "count"),
    lo("graph.alloc_free_ns", "ns"),
    lo("graph.markword_claim_ns", "ns"),
    lo("graph.oracle_ns_per_arc", "ns"),
    lo("graph.shared_from_store_ms", "ms"),
    lo("graph.alloc_bytes_total", "bytes"),
    lo("graph.live_bytes_end", "bytes"),
    lo("core.detsim_mark1_ns_per_msg", "ns"),
    lo("core.detsim_mark2_ns_per_msg", "ns"),
    lo("core.coop_mark_ns_per_msg", "ns"),
    hi("core.speedup_2pe", "ratio"),
    lo("core.mark_vs_bfs_factor", "ratio"),
    lo("gc.cycles", "count"),
    lo("gc.mt_cycles", "count"),
    lo("gc.mark_events", "count"),
    lo("gc.mark_events_per_cycle_max", "count"),
    hi("gc.reclaimed", "count"),
    hi("gc.expunged", "count"),
    hi("gc.relaned", "count"),
    lo("gc.float_garbage_end", "count"),
    lo("gc.cycle_ms_p50", "ms"),
    lo("gc.cycle_ms_p99", "ms"),
    lo("gc.mt_ms_total", "ms"),
    lo("gc.mr_ms_total", "ms"),
    lo("gc.settle_ms_total", "ms"),
    lo("gc.restructure_ms_total", "ms"),
    lo("gc.ns_per_msg", "ns"),
    lo("gc.overhead_factor", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.iter_ms_p50", "ms"),
    lo("bench.iter_ms_iqr_pct", "%"),
    hi("bench.host_parallelism", "count"),
    lo("bench.oversubscribed", "count"),
    lo("bench.trace_diverged", "count"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Within-run spread of the samples behind the value, as a percentage
    /// of their median (0 for an exact count).
    pub spread_pct: f64,
    /// Whether the value is a count that must repeat exactly for a seed.
    pub exact: bool,
    /// Human-readable detail printed beside the value.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted: program evaluations, marking passes, probe
    /// checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// `(what, how many)` iteration counts for the result file.
    pub iterations: Vec<(&'static str, u64)>,
    /// `(what, seconds each)`: the raw timing samples behind the rates, so
    /// a result file can be re-read with another estimator.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// A result with every declared metric of its kind present: the
    /// per-layer ones for the traced run, the end-to-end ones otherwise. Per-layer
    /// metrics start at 0 ("does not exist on this workload"); end-to-end
    /// metrics start as NaN and must all be set before printing.
    pub fn new(workload: &'static str, traced: bool) -> RunResult {
        let (decls, init, detail): (&[Decl], f64, &str) = if traced {
            (&PER_LAYER, 0.0, "not on this workload")
        } else {
            (&END_TO_END, f64::NAN, "")
        };
        RunResult {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            iterations: Vec::new(),
            samples: Vec::new(),
            metrics: decls
                .iter()
                .map(|d| Metric {
                    name: d.name,
                    unit: d.unit,
                    value: init,
                    spread_pct: 0.0,
                    exact: false,
                    detail: detail.to_string(),
                })
                .collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
    }

    /// Sets a measured (non-repeating) metric.
    pub fn set(&mut self, name: &str, value: f64, spread_pct: f64, detail: impl Into<String>) {
        let m = self.slot(name);
        m.value = value;
        m.spread_pct = spread_pct;
        m.exact = false;
        m.detail = detail.into();
    }

    /// Sets a count that repeats exactly for a given seed.
    pub fn set_exact(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let m = self.slot(name);
        m.value = value;
        m.spread_pct = 0.0;
        m.exact = true;
        m.detail = detail.into();
    }

    /// Counts one attempted operation; `outcome` is `Err(why)` when it
    /// failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Whether every operation succeeded and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints one `metric` line per metric, then the operation count.
    pub fn print(&self) {
        for m in &self.metrics {
            let exact = if m.exact { " exact" } else { "" };
            println!(
                "metric {} {} {} {} |{exact} {}",
                self.workload, m.name, m.value, m.unit, m.detail
            );
        }
        println!(
            "operations {}: {} attempted, {} failed",
            self.workload, self.attempted, self.failed
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The one-line object the driver reads from the last line of stdout.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .to_line()
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                    ("spread_pct", Json::Num(m.spread_pct)),
                    ("exact", Json::Bool(m.exact)),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "iterations",
                obj(self
                    .iterations
                    .iter()
                    .map(|&(k, n)| (k, Json::Num(n as f64)))),
            ),
            ("metrics", obj(metrics)),
            (
                "samples_s",
                obj(self
                    .samples
                    .iter()
                    .map(|(k, v)| (*k, Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())))),
            ),
        ])
    }
}

/// Facts about the host and the build that every result file carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `std::thread::available_parallelism()`.
    pub available_parallelism: usize,
    /// Whether `dgr`'s telemetry feature was compiled in.
    pub telemetry: bool,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: f64,
    /// Whether `--quick` sizes were used.
    pub quick: bool,
}

/// Most PEs any workload runs as OS threads (the 2-PE marking pass).
pub const MAX_THREADS: usize = 2;

impl Stamp {
    /// Reads the host facts.
    pub fn new(seed: u64, seconds: f64, quick: bool) -> Stamp {
        Stamp {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            telemetry: dgr::telemetry::Registry::new(1).enabled(),
            seed,
            seconds,
            quick,
        }
    }

    /// More PE threads than hardware threads: the 2-PE numbers are then a
    /// time-slicing experiment, not a speed-up.
    pub fn oversubscribed(&self) -> bool {
        MAX_THREADS > self.available_parallelism
    }

    fn to_json(&self) -> Json {
        obj([
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("bench.oversubscribed", Json::Bool(self.oversubscribed())),
            ("telemetry_feature", Json::Bool(self.telemetry)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into())),
        ])
    }

    /// Prints the stamp as one line.
    pub fn print(&self) {
        println!("stamp {}", self.to_json().to_line());
    }
}

/// `benchmark/out/`, created on demand. `cargo run` tells the program
/// where its package lives; a binary started by hand falls back to the
/// place it was built from.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The benchmark package's directory.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Writes `out/<stem>.json` holding the stamp and the given workloads'
/// results, and says where it went.
pub fn write_result_file(stem: &str, stamp: &Stamp, results: &[RunResult]) -> std::io::Result<()> {
    let doc = obj([
        ("stamp", stamp.to_json()),
        (
            "workloads",
            obj(results.iter().map(|r| (r.workload, r.to_json()))),
        ),
    ]);
    let path = out_dir()?.join(format!("{stem}.json"));
    std::fs::write(&path, doc.to_line() + "\n")?;
    println!("wrote {}", path.display());
    Ok(())
}
