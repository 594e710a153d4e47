//! `reduce_nogc` and `reduce_gc`: source text → value on the
//! deterministic simulator, without and with the concurrent collector.
//!
//! One iteration evaluates every program once, from source: compile,
//! install, reduce (and, for `reduce_gc`, mark and restructure all the
//! way). The simulator is deterministic, so every iteration delivers the
//! same event sequence and every count repeats exactly; only time varies.

use std::time::Instant;

use dgr::gc::{GcConfig, GcDriver};
use dgr::graph::{oracle, GraphStore, Value};
use dgr::lang::{compile_program, PRELUDE};
use dgr::reduction::{RunOutcome, System, SystemConfig};
use dgr::telemetry::TriggerCause;

use crate::programs::{programs, Program, SHARED_PROGRAMS};
use crate::report::{RunResult, Stamp};
use crate::stats::{fastest, mean, median, percentile, Summary};
use crate::trace::Tracer;
use crate::{guarded, probes, Clock, Opts};

/// Counts of one program evaluation (or, summed, of one iteration). All
/// of them repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    tasks: u64,
    expansions: u64,
    add_references: u64,
    grows: u64,
    /// Messages of every kind the simulator delivered.
    delivered: u64,
    /// Final `graph.capacity()`: the store only grows, so this is its
    /// high-water mark. Summing takes the maximum.
    capacity: u64,
    alloc_bytes: u64,
    live_bytes: u64,
    cycles: u64,
    mt_cycles: u64,
    mark_events: u64,
    /// Largest number of marking events in one cycle (maximum when
    /// summed).
    mark_events_cycle_max: u64,
    reclaimed: u64,
    expunged: u64,
    relaned: u64,
}

impl Counts {
    fn of_system(sys: &System) -> Counts {
        Counts {
            tasks: sys.stats.total_tasks(),
            expansions: sys.stats.expansions,
            add_references: sys.stats.add_references,
            grows: sys.stats.grows,
            delivered: sys.sim().stats().delivered_total(),
            capacity: sys.graph.capacity() as u64,
            alloc_bytes: sys.graph.alloc_bytes_total(),
            live_bytes: sys.graph.live_bytes(),
            ..Counts::default()
        }
    }

    fn of_driver(gc: &GcDriver) -> Counts {
        let s = gc.stats();
        Counts {
            cycles: u64::from(s.cycles),
            mt_cycles: u64::from(s.mt_cycles),
            mark_events: s.mark_events_total,
            mark_events_cycle_max: s.max_cycle_mark_events,
            reclaimed: s.reclaimed_total as u64,
            expunged: s.expunged_total as u64,
            relaned: s.relaned_total as u64,
            ..Counts::of_system(&gc.sys)
        }
    }

    fn total(all: &[Counts]) -> Counts {
        let mut t = Counts::default();
        for c in all {
            t.tasks += c.tasks;
            t.expansions += c.expansions;
            t.add_references += c.add_references;
            t.grows += c.grows;
            t.delivered += c.delivered;
            t.capacity = t.capacity.max(c.capacity);
            t.alloc_bytes += c.alloc_bytes;
            t.live_bytes += c.live_bytes;
            t.cycles += c.cycles;
            t.mt_cycles += c.mt_cycles;
            t.mark_events += c.mark_events;
            t.mark_events_cycle_max = t.mark_events_cycle_max.max(c.mark_events_cycle_max);
            t.reclaimed += c.reclaimed;
            t.expunged += c.expunged;
            t.relaned += c.relaned;
        }
        t
    }
}

/// Wall-clock of the collector's phases, read from `GcDriver::timeline()`.
#[derive(Debug, Clone, Default)]
struct GcTimes {
    /// Duration of every cycle, ms.
    cycle_ms: Vec<f64>,
    mt_ms: f64,
    mr_ms: f64,
    settle_ms: f64,
    restructure_ms: f64,
}

impl GcTimes {
    fn absorb(&mut self, gc: &GcDriver) {
        for c in gc.timeline() {
            self.cycle_ms.push(c.total_us as f64 / 1e3);
            self.mt_ms += c.mt_us as f64 / 1e3;
            self.mr_ms += c.mr_us as f64 / 1e3;
            self.settle_ms += c.settle_us as f64 / 1e3;
            self.restructure_ms += c.restructure_us as f64 / 1e3;
        }
    }
}

fn config(p: &Program) -> SystemConfig {
    SystemConfig {
        num_pes: 2,
        speculation: p.speculation,
        ..SystemConfig::default()
    }
}

fn check_value(p: &Program, out: &RunOutcome) -> Result<(), String> {
    if *out == RunOutcome::Value(Value::Int(p.expected)) {
        Ok(())
    } else {
        Err(format!("expected Int({}), got {out:?}", p.expected))
    }
}

/// One untraced evaluation through the same entry points a user calls.
fn eval(p: &Program, gc: bool, times: &mut GcTimes) -> Result<(Counts, f64), String> {
    guarded(p.name, || {
        let t = Instant::now();
        let sys = dgr::lang::build_with_prelude(&p.source, config(p)).map_err(|e| e.to_string())?;
        let (out, secs, counts) = if gc {
            let mut driver = GcDriver::new(sys, GcConfig::default());
            let out = driver.run();
            let secs = t.elapsed().as_secs_f64();
            times.absorb(&driver);
            (out, secs, Counts::of_driver(&driver))
        } else {
            let mut sys = sys;
            let out = sys.run();
            (out, t.elapsed().as_secs_f64(), Counts::of_system(&sys))
        };
        check_value(p, &out)?;
        Ok((counts, secs))
    })
}

/// What the traced evaluation measures on top of the counts.
#[derive(Debug, Clone, Copy, Default)]
struct Traced {
    compile_ns: u64,
    install_ns: u64,
    window_ns: u64,
    templates: u64,
    /// Reduction events delivered while a marking phase was in force.
    red_during_marking: u64,
    /// Oracle garbage left in the final graph.
    float_garbage: u64,
}

/// The same evaluation composed from the public stages, one span around
/// each call into a layer. With a collector this re-expresses
/// `GcDriver::run_more` step by step; its counts must equal the untraced
/// run's.
fn eval_traced(p: &Program, gc: bool, tr: &mut Tracer) -> Result<(Counts, f64, Traced), String> {
    let depth = tr.depth();
    let r = guarded(p.name, || {
        let mut x = Traced::default();
        let (r, ns) = tr.scope("program", "bench", |tr| {
            let full = format!("{PRELUDE}\nin ({})", p.source);
            let (prog, ns) = tr.scope("lang.compile", "lang", |_| compile_program(&full));
            let prog = prog.map_err(|e| e.to_string())?;
            x.compile_ns = ns;
            x.templates = prog.templates.len() as u64;
            let (g, ns) = tr.scope("lang.install", "lang", |_| {
                let mut g = GraphStore::new();
                let root = prog.install(&mut g)?;
                g.set_root(root);
                Ok::<_, dgr::lang::LangError>(g)
            });
            let g = g.map_err(|e| e.to_string())?;
            x.install_ns = ns;
            let mut sys = System::new(g, prog.templates, config(p));
            let (out, counts, graph) = if gc {
                let mut driver = GcDriver::new(sys, GcConfig::default());
                let out = run_with_spans(&mut driver, tr, &mut x);
                (out, Counts::of_driver(&driver), driver.sys.into_graph())
            } else {
                let (out, ns) = tr.scope("reduction.window", "reduction", |_| sys.run());
                x.window_ns = ns;
                (out, Counts::of_system(&sys), sys.into_graph())
            };
            let (checked, check_ns) = tr.scope("check.oracle", "bench", |_| {
                let live = oracle::reachable_r(&graph);
                x.float_garbage = oracle::garbage(&graph, &live).len() as u64;
                check_value(p, &out)
            });
            checked?;
            // The graph leaves the span alive: the untraced evaluation is
            // not charged for freeing it either.
            Ok::<_, String>((counts, check_ns, graph))
        });
        let (counts, check_ns, _graph) = r?;
        Ok((counts, (ns - check_ns) as f64 / 1e9, x))
    });
    tr.unwind_to(depth);
    r
}

/// `GcDriver::run()` with a span around every reduction window and every
/// collection cycle.
fn run_with_spans(driver: &mut GcDriver, tr: &mut Tracer, x: &mut Traced) -> RunOutcome {
    let cfg = driver.config().clone();
    driver.sys.demand_root();
    loop {
        let mut cause = None;
        let (_, ns) = tr.scope("reduction.window", "reduction", |_| {
            let mut n = 0;
            while driver.sys.result.is_none() {
                if n > 0 {
                    cause = cfg
                        .trigger
                        .fired(n, cfg.period, driver.sys.graph.live_bytes());
                    if cause.is_some() {
                        break;
                    }
                }
                if !driver.sys.step() {
                    break;
                }
                n += 1;
            }
        });
        x.window_ns += ns;
        if let Some(v) = &driver.sys.result {
            return RunOutcome::Value(v.clone());
        }
        let was_quiescent = driver.sys.sim().is_empty();
        let (report, _) = tr.scope("gc.cycle", "gc", |_| {
            driver.run_cycle_as(cause.unwrap_or(TriggerCause::Period))
        });
        x.red_during_marking += report.reduction_events_during_marking;
        if let Some(v) = &driver.sys.result {
            return RunOutcome::Value(v.clone());
        }
        if was_quiescent && driver.sys.sim().is_empty() {
            return RunOutcome::Quiescent;
        }
        if driver.sys.events() >= cfg.max_total_events {
            return RunOutcome::Budget;
        }
    }
}

/// One iteration: every program once. `None` if an evaluation failed.
struct Iteration {
    counts: Vec<Counts>,
    secs: Vec<f64>,
}

impl Iteration {
    fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }
}

fn iteration(
    progs: &[Program],
    gc: bool,
    res: &mut RunResult,
    times: &mut GcTimes,
) -> Option<Iteration> {
    let mut it = Iteration {
        counts: Vec::new(),
        secs: Vec::new(),
    };
    for p in progs {
        match eval(p, gc, times) {
            Ok((c, s)) => {
                res.op(Ok(()));
                it.counts.push(c);
                it.secs.push(s);
            }
            Err(e) => res.op(Err(e)),
        }
    }
    (it.counts.len() == progs.len()).then_some(it)
}

/// The programs a workload evaluates.
fn workload_programs(gc: bool, opts: &Opts) -> Vec<Program> {
    let mut progs = programs(opts.seed, opts.quick);
    if !gc {
        progs.truncate(SHARED_PROGRAMS);
    }
    progs
}

fn name(gc: bool) -> &'static str {
    if gc {
        "reduce_gc"
    } else {
        "reduce_nogc"
    }
}

/// Set-up: generate the inputs and run one untimed warm-up iteration,
/// whose counts become the reference every later iteration must repeat.
fn setup(gc: bool, opts: &Opts, res: &mut RunResult) -> (Vec<Program>, Option<Iteration>) {
    let progs = workload_programs(gc, opts);
    let warm = iteration(&progs, gc, res, &mut GcTimes::default());
    (progs, warm)
}

/// The plain run: end-to-end metrics, nothing traced.
pub fn run(gc: bool, opts: &Opts) -> RunResult {
    let mut res = RunResult::new(name(gc), false);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..opts.setup_repeats() {
        let t = Instant::now();
        state = Some(setup(gc, opts, &mut res));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (progs, warm) = state.expect("set-up runs at least once");
    let Some(warm) = warm else {
        return res;
    };

    let mut iter_secs = Vec::new();
    let mut prog_secs = vec![Vec::new(); progs.len()];
    let mut times = GcTimes::default();
    let mut clock = Clock::start(opts.seconds);
    loop {
        if let Some(it) = iteration(&progs, gc, &mut res, &mut times) {
            res.op(if it.counts == warm.counts {
                Ok(())
            } else {
                Err("an iteration's counts differ from the warm-up's".into())
            });
            iter_secs.push(it.total_secs());
            for (all, s) in prog_secs.iter_mut().zip(&it.secs) {
                all.push(*s);
            }
        }
        if opts.quick || !clock.again() {
            break;
        }
    }
    if iter_secs.is_empty() {
        return res;
    }

    let c = Counts::total(&warm.counts);
    let s = Summary::of(&iter_secs);
    let timing = s.describe(1e3, "ms/iteration");
    // The floor of an iteration: each program's fastest evaluation. Finer
    // than the fastest whole iteration, so a burst on the host has to
    // cover every evaluation of a program to move it.
    let floor: f64 = prog_secs.iter().map(|secs| fastest(secs)).sum();
    res.iterations.push(("measured", s.n as u64));
    res.iterations.push(("setup_repeats", setups.len() as u64));
    res.samples.push(("setup", setups.clone()));
    res.samples.push(("iteration", iter_secs.clone()));
    // Each program in its own row: what it costs and what it exercises.
    for ((p, c), secs) in progs.iter().zip(&warm.counts).zip(prog_secs) {
        println!(
            "program {} {}: {} tasks, {} marking events, {} cycles, {} expunged, capacity {}; {}",
            res.workload,
            p.name,
            c.tasks,
            c.mark_events,
            c.cycles,
            c.expunged,
            c.capacity,
            Summary::of(&secs).describe(1e3, "ms")
        );
        res.samples.push((p.name, secs));
    }
    let setup = Summary::of(&setups);
    res.set(
        "setup_s",
        setup.median,
        setup.iqr_pct(),
        format!("inputs + one warm-up iteration; median of {}", setup.n),
    );
    res.set(
        "tasks_per_s",
        c.tasks as f64 / floor,
        s.iqr_pct(),
        format!(
            "{} reduction tasks / {:.3} ms (each program's fastest evaluation); {timing}",
            c.tasks,
            1e3 * floor
        ),
    );
    res.set_exact(
        "heap_peak_vertices",
        c.capacity as f64,
        "largest final graph.capacity() over the programs",
    );
    if gc {
        res.set_exact(
            "mark_msgs_per_task",
            c.mark_events as f64 / c.tasks as f64,
            format!("{} marking events / {} tasks", c.mark_events, c.tasks),
        );
    } else {
        res.set_exact(
            "mark_msgs_per_task",
            c.delivered as f64 / c.tasks as f64,
            format!(
                "proxy: no marking here, so all {} delivered messages / {} tasks",
                c.delivered, c.tasks
            ),
        );
    }
    for pe in ["mark_msgs_per_s_1pe", "mark_msgs_per_s_2pe"] {
        res.set(
            pe,
            c.delivered as f64 / floor,
            s.iqr_pct(),
            format!(
                "proxy: {} messages of every kind delivered by the one-thread simulator",
                c.delivered
            ),
        );
    }
    res
}

/// The traced run: probes, then untraced and traced iterations side by
/// side, giving the per-layer metrics and the cost of tracing itself.
pub fn run_traced(gc: bool, opts: &Opts, stamp: &Stamp) -> (RunResult, Tracer) {
    let mut res = RunResult::new(name(gc), true);
    let mut tr = Tracer::default();
    let (progs, warm) = setup(gc, opts, &mut res);
    let Some(warm) = warm else {
        return (res, tr);
    };
    let probe_graph = crate::mark::digraph(if opts.quick { 2_000 } else { 100_000 }, opts.seed);
    probes::run(&mut res, &probe_graph, opts);
    drop(probe_graph);

    let shared = &progs[..SHARED_PROGRAMS];
    let mut plain_secs = Vec::new();
    let mut plain_shared_secs = Vec::new();
    let mut nogc_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut traced: Vec<Vec<Traced>> = Vec::new();
    let mut times = GcTimes::default();
    let mut nogc_tasks = 0;
    let mut diverged = false;
    let mut clock = Clock::start(opts.seconds * 0.75);
    let mut round = 0;
    loop {
        if let Some(it) = iteration(&progs, gc, &mut res, &mut times) {
            plain_shared_secs.push(it.secs[..SHARED_PROGRAMS].iter().sum::<f64>());
            plain_secs.push(it.total_secs());
        }
        if gc {
            // The four shared programs without a collector: the price of
            // concurrent collection is the ratio of the two.
            if let Some(it) = iteration(shared, false, &mut res, &mut GcTimes::default()) {
                nogc_tasks = Counts::total(&it.counts).tasks;
                nogc_secs.push(it.total_secs());
            }
        }
        tr.set_iter(round);
        let mut xs = Vec::new();
        let mut secs = 0.0;
        for (p, reference) in progs.iter().zip(&warm.counts) {
            match eval_traced(p, gc, &mut tr) {
                Ok((c, s, x)) => {
                    res.op(Ok(()));
                    diverged |= c != *reference;
                    secs += s;
                    xs.push(x);
                }
                Err(e) => res.op(Err(e)),
            }
        }
        if xs.len() == progs.len() {
            traced_secs.push(secs);
            traced.push(xs);
        }
        round += 1;
        if opts.quick || !clock.again() {
            break;
        }
    }
    if plain_secs.is_empty() || traced.is_empty() {
        return (res, tr);
    }

    let c = Counts::total(&warm.counts);
    let s = Summary::of(&plain_secs);
    res.iterations.push(("untraced", s.n as u64));
    res.iterations.push(("traced", traced.len() as u64));
    let per_iter = |f: fn(&Traced) -> u64| {
        mean(
            &traced
                .iter()
                .map(|xs| xs.iter().map(f).sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let last = traced.last().expect("checked non-empty");
    let exact_sum = |f: fn(&Traced) -> u64| last.iter().map(f).sum::<u64>() as f64;

    res.set(
        "lang.compile_us",
        per_iter(|x| x.compile_ns) / 1e3,
        0.0,
        "compile_program over the iteration's programs, mean per traced iteration",
    );
    res.set(
        "lang.install_us",
        per_iter(|x| x.install_ns) / 1e3,
        0.0,
        "CompiledProgram::install, mean per traced iteration",
    );
    res.set_exact(
        "lang.templates",
        exact_sum(|x| x.templates),
        "supercombinators",
    );

    let (step_secs, step_tasks) = if gc {
        (fastest(&nogc_secs), nogc_tasks)
    } else {
        (s.min, c.tasks)
    };
    res.set(
        "reduction.step_ns",
        1e9 * step_secs / step_tasks as f64,
        s.iqr_pct(),
        format!("collector-free wall / task over {step_tasks} tasks"),
    );
    res.set_exact("reduction.tasks", c.tasks as f64, "requests + returns");
    res.set_exact(
        "reduction.expansions",
        c.expansions as f64,
        "expand-node calls",
    );
    res.set_exact(
        "reduction.add_references",
        c.add_references as f64,
        "add-reference calls",
    );
    res.set_exact("reduction.grows", c.grows as f64, "store growths");
    res.set(
        "reduction.window_ms_total",
        per_iter(|x| x.window_ns) / 1e6,
        0.0,
        "time between cycles, mean per traced iteration",
    );
    res.set_exact(
        "reduction.mutator_share_in_gc",
        exact_sum(|x| x.red_during_marking) / c.tasks as f64,
        "reduction events delivered while marking was in force / tasks",
    );
    res.set_exact(
        "graph.alloc_bytes_total",
        c.alloc_bytes as f64,
        "modeled bytes allocated",
    );
    res.set_exact(
        "graph.live_bytes_end",
        c.live_bytes as f64,
        "modeled bytes live at the end",
    );
    res.set_exact(
        "gc.float_garbage_end",
        exact_sum(|x| x.float_garbage),
        "oracle garbage left in the final graphs",
    );
    res.set(
        "gc.ns_per_msg",
        1e9 * s.min / (c.tasks + c.mark_events) as f64,
        s.iqr_pct(),
        "iteration wall / (tasks + marking events)",
    );
    if gc {
        res.set_exact("gc.cycles", c.cycles as f64, "mark-and-restructure cycles");
        res.set_exact("gc.mt_cycles", c.mt_cycles as f64, "cycles that ran M_T");
        res.set_exact("gc.mark_events", c.mark_events as f64, "marking events");
        res.set_exact(
            "gc.mark_events_per_cycle_max",
            c.mark_events_cycle_max as f64,
            "largest cycle: the pause analogue",
        );
        res.set_exact(
            "gc.reclaimed",
            c.reclaimed as f64,
            "vertices returned to the free list",
        );
        res.set_exact("gc.expunged", c.expunged as f64, "irrelevant tasks deleted");
        res.set_exact("gc.relaned", c.relaned as f64, "requests re-prioritized");
        let n = s.n as f64;
        res.set(
            "gc.cycle_ms_p50",
            percentile(&times.cycle_ms, 50.0),
            0.0,
            "per cycle",
        );
        res.set(
            "gc.cycle_ms_p99",
            percentile(&times.cycle_ms, 99.0),
            0.0,
            "per cycle",
        );
        res.set("gc.mt_ms_total", times.mt_ms / n, 0.0, "M_T per iteration");
        res.set("gc.mr_ms_total", times.mr_ms / n, 0.0, "M_R per iteration");
        res.set(
            "gc.settle_ms_total",
            times.settle_ms / n,
            0.0,
            "settle per iteration",
        );
        res.set(
            "gc.restructure_ms_total",
            times.restructure_ms / n,
            0.0,
            "restructure per iteration",
        );
        res.set(
            "gc.overhead_factor",
            fastest(&plain_shared_secs) / fastest(&nogc_secs),
            0.0,
            "shared programs: time with the collector / time without",
        );
    }
    res.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced_secs) / s.median - 1.0),
        0.0,
        "median traced iteration vs median untraced iteration",
    );
    res.set("bench.iter_ms_p50", 1e3 * s.median, s.iqr_pct(), "untraced");
    res.set("bench.iter_ms_iqr_pct", s.iqr_pct(), 0.0, "untraced");
    res.set_exact(
        "bench.host_parallelism",
        stamp.available_parallelism as f64,
        "available_parallelism",
    );
    res.set_exact(
        "bench.oversubscribed",
        0.0,
        "the simulator runs on one thread",
    );
    res.set_exact(
        "bench.trace_diverged",
        f64::from(u8::from(diverged)),
        "1 if the span-composed run's counts differ from GcDriver::run()'s",
    );
    (res, tr)
}
