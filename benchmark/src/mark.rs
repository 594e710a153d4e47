//! `mark_tree` and `mark_digraph`: the threaded `mark1` pass on the
//! work-stealing runtime, alternating one pass at 1 PE and one at 2 PEs
//! over the same shared graph.
//!
//! The tree (preorder-numbered, block-partitioned) sends almost nothing
//! across PEs, so deque traffic, the claim CAS and stealing do the work;
//! the random digraph sends about half its tasks across, so the mailbox
//! hop dominates. Same code, opposite regimes.

use std::time::Instant;

use dgr::graph::{oracle, Color, GraphStore, PartitionStrategy, Slot, VertexId, VertexSet};
use dgr::marking::driver::{run_mark1, MarkRunConfig};
use dgr::marking::threaded::{reset_shared_r, run_mark1_shared, ThreadedMarkStats};
use dgr::sim::SharedGraph;
use dgr::workloads::graphs::{binary_tree_dfs, random_digraph};

use crate::report::{RunResult, Stamp};
use crate::stats::{mean, median, Summary};
use crate::trace::Tracer;
use crate::{guarded, probes, Clock, Opts};

/// Which graph a marking workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `binary_tree_dfs(18)`: 524 287 vertices in preorder.
    Tree,
    /// `random_digraph(500_000, 3.0, seed)` plus 16 arcs out of the root.
    Digraph,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Tree => "mark_tree",
            Shape::Digraph => "mark_digraph",
        }
    }

    fn build(self, opts: &Opts) -> GraphStore {
        match self {
            Shape::Tree => binary_tree_dfs(if opts.quick { 10 } else { 18 }),
            Shape::Digraph => digraph(if opts.quick { 5_000 } else { 500_000 }, opts.seed),
        }
    }
}

/// Extra arcs out of the digraph's root.
const ROOT_ARCS: usize = 16;

/// `random_digraph(n, 3.0, seed)` whose root also points at [`ROOT_ARCS`]
/// evenly spaced vertices. A third of all single vertices of such a graph
/// never reach its giant component (and a quarter have no arcs at all), so
/// without the extra arcs one seed in three marks a handful of vertices;
/// with them every seed marks about the same share of the graph.
pub fn digraph(n: usize, seed: u64) -> GraphStore {
    let mut g = random_digraph(n, 3.0, seed);
    let root = g.root().expect("random_digraph sets a root");
    for i in 1..=ROOT_ARCS {
        g.connect(root, VertexId::new((i * (n / (ROOT_ARCS + 1))) as u32));
    }
    g
}

const PARTITION: PartitionStrategy = PartitionStrategy::Block;

/// What every pass is checked against, computed once from the plain
/// store: the oracle's reachable set and the event count of the
/// deterministic simulator's `mark1` over the same graph (`mark1` sends
/// one return per mark and marks each first visit once, so the count is
/// independent of schedule and PE count).
struct Reference {
    reach: VertexSet,
    events: u64,
}

impl Reference {
    fn compute(store: &GraphStore) -> Result<Reference, String> {
        guarded("reference", || {
            let reach = oracle::reachable_r(store);
            let mut sim_store = store.clone();
            let stats = run_mark1(
                &mut sim_store,
                &MarkRunConfig {
                    num_pes: 2,
                    partition: PARTITION,
                    ..MarkRunConfig::default()
                },
            );
            if stats.marked != reach.len() {
                return Err(format!(
                    "simulator marked {} vertices, oracle reaches {}",
                    stats.marked,
                    reach.len()
                ));
            }
            Ok(Reference {
                reach,
                events: stats.events,
            })
        })
    }
}

/// One pass from freshly reset marks; returns its wall-clock seconds.
fn timed_pass(shared: &SharedGraph, pes: u16) -> (f64, ThreadedMarkStats) {
    reset_shared_r(shared);
    let t = Instant::now();
    let stats = run_mark1_shared(shared, pes, PARTITION);
    (t.elapsed().as_secs_f64(), stats)
}

/// The checks on a finished pass, outside its timed region: message count
/// equal to the simulator's event count, marked set equal to the oracle's.
fn check_pass(
    shared: &SharedGraph,
    stats: &ThreadedMarkStats,
    reference: &Reference,
) -> Result<(), String> {
    if stats.messages != reference.events {
        return Err(format!(
            "{} messages, the simulator delivers {}",
            stats.messages, reference.events
        ));
    }
    let epoch = shared.mark_epoch(Slot::R);
    let marks = shared.marks();
    for i in 0..shared.capacity() {
        let marked = marks.probe(i, epoch) == Some(Color::Marked);
        if marked != reference.reach.contains(VertexId::new(i as u32)) {
            return Err(format!("vertex {i}: marked {marked}, oracle disagrees"));
        }
    }
    Ok(())
}

const PASSES: [(&str, u16); 2] = [("core.pass_1pe", 1), ("core.pass_2pe", 2)];

/// A 1-PE pass and a 2-PE pass, each one operation; `None` if either
/// failed. With a tracer, each pass and each check gets a span.
fn pair(
    shared: &SharedGraph,
    reference: &Reference,
    res: &mut RunResult,
    mut tr: Option<&mut Tracer>,
) -> Option<[(f64, ThreadedMarkStats); 2]> {
    let results = PASSES.map(|(name, pes)| {
        let depth = tr.as_ref().map(|tr| tr.depth());
        let r = guarded(name, || match tr.as_deref_mut() {
            None => {
                let r = timed_pass(shared, pes);
                check_pass(shared, &r.1, reference)?;
                Ok(r)
            }
            Some(tr) => {
                let (r, _) = tr.scope(name, "core", |_| timed_pass(shared, pes));
                tr.scope("check.oracle", "bench", |_| {
                    check_pass(shared, &r.1, reference)
                })
                .0?;
                Ok(r)
            }
        });
        if let (Some(tr), Some(depth)) = (tr.as_deref_mut(), depth) {
            tr.unwind_to(depth);
        }
        res.op(r.as_ref().map(|_| ()).map_err(String::clone));
        r.ok()
    });
    let [one, two] = results;
    Some([one?, two?])
}

/// The graph in shared form, warmed up, plus what set-up measured.
struct Ready {
    shared: SharedGraph,
    reference: Reference,
    /// Timed set-up: input generation, `from_store`, one warm-up pair.
    setup_secs: f64,
    from_store_ms: f64,
}

/// Set-up. The reference is computed between the timed segments (once:
/// later repeats reuse it), so `setup_secs` holds set-up work only.
fn setup(
    shape: Shape,
    opts: &Opts,
    reference: Option<Reference>,
    res: &mut RunResult,
) -> Result<Ready, String> {
    let t = Instant::now();
    let store = shape.build(opts);
    let mut setup_secs = t.elapsed().as_secs_f64();
    let reference = match reference {
        Some(r) => r,
        None => Reference::compute(&store)?,
    };
    let t = Instant::now();
    let shared = SharedGraph::from_store(store);
    let from_store_ms = 1e3 * t.elapsed().as_secs_f64();
    pair(&shared, &reference, res, None).ok_or("the warm-up pair failed")?;
    setup_secs += t.elapsed().as_secs_f64();
    Ok(Ready {
        shared,
        reference,
        setup_secs,
        from_store_ms,
    })
}

/// The plain run: end-to-end metrics, nothing traced.
///
/// The measuring time is split evenly over the set-up repeats. Each
/// set-up allocates the graph afresh, and where its pages land moves pass
/// times by a few percent for as long as that graph lives; measuring on
/// every set-up lets the rates come from the best placement of several,
/// not from the one a process happened to get.
pub fn run(shape: Shape, opts: &Opts, stamp: &Stamp) -> RunResult {
    let mut res = RunResult::new(shape.name(), false);
    let repeats = opts.setup_repeats();
    let mut setups = Vec::new();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut reference = None;
    let mut capacity = 0;
    for _ in 0..repeats {
        let ready = match setup(shape, opts, reference.take(), &mut res) {
            Ok(ready) => ready,
            Err(e) => {
                res.op(Err(e));
                return res;
            }
        };
        setups.push(ready.setup_secs);
        let mut clock = Clock::start(opts.seconds / repeats as f64);
        loop {
            if let Some([(a, _), (b, _)]) = pair(&ready.shared, &ready.reference, &mut res, None) {
                t1.push(a);
                t2.push(b);
            }
            if opts.quick || !clock.again() {
                break;
            }
        }
        capacity = ready.shared.capacity();
        // Keeps the reference, drops the graph: two need not fit.
        reference = Some(ready.reference);
    }
    let reference = reference.expect("set-up runs at least once");
    if t1.is_empty() {
        return res;
    }

    let msgs = reference.events as f64;
    let (s1, s2) = (Summary::of(&t1), Summary::of(&t2));
    res.iterations.push(("pairs", s1.n as u64));
    res.iterations.push(("setup_repeats", setups.len() as u64));
    res.samples.push(("setup", setups.clone()));
    res.samples.push(("pass_1pe", t1.clone()));
    res.samples.push(("pass_2pe", t2.clone()));
    let setup = Summary::of(&setups);
    res.set(
        "setup_s",
        setup.median,
        setup.iqr_pct(),
        format!(
            "graph + from_store + one warm-up pair; median of {}",
            setup.n
        ),
    );
    res.set(
        "tasks_per_s",
        2.0 * msgs / (s1.min + s2.min),
        s1.iqr_pct().max(s2.iqr_pct()),
        "proxy: marking tasks / s over the 1-PE + 2-PE pair",
    );
    res.set_exact(
        "heap_peak_vertices",
        capacity as f64,
        "proxy: vertices in the marked store",
    );
    res.set_exact(
        "mark_msgs_per_task",
        msgs / reference.reach.len() as f64,
        format!(
            "proxy: {msgs} messages / {} vertices marked",
            reference.reach.len()
        ),
    );
    res.set(
        "mark_msgs_per_s_1pe",
        msgs / s1.min,
        s1.iqr_pct(),
        format!(
            "{msgs} messages / fastest pass; {}",
            s1.describe(1e3, "ms/pass")
        ),
    );
    let flag = if stamp.oversubscribed() {
        "OVERSUBSCRIBED (2 PEs on 1 hardware thread); "
    } else {
        ""
    };
    res.set(
        "mark_msgs_per_s_2pe",
        msgs / s2.min,
        s2.iqr_pct(),
        format!(
            "{flag}{msgs} messages / fastest pass; {}",
            s2.describe(1e3, "ms/pass")
        ),
    );
    res
}

/// The traced run: probes over the workload's own graph, then untraced
/// and traced pairs side by side.
pub fn run_traced(shape: Shape, opts: &Opts, stamp: &Stamp) -> (RunResult, Tracer) {
    let mut res = RunResult::new(shape.name(), true);
    let mut tr = Tracer::default();
    // The probes run over the workload's own graph, in plain form.
    let oracle_ns_per_arc = probes::run(&mut res, &shape.build(opts), opts);
    let ready = match setup(shape, opts, None, &mut res) {
        Ok(r) => r,
        Err(e) => {
            res.op(Err(e));
            return (res, tr);
        }
    };
    let Ready {
        shared,
        reference,
        from_store_ms,
        ..
    } = ready;

    let (mut t1, mut t2, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut two_pe: Vec<ThreadedMarkStats> = Vec::new();
    let mut clock = Clock::start(opts.seconds * 0.75);
    let mut round = 0;
    loop {
        if let Some([(a, _), (b, stats)]) = pair(&shared, &reference, &mut res, None) {
            t1.push(a);
            t2.push(b);
            two_pe.push(stats);
        }
        tr.set_iter(round);
        let (both, _) = tr.scope("pair", "bench", |tr| {
            pair(&shared, &reference, &mut res, Some(tr))
        });
        if let Some([(a, _), (b, _)]) = both {
            traced.push(a + b);
        }
        round += 1;
        if opts.quick || !clock.again() {
            break;
        }
    }
    if t1.is_empty() || traced.is_empty() {
        return (res, tr);
    }

    let msgs = reference.events as f64;
    let (s1, s2) = (Summary::of(&t1), Summary::of(&t2));
    res.iterations.push(("untraced_pairs", s1.n as u64));
    res.iterations.push(("traced_pairs", traced.len() as u64));
    let over = |f: fn(&ThreadedMarkStats) -> u64| {
        mean(&two_pe.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    res.set(
        "sim.envelopes_per_msg",
        over(|s| s.envelopes) / msgs,
        0.0,
        "cross-PE envelopes / message at 2 PEs",
    );
    res.set("sim.steals", over(|s| s.steals), 0.0, "mean per 2-PE pass");
    let attempts = over(|s| s.steals + s.steal_fails);
    res.set(
        "sim.steal_fail_share",
        if attempts > 0.0 {
            over(|s| s.steal_fails) / attempts
        } else {
            0.0
        },
        0.0,
        "steal_fails / (steals + steal_fails) at 2 PEs",
    );
    res.set("sim.parks", over(|s| s.parks), 0.0, "mean per 2-PE pass");
    res.set(
        "sim.spill_hw",
        two_pe.iter().map(|s| s.spill_hw).max().unwrap_or(0) as f64,
        0.0,
        "deepest private spill at 2 PEs",
    );
    res.set(
        "graph.shared_from_store_ms",
        from_store_ms,
        0.0,
        "SharedGraph::from_store",
    );
    res.set(
        "core.speedup_2pe",
        s1.min / s2.min,
        s1.iqr_pct().max(s2.iqr_pct()),
        "1-PE pass time / 2-PE pass time",
    );
    res.set(
        "core.mark_vs_bfs_factor",
        (1e9 * s1.min / msgs) / oracle_ns_per_arc,
        s1.iqr_pct(),
        "1-PE ns per message / oracle ns per arc",
    );
    let pairs: Vec<f64> = t1.iter().zip(&t2).map(|(a, b)| a + b).collect();
    let sp = Summary::of(&pairs);
    res.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced) / sp.median - 1.0),
        0.0,
        "median traced pair vs median untraced pair",
    );
    res.set(
        "bench.iter_ms_p50",
        1e3 * sp.median,
        sp.iqr_pct(),
        "untraced pair",
    );
    res.set("bench.iter_ms_iqr_pct", sp.iqr_pct(), 0.0, "untraced pair");
    res.set_exact(
        "bench.host_parallelism",
        stamp.available_parallelism as f64,
        "available_parallelism",
    );
    res.set_exact(
        "bench.oversubscribed",
        f64::from(u8::from(stamp.oversubscribed())),
        "1 if the 2-PE pass has fewer than 2 hardware threads",
    );
    res.set_exact(
        "bench.trace_diverged",
        0.0,
        "spans sit around whole passes: nothing to diverge",
    );
    (res, tr)
}
