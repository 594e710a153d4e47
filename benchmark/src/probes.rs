//! Layer probes: each times one public building block on its own, so the
//! traced run can say what a layer costs per operation under the
//! end-to-end numbers.
//!
//! A probe is a tight loop over a layer's public functions with fixed
//! inputs; the best of three repetitions is reported (the floor is what a
//! change to the layer moves; the rest is the host).

use std::hint::black_box;
use std::time::Instant;

use dgr::baseline::noncoop::mark_under_mutation;
use dgr::graph::markword::Claim;
use dgr::graph::{oracle, GraphStore, MarkParent, MarkWords, NodeLabel, PartitionStrategy, PeId};
use dgr::marking::driver::{run_mark1, run_mark2, MarkRunConfig};
use dgr::sim::{
    DetSim, Envelope, Lane, MailboxGrid, SchedPolicy, SpawnScope, Steal, StealDeque, StealRuntime,
};
use dgr::workloads::graphs::binary_tree_dfs;

use crate::report::RunResult;
use crate::{guarded, Opts};

/// Seconds of the fastest of three runs of `f`, which returns the seconds
/// it measured itself.
fn best_of_3(mut f: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `send` + `next_event` on a two-PE round-robin simulator that always
/// holds 64 pending messages.
fn detsim(ops: u64) -> f64 {
    let mut sim: DetSim<u64> = DetSim::new(2, SchedPolicy::RoundRobin, 0);
    let send = |sim: &mut DetSim<u64>, i: u64| {
        sim.send(Envelope::new(PeId::new((i & 1) as u16), Lane::Marking, i));
    };
    for i in 0..64 {
        send(&mut sim, i);
    }
    timed(|| {
        for i in 0..ops {
            black_box(sim.next_event());
            send(&mut sim, i);
        }
    })
}

/// Owner-side `push` then `pop`, 1024 at a time.
fn deque_push_pop(ops: u64) -> f64 {
    let q: StealDeque = StealDeque::new(8192);
    timed(|| {
        for _ in 0..ops / 1024 {
            for v in 0..1024 {
                q.push(v).expect("ring has room");
            }
            for _ in 0..1024 {
                black_box(q.pop());
            }
        }
    })
}

/// Uncontended `steal`; the pushes that refill the deque are not timed.
fn deque_steal(ops: u64) -> f64 {
    let q: StealDeque = StealDeque::new(8192);
    let mut secs = 0.0;
    for _ in 0..ops / 1024 {
        for v in 0..1024 {
            q.push(v).expect("ring has room");
        }
        secs += timed(|| {
            for _ in 0..1024 {
                match q.steal() {
                    Steal::Success(v) => {
                        black_box(v);
                    }
                    other => panic!("uncontended steal returned {other:?}"),
                }
            }
        });
    }
    secs
}

/// A graph-free binary fan-out of `2^(depth+1) - 1` tasks on the
/// work-stealing runtime. `remote` sends every spawn to the other PE, so
/// each task crosses the mailbox mesh.
fn steal_runtime(pes: u16, depth: u64, remote: bool) -> Result<f64, String> {
    let rt = StealRuntime::new(pes);
    let mut executed = 0;
    let secs = timed(|| {
        let stats = rt.run(
            vec![(PeId::new(0), depth)],
            |scope: &mut SpawnScope<'_>, task: u64| {
                if task > 0 {
                    let me = scope.me().raw();
                    let dst = PeId::new(if remote { (me + 1) % pes } else { me });
                    scope.spawn(dst, task - 1);
                    scope.spawn(dst, task - 1);
                }
            },
        );
        executed = stats.executed;
    });
    let expected = (1u64 << (depth + 1)) - 1;
    if executed == expected {
        Ok(secs)
    } else {
        Err(format!(
            "fan-out executed {executed} tasks, expected {expected}"
        ))
    }
}

/// One SPSC hop PE 0 → PE 1: `push` then a batched `drain`.
fn mailbox_hop(ops: u64) -> f64 {
    let grid: MailboxGrid = MailboxGrid::new(2, 1024);
    let mut out = Vec::with_capacity(512);
    timed(|| {
        for _ in 0..ops / 512 {
            for v in 0..512 {
                grid.push(0, 1, v).expect("ring has room");
            }
            grid.drain(1, &mut out);
            black_box(out.len());
            out.clear();
        }
    })
}

/// `alloc` two vertices, `connect` them, `free` both.
fn alloc_free(ops: u64) -> f64 {
    let mut g = GraphStore::with_capacity(64);
    timed(|| {
        for i in 0..ops / 2 {
            let a = g
                .alloc(NodeLabel::lit_int(i as i64))
                .expect("store has room");
            let b = g.alloc(NodeLabel::Apply).expect("store has room");
            g.connect(b, a);
            g.free(b);
            g.free(a);
        }
        black_box(g.live_count());
    })
}

/// Uncontended `try_claim` (one child) + `complete_child` over a dense
/// array, a fresh epoch per sweep.
fn markword_claim(ops: u64) -> f64 {
    const N: usize = 1 << 16;
    let words: MarkWords = MarkWords::new(N);
    timed(|| {
        for epoch in 1..=(ops as usize / N).max(1) as u32 {
            for i in 0..N {
                let won = words.try_claim(i, epoch, 1, MarkParent::RootPar);
                debug_assert_ne!(won, Claim::Lost);
                black_box(words.complete_child(i, epoch));
            }
        }
    })
}

/// Runs every probe, setting the `sim.*`, `graph.*` and `core.*` probe
/// metrics on `res`; `g` is the graph the oracle and the `DetSim` marking
/// probes run over.
/// Returns `graph.oracle_ns_per_arc`, the plain-BFS floor.
pub fn run(res: &mut RunResult, g: &GraphStore, opts: &Opts) -> f64 {
    let ops: u64 = if opts.quick { 1 << 14 } else { 1 << 21 };
    let depth: u64 = if opts.quick { 13 } else { 20 };
    let per_op = |secs: f64, n: u64| 1e9 * secs / n as f64;

    res.set(
        "sim.detsim_ns_per_msg",
        per_op(best_of_3(|| detsim(ops)), ops),
        0.0,
        "DetSim<u64> send + next_event, 2 PEs, round-robin",
    );
    res.set(
        "sim.deque_push_pop_ns",
        per_op(best_of_3(|| deque_push_pop(ops)), ops),
        0.0,
        "StealDeque push + pop",
    );
    res.set(
        "sim.deque_steal_ns",
        per_op(best_of_3(|| deque_steal(ops)), ops),
        0.0,
        "StealDeque steal, uncontended",
    );
    res.set(
        "sim.mailbox_hop_ns",
        per_op(best_of_3(|| mailbox_hop(ops)), ops),
        0.0,
        "MailboxGrid push + batched drain, per message",
    );
    let tasks = (1u64 << (depth + 1)) - 1;
    for (name, pes, remote, what) in [
        (
            "sim.steal_rt_ns_per_task_1pe",
            1,
            false,
            "local spawns, 1 PE",
        ),
        (
            "sim.steal_rt_ns_per_task_2pe",
            2,
            false,
            "local spawns, 2 PEs",
        ),
        (
            "sim.steal_rt_remote_ns_per_task_2pe",
            2,
            true,
            "every spawn to the other PE",
        ),
    ] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            match guarded(name, || steal_runtime(pes, depth, remote)) {
                Ok(secs) => {
                    res.op(Ok(()));
                    best = best.min(secs);
                }
                Err(e) => res.op(Err(e)),
            }
        }
        res.set(
            name,
            per_op(best, tasks),
            0.0,
            format!("StealRuntime binary fan-out of {tasks} tasks, {what}"),
        );
    }
    res.set(
        "graph.alloc_free_ns",
        per_op(best_of_3(|| alloc_free(ops)), ops),
        0.0,
        "GraphStore alloc + connect + free, per vertex",
    );
    res.set(
        "graph.markword_claim_ns",
        per_op(best_of_3(|| markword_claim(ops)), ops),
        0.0,
        "MarkWords try_claim + complete_child, uncontended",
    );

    let mut reach = oracle::reachable_r(g);
    let oracle_secs = best_of_3(|| {
        timed(|| {
            reach = oracle::reachable_r(g);
        })
    });
    let mut arcs = 0u64;
    for v in reach.iter() {
        g.vertex(v).for_each_r_child(|_| arcs += 1);
    }
    let oracle_ns_per_arc = per_op(oracle_secs, arcs.max(1));
    res.set(
        "graph.oracle_ns_per_arc",
        oracle_ns_per_arc,
        0.0,
        format!("oracle::reachable_r over {arcs} arcs: the plain-BFS floor"),
    );

    let cfg = MarkRunConfig {
        num_pes: 2,
        partition: PartitionStrategy::Block,
        ..MarkRunConfig::default()
    };
    for (name, pass, what) in [
        (
            "core.detsim_mark1_ns_per_msg",
            run_mark1 as fn(&mut _, &_) -> _,
            "run_mark1",
        ),
        ("core.detsim_mark2_ns_per_msg", run_mark2, "run_mark2"),
    ] {
        let mut h = g.clone();
        let outcome = guarded(name, || {
            let t = Instant::now();
            let stats = pass(&mut h, &cfg);
            let secs = t.elapsed().as_secs_f64();
            if stats.marked != reach.len() {
                return Err(format!(
                    "marked {} of {} reachable",
                    stats.marked,
                    reach.len()
                ));
            }
            Ok((secs, stats.events))
        });
        match outcome {
            Ok((secs, events)) => {
                res.op(Ok(()));
                res.set(
                    name,
                    per_op(secs, events),
                    0.0,
                    format!("driver::{what} on DetSim, 2 PEs, {events} events"),
                );
            }
            Err(e) => res.op(Err(e)),
        }
    }

    // Always over a tree, whatever `g` is: on `mark_digraph`'s graph this
    // pass loses one or two live vertices for 2 seeds in 10 (see the
    // README), and a workload may not hold an operation that fails.
    let mut h = binary_tree_dfs(if opts.quick { 10 } else { 16 });
    let outcome = guarded("core.coop_mark_ns_per_msg", || {
        let t = Instant::now();
        let r = mark_under_mutation(&mut h, true, 4, opts.seed);
        let secs = t.elapsed().as_secs_f64();
        // The pass ends with its own oracle sweep; take that back out.
        let sweep = timed(|| {
            black_box(oracle::reachable_r(&h));
        });
        if r.lost_live != 0 {
            return Err(format!(
                "cooperating marking lost {} live vertices",
                r.lost_live
            ));
        }
        Ok(((secs - sweep).max(0.0), r.mark_events, r.mutations))
    });
    match outcome {
        Ok((secs, events, mutations)) => {
            res.op(Ok(()));
            res.set(
                "core.coop_mark_ns_per_msg",
                per_op(secs, events),
                0.0,
                format!("mark1 over a tree under {mutations} cooperating moves, {events} events"),
            );
        }
        Err(e) => res.op(Err(e)),
    }
    oracle_ns_per_arc
}
