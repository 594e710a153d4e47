//! `M_T` by need: `GcDriver` runs the task-marking pass only in its first
//! cycle and while a requester whose request may have closed a cycle of
//! waits (`RedStats::wait_cycles` counts it) is neither reclaimed nor
//! valued (`System::waiters`). The oracle, computed
//! at every window's end (the next cycle's `t_a`), checks that a skipped
//! pass had nothing to find and that a pass that ran kept Theorem 2's
//! containments, under every policy, on 1–3 PEs, with and without
//! recovery.

use dgr::graph::oracle::Oracle;
use dgr::graph::VertexId;
use dgr::prelude::*;
use dgr::workloads::programs;

/// A program, whether it evaluates speculatively, and whether it closes a
/// cycle of waits.
struct Case {
    name: String,
    source: String,
    speculation: bool,
    closes_a_cycle: bool,
}

fn cases() -> Vec<Case> {
    let free = |p: programs::Program, speculation| Case {
        name: p.name,
        source: p.source,
        speculation,
        closes_a_cycle: false,
    };
    let cyclic = |source: &str, speculation| Case {
        name: source.into(),
        source: source.into(),
        speculation,
        closes_a_cycle: true,
    };
    vec![
        free(programs::nfib(10), false),
        free(programs::qsort(30), false),
        free(programs::cyclic_sum(100), false),
        free(programs::primes(30), false),
        free(programs::nfib(9), true),
        cyclic(&programs::deadlock_self().source, false),
        cyclic(&programs::deadlock_mutual().source, false),
        cyclic("(let rec x = x + 1 in x) + nfib 8", false),
        // A deadlock inside a speculative branch, chosen and not chosen.
        cyclic("if 1 < 2 then (let rec x = x + 1 in x) else nfib 6", true),
        cyclic("if 1 < 2 then nfib 6 else (let rec x = x + 1 in x)", true),
        cyclic(
            "let f = \\y -> (let rec x = x + y in x) in f 3 + nfib 6",
            false,
        ),
        cyclic("let rec xs = cons (head xs) xs in head xs", false),
    ]
}

/// `DL_v` restricted to vertices without a value: what the deadlock
/// report can name (a valued vertex has nothing left to wait on).
fn unvalued_deadlocked(gc: &GcDriver) -> Vec<VertexId> {
    let g = &gc.sys.graph;
    let o = Oracle::compute(g, &gc.sys.pending_task_endpoints());
    o.deadlocked
        .iter()
        .filter(|&v| g.vertex(v).value.is_none())
        .collect()
}

/// Runs one configuration and checks every cycle against the oracle.
/// Returns how many cycles skipped `M_T` and how many `DL_v(t_a)`
/// vertices a pass that ran reported.
fn check(case: &Case, policy: SchedPolicy, num_pes: u16, deadlock_recovery: bool) -> (u32, usize) {
    let cfg = SystemConfig {
        num_pes,
        policy,
        speculation: case.speculation,
        ..Default::default()
    };
    let sys = build_with_prelude(&case.source, cfg).unwrap();
    // Newest-first chases a speculative recursion that never bottoms out:
    // small budgets keep those runs short.
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            deadlock_recovery,
            phase_budget: 20_000,
            max_total_events: 40_000,
            ..Default::default()
        },
    );
    let what = format!(
        "{} ({policy:?}, {num_pes} PEs, recovery {deadlock_recovery})",
        case.name
    );
    // The oracle's unvalued `DL_v` at each cycle's `t_a`, then at the end
    // of the run.
    let mut at_ta = Vec::new();
    gc.sys.demand_root();
    let out = gc.run_more_with(|gc| at_ta.push(unvalued_deadlocked(gc)));
    if at_ta.len() == gc.timeline().len() {
        at_ta.push(unvalued_deadlocked(&gc));
    }
    let (mut skipped, mut contained) = (0, 0);
    for (c, (dl_ta, dl_next)) in gc.timeline().iter().zip(at_ta.iter().zip(&at_ta[1..])) {
        let cycle = c.cycle;
        if !c.ran_mt {
            assert!(
                dl_ta.is_empty(),
                "{what}: cycle {cycle} skipped M_T over {dl_ta:?}"
            );
            assert!(c.deadlocked.is_empty() && c.marked_t == 0, "{what}");
            skipped += 1;
            continue;
        }
        if c.aborted {
            continue;
        }
        // Theorem 2: DL_v(t_a) ⊆ DL'_v, and DL'_v ⊆ DL_v after the cycle —
        // read at the next window's end, since a deadlocked vertex stays
        // deadlocked unless recovery gives it `⊥`.
        for v in dl_ta {
            assert!(c.deadlocked.contains(v), "{what}: cycle {cycle} missed {v}");
        }
        contained += dl_ta.len();
        if !deadlock_recovery {
            for v in &c.deadlocked {
                assert!(dl_next.contains(v), "{what}: cycle {cycle} flagged {v}");
            }
        }
    }
    let waits = gc.sys.stats.wait_cycles;
    if case.closes_a_cycle {
        // Lifo's speculation can spend the budget before the cycle closes;
        // then no deadlock ever existed.
        let saw = at_ta.iter().any(|dl| !dl.is_empty());
        assert!(
            waits > 0 || (out == RunOutcome::Budget && !saw),
            "{what}: {out:?}"
        );
    } else {
        assert_eq!(waits, 0, "{what}");
    }
    (skipped, contained)
}

#[test]
fn a_skipped_m_t_had_nothing_to_find() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::RoundRobin,
        SchedPolicy::Random { marking_bias: 0.5 },
        SchedPolicy::PriorityFirst,
        SchedPolicy::Rounds,
    ];
    let (mut skipped, mut contained) = (0, 0);
    for case in cases() {
        for policy in policies {
            for num_pes in 1..=3 {
                for deadlock_recovery in [false, true] {
                    let (s, c) = check(&case, policy, num_pes, deadlock_recovery);
                    skipped += s;
                    contained += c;
                }
            }
        }
    }
    // Neither check is vacuous: cycles were skipped, and deadlocks found.
    assert!(skipped > 1000 && contained > 100, "{skipped} {contained}");
}

/// A cycle of waits closed inside a speculative branch that is then
/// discarded stops calling for `M_T` once the branch is reclaimed: its
/// requester leaves `System::waiters`, and later cycles skip the pass.
#[test]
fn a_discarded_cycle_of_waits_stops_calling_for_m_t() {
    let source = "if 1 < 2 then nfib 6 else (let rec x = x + 1 in x)";
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::RoundRobin,
        SchedPolicy::Random { marking_bias: 0.5 },
        SchedPolicy::PriorityFirst,
        SchedPolicy::Rounds,
    ];
    for policy in policies {
        for num_pes in 1..=3 {
            let cfg = SystemConfig {
                num_pes,
                policy,
                speculation: true,
                ..Default::default()
            };
            let gc_cfg = GcConfig {
                phase_budget: 20_000,
                max_total_events: 40_000,
                ..Default::default()
            };
            let mut gc = GcDriver::new(build_with_prelude(source, cfg).unwrap(), gc_cfg);
            let out = gc.run();
            let (s, what) = (gc.stats(), format!("{policy:?}, {num_pes} PEs: {out:?}"));
            assert!(gc.sys.stats.wait_cycles > 0, "{what}");
            assert!(
                s.mt_cycles <= 2,
                "{what}: M_T in {} of {}",
                s.mt_cycles,
                s.cycles
            );
            // Newest-first chases the speculation and never settles the
            // condition within the budget, so the branch is never
            // discarded.
            if out != RunOutcome::Budget {
                assert_eq!(out, RunOutcome::Value(Value::Int(25)), "{what}");
                assert!(s.cycles > 2 && gc.sys.waiters.is_empty(), "{what}");
            }
        }
    }
}
