//! Every figure of the paper as an executable scenario.

use dgr::graph::{
    oracle, GraphStore, NodeLabel, PrimOp, RequestKind, Requester, Slot, TaskClass, TaskEndpoints,
};
use dgr::marking::driver::{run_mark1, run_mark2, run_mark3, MarkRunConfig};
use dgr::prelude::*;

/// Figure 3-1: the deadlocked computation `x = x + 1`.
///
/// `x ∈ args(x)`, so x awaits its own value; once task activity ceases,
/// `x ∈ R_v − T = DL_v`.
#[test]
fn figure_3_1_deadlock() {
    // Static characterization (Property 2').
    let mut g = GraphStore::with_capacity(4);
    let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
    let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
    g.connect(x, x);
    g.vertex_mut(x)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(x, one);
    g.vertex_mut(x)
        .set_request_kind(1, Some(RequestKind::Vital));
    g.set_root(x);
    let o = oracle::Oracle::compute(&g, &TaskEndpoints::new());
    assert!(o.deadlocked.contains(x));

    // Dynamic detection: the same graph arises from the source program,
    // the system drains, and the M_T-then-M_R cycle finds the deadlock.
    let sys = dgr::lang::build_system("let rec x = x + 1 in x", SystemConfig::default()).unwrap();
    let mut gc = dgr::gc::GcDriver::new(sys, dgr::gc::GcConfig::default());
    assert_eq!(gc.run(), RunOutcome::Quiescent);
    assert!(!gc.last_report().deadlocked.is_empty());

    // Recovery (footnote 5): returning ⊥ unblocks the requesters.
    let sys = dgr::lang::build_system("let rec x = x + 1 in x", SystemConfig::default()).unwrap();
    let mut gc = dgr::gc::GcDriver::new(
        sys,
        dgr::gc::GcConfig {
            deadlock_recovery: true,
            ..Default::default()
        },
    );
    assert_eq!(gc.run(), RunOutcome::Value(Value::Bottom));
}

/// Figure 3-2: vital, eager, irrelevant and reserve tasks, frozen at the
/// moment the figure depicts.
///
/// The expression is `if p then d else c, where p = if true then (a+1)
/// else (a+b+c)`. The lower `if` eagerly requested its branches, then
/// found its predicate true: `(a+1)` implicitly became vital, the
/// `(a+b+c)` branch was dereferenced. The task bound for `(a+1)` is now
/// VITAL, a task in the dereferenced subgraph is IRRELEVANT, a task bound
/// for the speculated `d` is EAGER, and a task bound for `c` — dropped by
/// the dereference but still an (unrequested) argument of the upper `if`
/// — is RESERVE.
#[test]
fn figure_3_2_task_taxonomy() {
    let mut g = GraphStore::with_capacity(16);
    let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let b = g.alloc(NodeLabel::lit_int(2)).unwrap();
    let c = g.alloc(NodeLabel::lit_int(3)).unwrap();
    let d = g.alloc(NodeLabel::lit_int(4)).unwrap();
    let plus1 = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap(); // a + 1
    let plus2 = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap(); // a + b (+ c)
    let plus3 = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap(); // (a+b) + c
    let p = g.alloc(NodeLabel::If).unwrap();
    let z = g.alloc(NodeLabel::If).unwrap(); // the upper if (root)

    // plus1 = a + 1, vitally in progress.
    g.connect(plus1, a);
    g.vertex_mut(plus1)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(plus1, one);
    g.vertex_mut(plus1)
        .set_request_kind(1, Some(RequestKind::Vital));

    // plus3 = plus2 + c, the dereferenced else-branch (no incoming arcs
    // from p anymore). Its own sub-requests are still recorded.
    g.connect(plus2, a);
    g.connect(plus2, b);
    g.vertex_mut(plus2)
        .set_request_kind(1, Some(RequestKind::Vital));
    g.connect(plus3, plus2);
    g.vertex_mut(plus3)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(plus3, c);

    // p: predicate resolved true; plus1 upgraded to vital; plus3 arc
    // dereferenced (gone).
    g.connect(p, plus1);
    g.vertex_mut(p)
        .set_request_kind(0, Some(RequestKind::Vital));

    // z: if p then d else c — p vital, d speculated eagerly, c not (yet)
    // requested.
    g.connect(z, p);
    g.vertex_mut(z)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(z, d);
    g.vertex_mut(z)
        .set_request_kind(1, Some(RequestKind::Eager));
    g.connect(z, c);
    g.vertex_mut(p).add_requester(Requester::Vertex(z));
    g.set_root(z);

    // The four outstanding tasks of the figure.
    let mut tasks = TaskEndpoints::new();
    tasks.push_task(Some(p), plus1); // in quest of the now-vital branch
    tasks.push_task(Some(z), d); // the speculation on d
    tasks.push_task(Some(plus3), b); // deep inside the dereferenced region
    tasks.push_task(Some(plus3), c); // spawned by the dead region toward shared c

    let o = oracle::Oracle::compute(&g, &tasks);
    assert_eq!(o.classify_task(&g, plus1), TaskClass::Vital, "Property 3");
    assert_eq!(o.classify_task(&g, d), TaskClass::Eager, "Property 4");
    assert_eq!(o.classify_task(&g, c), TaskClass::Reserve, "Property 5");
    assert_eq!(o.classify_task(&g, b), TaskClass::Irrelevant, "Property 6");
    assert_eq!(o.classify_task(&g, plus3), TaskClass::Irrelevant);

    // And the full cycle agrees once run over the same graph.
    run_mark3(&mut g, &tasks, &MarkRunConfig::default());
    run_mark2(&mut g, &MarkRunConfig::default());
    assert_eq!(
        dgr::gc::classify_pending_tasks(&System::new(
            g.clone(),
            TemplateStore::new(),
            SystemConfig::default()
        ))
        .total(),
        0,
        "census counts only the system's own pools"
    );
    use dgr::gc::classify_task_by_marks as by_marks;
    assert_eq!(by_marks(&g, plus1), TaskClass::Vital);
    assert_eq!(by_marks(&g, d), TaskClass::Eager);
    assert_eq!(by_marks(&g, c), TaskClass::Reserve);
    assert_eq!(by_marks(&g, b), TaskClass::Irrelevant);
}

/// Figure 3-3: the Venn relationships among R_v, R_e, R_r, GAR, F, T.
#[test]
fn figure_3_3_venn_relationships() {
    for seed in 0..50 {
        let mut g = dgr::workloads::graphs::random_digraph(300, 2.5, seed);
        dgr::workloads::graphs::sprinkle_request_kinds(&mut g, 0.3, 0.3, seed + 1);
        // Random free vertices and task seeds. A real system only frees
        // unreferenced vertices; scrub in-arcs first, as restructuring
        // would.
        let frees: Vec<_> = g.live_ids().skip(200).take(30).collect();
        for victim in frees {
            for v in g.live_ids().collect::<Vec<_>>() {
                while g.disconnect(v, victim) {}
                g.remove_requester(v, victim.into());
            }
            g.free(victim);
        }
        let tasks: TaskEndpoints = g.live_ids().take(10).collect();
        let o = oracle::Oracle::compute(&g, &tasks);

        let rv = o.priority_class(Priority::Vital);
        let re = o.priority_class(Priority::Eager);
        let rr = o.priority_class(Priority::Reserve);
        // R_v ∪ R_e ∪ R_r = R, pairwise disjoint (priority is a function).
        assert_eq!(rv.len() + re.len() + rr.len(), o.r.len(), "seed {seed}");
        for v in o.r.iter() {
            assert!(o.prior[v.index()].is_some());
        }
        // GAR disjoint from R and from F.
        for v in o.garbage.iter() {
            assert!(!o.r.contains(v) && !g.is_free(v), "seed {seed}");
        }
        // DL_v = R_v − T.
        for v in o.deadlocked.iter() {
            assert!(rv.contains(v) && !o.t.contains(v), "seed {seed}");
        }
        // Everything is in exactly one of R / GAR / F.
        for v in g.ids() {
            let in_r = o.r.contains(v);
            let in_gar = o.garbage.contains(v);
            let in_f = g.is_free(v);
            assert_eq!(
                usize::from(in_r) + usize::from(in_gar) + usize::from(in_f),
                1,
                "seed {seed}, vertex {v}"
            );
        }
    }
}

/// Figure 4-1: the simplified marking algorithm marks exactly `R`.
#[test]
fn figure_4_1_simplified_marking() {
    for seed in 0..10 {
        let mut g = dgr::workloads::graphs::random_digraph(500, 3.0, seed);
        let want = oracle::reachable_r(&g);
        let cfg = MarkRunConfig {
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            check_invariants: seed < 3, // expensive; spot-check
            ..Default::default()
        };
        run_mark1(&mut g, &cfg);
        for v in g.live_ids() {
            assert_eq!(
                want.contains(v),
                g.vertex(v).mr.is_marked(),
                "seed {seed}, vertex {v}"
            );
        }
    }
}

/// Figure 4-2: the cooperating mutator primitives under the canonical
/// lost-vertex interleaving (a→b→c; connect a→c, delete b→c while the
/// mark for b is in flight).
#[test]
fn figure_4_2_cooperating_mutators() {
    use dgr::graph::{MarkParent, PartitionMap, PartitionStrategy};
    use dgr::marking::{coop, handle_mark, MarkMsg, MarkState, RMode};

    for coop_on in [true, false] {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(7)).unwrap();
        g.connect(a, b);
        g.connect(b, c);
        g.set_root(a);

        let mut state = MarkState::new();
        state.cooperation_enabled = coop_on;
        state.begin_r(RMode::Simple);
        let one_pe = PartitionMap::new(1, g.capacity(), PartitionStrategy::Modulo);
        let mut pending = Vec::new();
        handle_mark(
            &mut state,
            &mut g,
            &one_pe,
            MarkMsg::Mark1 {
                v: a,
                par: MarkParent::RootPar,
            },
            &mut |m| pending.push(m),
        );
        // The mutations race ahead of the in-flight mark for b.
        coop::add_reference(&mut state, &mut g, a, b, c, &mut |m| pending.push(m)).unwrap();
        coop::delete_reference(&mut g, b, c);
        while let Some(m) = pending.pop() {
            let mut buf = Vec::new();
            handle_mark(&mut state, &mut g, &one_pe, m, &mut |m| buf.push(m));
            pending.extend(buf);
        }
        assert!(state.r_done);
        assert_eq!(
            g.vertex(c).mr.is_marked(),
            coop_on,
            "c survives iff the mutator cooperates"
        );
    }
}

/// Figures 5-1/5-2: `M_R` assigns the max-over-paths of min-over-arcs
/// priority, upgrading on higher-priority re-marks.
#[test]
fn figure_5_1_priority_marking() {
    for seed in 0..10 {
        let mut g = dgr::workloads::graphs::shared_dag(5, 4);
        dgr::workloads::graphs::sprinkle_request_kinds(&mut g, 0.4, 0.4, seed);
        let want = oracle::priorities(&g);
        let cfg = MarkRunConfig {
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        run_mark2(&mut g, &cfg);
        for v in g.live_ids() {
            let got = g.vertex(v).mr.is_marked().then(|| g.vertex(v).mr.prior);
            assert_eq!(got, want[v.index()], "seed {seed}, vertex {v}");
        }
        dgr::marking::invariants::check_priority_closure(&g).unwrap();
    }
}

/// Figure 5-3: `M_T` marks exactly the task-reachable set, tracing
/// `requested(v) ∪ (args(v) − req-args(v))` from the virtual task roots.
#[test]
fn figure_5_3_task_marking() {
    for seed in 0..10 {
        let mut g = dgr::workloads::graphs::random_digraph(400, 2.5, seed);
        dgr::workloads::graphs::sprinkle_request_kinds(&mut g, 0.3, 0.2, seed);
        // Mirror some request arcs with requester back-pointers, as the
        // engine would.
        let ids: Vec<_> = g.live_ids().collect();
        for &v in &ids {
            let reqs: Vec<_> = v_requested_args(&g, v);
            for c in reqs {
                g.vertex_mut(c).add_requester(Requester::Vertex(v));
            }
        }
        let tasks: TaskEndpoints = ids.iter().copied().step_by(37).collect();
        let want = oracle::reachable_t(&g, &tasks);
        run_mark3(&mut g, &tasks, &MarkRunConfig::default());
        for v in g.live_ids() {
            assert_eq!(
                want.contains(v),
                g.vertex(v).slot(Slot::T).is_marked(),
                "seed {seed}, vertex {v}"
            );
        }
    }
}

fn v_requested_args(g: &GraphStore, v: dgr::graph::VertexId) -> Vec<dgr::graph::VertexId> {
    g.vertex(v).req_args().collect()
}
