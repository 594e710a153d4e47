//! Property-based tests: marking versus the oracle on random graphs, the
//! collector comparisons on random churn, and the reduction engine
//! against a reference evaluator on random arithmetic programs.

use dgr::graph::{oracle, GraphStore, NodeLabel, PrimOp, Slot, TaskEndpoints};
use dgr::marking::driver::{run_mark1, run_mark3, MarkRunConfig};
use dgr::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random graph generation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    edges: Vec<(usize, usize, u8)>, // (from, to, kind: 0 none, 1 eager, 2 vital)
    frees: Vec<usize>,
    seeds: Vec<usize>,
}

fn graph_strategy(max_n: usize) -> impl Strategy<Value = RandomGraph> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0u8..3), 0..n * 3);
        let frees = proptest::collection::vec(1..n, 0..n / 4 + 1);
        let seeds = proptest::collection::vec(0..n, 0..6);
        (edges, frees, seeds).prop_map(move |(edges, frees, seeds)| RandomGraph {
            n,
            edges,
            frees,
            seeds,
        })
    })
}

fn build(rg: &RandomGraph) -> (GraphStore, TaskEndpoints) {
    let mut g = GraphStore::with_capacity(rg.n);
    let ids: Vec<_> = (0..rg.n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &(a, b, kind) in &rg.edges {
        g.connect(ids[a], ids[b]);
        let idx = g.vertex(ids[a]).args().len() - 1;
        let k = match kind {
            1 => Some(dgr::graph::RequestKind::Eager),
            2 => Some(dgr::graph::RequestKind::Vital),
            _ => None,
        };
        g.vertex_mut(ids[a]).set_request_kind(idx, k);
        if k.is_some() {
            // Mirror with a requester back-pointer, as the engine would.
            let from = ids[a];
            g.vertex_mut(ids[b]).add_requester(from.into());
        }
    }
    g.set_root(ids[0]);
    let mut frees: Vec<usize> = rg.frees.clone();
    frees.sort_unstable();
    frees.dedup();
    for &f in &frees {
        // Freeing may leave dangling arcs from live vertices in this
        // synthetic setting; scrub them so the graph is well-formed.
        let victim = ids[f];
        for v in g.live_ids().collect::<Vec<_>>() {
            while g.disconnect(v, victim) {}
            g.remove_requester(v, victim.into());
        }
        g.free(victim);
    }
    let seeds: TaskEndpoints = rg
        .seeds
        .iter()
        .map(|&s| ids[s])
        .filter(|&v| !g.is_free(v))
        .collect();
    (g, seeds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// mark1 marks exactly the oracle's `R`, on every random graph and
    /// schedule seed.
    #[test]
    fn prop_mark1_matches_oracle(rg in graph_strategy(60), seed in 0u64..1000) {
        let (mut g, _) = build(&rg);
        if g.is_free(g.root().unwrap()) { return Ok(()); }
        let want = oracle::reachable_r(&g);
        let cfg = MarkRunConfig {
            policy: dgr::sim::SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            check_invariants: false,
            ..Default::default()
        };
        run_mark1(&mut g, &cfg);
        for v in g.live_ids() {
            prop_assert_eq!(want.contains(v), g.vertex(v).mr.is_marked());
        }
    }

    /// mark2 assigns exactly the oracle's max-min priorities on 1, 2 or 4
    /// PEs under either partition, whichever children it settles in
    /// place: every `mt-cnt` ends at 0, and every mark delivered has its
    /// return delivered.
    #[test]
    fn prop_mark2_matches_oracle(
        rg in graph_strategy(50),
        seed in 0u64..1000,
        pe_log in 0u32..3,
        block in any::<bool>(),
    ) {
        use dgr::graph::{MarkParent, PartitionMap, PartitionStrategy, Priority};
        use dgr::marking::{handle_mark, MarkMsg, MarkState, RMode};
        use dgr::sim::{DetSim, Envelope, Lane, SchedPolicy};
        let (mut g, _) = build(&rg);
        let root = g.root().unwrap();
        if g.is_free(root) { return Ok(()); }
        let want = oracle::priorities(&g);
        let pes = 1u16 << pe_log;
        let partition = if block { PartitionStrategy::Block } else { PartitionStrategy::Modulo };
        let owner = PartitionMap::new(pes, g.capacity(), partition);
        g.begin_mark_cycle(Slot::R);
        let mut state = MarkState::new();
        state.begin_r(RMode::Priority);
        let mut sim = DetSim::new(pes, SchedPolicy::Random { marking_bias: 0.5 }, seed);
        let send = |sim: &mut DetSim<MarkMsg>, m: MarkMsg| {
            sim.send(Envelope::new(owner.pe_of_dest(m.dest_vertex()), Lane::Marking, m));
        };
        let (par, prior) = (MarkParent::RootPar, Priority::Vital);
        send(&mut sim, MarkMsg::Mark2 { v: root, par, prior });
        let (mut marks, mut returns) = (0u64, 0u64);
        while let Some((_, _, _, m)) = sim.next_tagged() {
            match m {
                MarkMsg::Return { .. } => returns += 1,
                _ => marks += 1,
            }
            handle_mark(&mut state, &mut g, &owner, m, &mut |m| send(&mut sim, m));
        }
        prop_assert!(state.r_done);
        prop_assert_eq!(marks, returns);
        for v in g.live_ids() {
            let s = g.mark(v, Slot::R);
            prop_assert_eq!(s.mt_cnt, 0);
            prop_assert_eq!(s.is_marked().then_some(s.prior), want[v.index()]);
        }
    }

    /// mark3 marks exactly the oracle's `T` from the same seeds.
    #[test]
    fn prop_mark3_matches_oracle(rg in graph_strategy(50), seed in 0u64..1000) {
        let (mut g, tasks) = build(&rg);
        let want = oracle::reachable_t(&g, &tasks);
        let cfg = MarkRunConfig {
            policy: dgr::sim::SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        run_mark3(&mut g, &tasks, &cfg);
        for v in g.live_ids() {
            prop_assert_eq!(want.contains(v), g.vertex(v).slot(Slot::T).is_marked());
        }
    }

    /// On every churn trace, marking reclaims exactly what reference
    /// counting reclaims plus what it leaks.
    #[test]
    fn prop_marking_equals_rc_plus_leak(
        steps in 10usize..150,
        size in 1u8..8,
        cyclic in 0.0f64..1.0,
        drop in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        use dgr::marking::{MarkMsg, MarkState};
        use dgr::workloads::churn::{churn_trace, ChurnReplayer};
        let trace = churn_trace(steps, size, cyclic, drop, seed);
        let rc = dgr::baseline::refcount::replay_churn_rc(&trace);

        let mut rep = ChurnReplayer::new(64);
        let mut state = MarkState::new();
        let mut quiet = |_m: MarkMsg| {};
        for &op in &trace {
            rep.apply(op, &mut state, &mut quiet);
        }
        let reach = oracle::reachable_r(&rep.g);
        let gar = oracle::garbage(&rep.g, &reach);
        prop_assert_eq!(gar.len(), rc.reclaimed + rc.leaked);
    }
}

// ---------------------------------------------------------------------
// Random programs against a reference evaluator
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum E {
    Int(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    If(Box<E>, Box<E>, Box<E>), // predicate: lhs < rhs of two ints
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = any::<i8>().prop_map(E::Int);
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(p, t, e)| E::If(
                Box::new(p),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

/// Reference semantics: strict, ⊥-propagating, div-by-zero = ⊥.
fn eval_ref(e: &E) -> Option<i64> {
    match e {
        E::Int(n) => Some(*n as i64),
        E::Add(a, b) => Some(eval_ref(a)?.wrapping_add(eval_ref(b)?)),
        E::Sub(a, b) => Some(eval_ref(a)?.wrapping_sub(eval_ref(b)?)),
        E::Mul(a, b) => Some(eval_ref(a)?.wrapping_mul(eval_ref(b)?)),
        E::Div(a, b) => {
            let (a, b) = (eval_ref(a)?, eval_ref(b)?);
            if b == 0 {
                None
            } else {
                Some(a.wrapping_div(b))
            }
        }
        E::If(p, t, el) => {
            // Predicate: p < 0 (to keep it boolean-typed).
            if eval_ref(p)? < 0 {
                eval_ref(t)
            } else {
                eval_ref(el)
            }
        }
    }
}

fn build_expr(b: &mut Builder<'_>, e: &E) -> dgr::graph::VertexId {
    match e {
        E::Int(n) => b.int(*n as i64),
        E::Add(x, y) => {
            let (x, y) = (build_expr(b, x), build_expr(b, y));
            b.prim2(PrimOp::Add, x, y)
        }
        E::Sub(x, y) => {
            let (x, y) = (build_expr(b, x), build_expr(b, y));
            b.prim2(PrimOp::Sub, x, y)
        }
        E::Mul(x, y) => {
            let (x, y) = (build_expr(b, x), build_expr(b, y));
            b.prim2(PrimOp::Mul, x, y)
        }
        E::Div(x, y) => {
            let (x, y) = (build_expr(b, x), build_expr(b, y));
            b.prim2(PrimOp::Div, x, y)
        }
        E::If(p, t, el) => {
            let p = build_expr(b, p);
            let zero = b.int(0);
            let cond = b.prim2(PrimOp::Lt, p, zero);
            let (t, el) = (build_expr(b, t), build_expr(b, el));
            b.if_(cond, t, el)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The distributed engine computes the same value as the reference
    /// evaluator (laziness may avoid some ⊥ that strict reference
    /// semantics hits, so ⊥-producing programs only require agreement
    /// when the engine also demanded the offending division).
    #[test]
    fn prop_engine_matches_reference(e in expr_strategy(), seed in 0u64..100, spec in any::<bool>()) {
        let mut g = GraphStore::new();
        let mut builder = Builder::new(&mut g);
        let root = build_expr(&mut builder, &e);
        g.set_root(root);
        let cfg = SystemConfig {
            policy: dgr::sim::SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            speculation: spec,
            ..Default::default()
        };
        let mut sys = System::new(g, TemplateStore::new(), cfg);
        let out = sys.run();
        match (eval_ref(&e), out) {
            (Some(want), RunOutcome::Value(Value::Int(got))) => prop_assert_eq!(want, got),
            (Some(want), other) => prop_assert!(false, "wanted {}, got {:?}", want, other),
            (None, RunOutcome::Value(v)) => prop_assert_eq!(v, Value::Bottom),
            (None, other) => prop_assert!(false, "wanted ⊥, got {:?}", other),
        }
    }

    /// Running the same program under the GC driver never changes the
    /// result, on any schedule.
    #[test]
    fn prop_gc_preserves_results(e in expr_strategy(), seed in 0u64..50) {
        let build_sys = |cfg: SystemConfig| {
            let mut g = GraphStore::new();
            let mut builder = Builder::new(&mut g);
            let root = build_expr(&mut builder, &e);
            g.set_root(root);
            System::new(g, TemplateStore::new(), cfg)
        };
        let cfg = SystemConfig {
            policy: dgr::sim::SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        let mut plain = build_sys(cfg.clone());
        let want = plain.run();
        let mut gc = GcDriver::new(build_sys(cfg), GcConfig { period: 13, ..Default::default() });
        let got = gc.run();
        prop_assert_eq!(want, got);
        prop_assert_eq!(gc.sys.stats.dangling_requests, 0);
    }
}
