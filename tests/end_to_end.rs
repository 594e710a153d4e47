//! Cross-crate end-to-end scenarios: source programs through the
//! compiler, the distributed reduction engine, and the concurrent GC, on
//! many schedules and PE counts.

use dgr::gc::{GcConfig, GcDriver};
use dgr::lang::{build_system, build_with_prelude};
use dgr::prelude::*;
use dgr::workloads::programs;

fn run_gc(
    src: &str,
    prelude: bool,
    sys_cfg: SystemConfig,
    gc_cfg: GcConfig,
) -> (RunOutcome, GcDriver) {
    let sys = if prelude {
        build_with_prelude(src, sys_cfg)
    } else {
        build_system(src, sys_cfg)
    }
    .unwrap_or_else(|e| panic!("{src}: {e}"));
    let mut gc = GcDriver::new(sys, gc_cfg);
    let out = gc.run();
    (out, gc)
}

#[test]
fn program_catalog_under_gc_matches_expected() {
    for p in programs::catalog() {
        let (out, gc) = run_gc(
            &p.source,
            p.needs_prelude,
            SystemConfig::default(),
            GcConfig {
                period: 150,
                ..Default::default()
            },
        );
        let expected = p.expected.clone().expect("catalog programs terminate");
        assert_eq!(out, RunOutcome::Value(expected), "{}", p.name);
        assert_eq!(gc.sys.stats.dangling_requests, 0, "{}", p.name);
        assert!(gc.sys.graph.check_consistency().is_ok(), "{}", p.name);
    }
}

#[test]
fn results_invariant_across_pes_policies_and_periods() {
    let p = programs::qsort(25);
    let expected = RunOutcome::Value(p.expected.clone().unwrap());
    for pes in [1u16, 4, 16] {
        for (policy, seed) in [
            (SchedPolicy::Fifo, 0),
            (SchedPolicy::RoundRobin, 0),
            (SchedPolicy::Random { marking_bias: 0.5 }, 7),
            (SchedPolicy::Random { marking_bias: 0.5 }, 8),
        ] {
            for period in [50u64, 500] {
                let cfg = SystemConfig {
                    num_pes: pes,
                    policy,
                    seed,
                    ..Default::default()
                };
                let (out, _) = run_gc(
                    &p.source,
                    true,
                    cfg,
                    GcConfig {
                        period,
                        ..Default::default()
                    },
                );
                assert_eq!(out, expected, "pes={pes} policy={policy:?} period={period}");
            }
        }
    }
}

#[test]
fn cyclic_data_is_collected_once_dropped() {
    // The cyclic list is consumed and abandoned; the collector reclaims
    // the cycle (reference counting never could).
    let (out, gc) = run_gc(
        "let rec ones = cons 1 ones in sum (take 40 ones)",
        true,
        SystemConfig::default(),
        GcConfig {
            period: 100,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Value(Value::Int(40)));
    let mut gc = gc;
    let report = gc.run_cycle();
    // After the result, only the root chain survives; the cyclic spine
    // plus all intermediate cells are garbage.
    assert!(report.reclaimed > 0 || gc.stats().reclaimed_total > 0);
    let live = gc.sys.graph.live_count();
    assert!(
        live < 20,
        "only the valued root region survives, found {live}"
    );
}

#[test]
fn speculation_with_gc_terminates_where_plain_speculation_diverges() {
    let src = "fib 9";
    let cfg = SystemConfig {
        speculation: true,
        policy: SchedPolicy::Random { marking_bias: 0.5 },
        seed: 11,
        max_events: 400_000,
        ..Default::default()
    };
    // Plain: the speculative descent swamps the budget.
    let mut plain = build_with_prelude(src, cfg.clone()).unwrap();
    assert_eq!(plain.run(), RunOutcome::Budget, "speculation diverges bare");
    // With the full management machinery: converges.
    let (out, gc) = run_gc(
        src,
        true,
        cfg,
        GcConfig {
            period: 250,
            max_total_events: 400_000,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Value(Value::Int(34)));
    assert!(gc.stats().expunged_total > 0);
}

#[test]
fn deadlocked_subprogram_with_recovery_poisons_only_its_cone() {
    // The deadlocked x participates in one addend; with recovery the
    // whole strict sum is ⊥ (strictness), reported rather than hanging.
    let (out, _) = run_gc(
        "let rec x = x + 1 in (if true then 1 else x) + 2",
        false,
        SystemConfig::default(),
        GcConfig {
            deadlock_recovery: true,
            ..Default::default()
        },
    );
    // x is never demanded (lazy else branch): the program completes
    // normally and x's cycle is simply garbage.
    assert_eq!(out, RunOutcome::Value(Value::Int(3)));

    let (out, gc) = run_gc(
        "let rec x = x + 1 in (if false then 1 else x) + 2",
        false,
        SystemConfig::default(),
        GcConfig {
            deadlock_recovery: true,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Value(Value::Bottom));
    assert!(gc.stats().deadlocks_total > 0);
}

#[test]
fn mt_every_zero_disables_deadlock_detection_but_not_collection() {
    let (out, gc) = run_gc(
        "let rec x = x + 1 in x",
        false,
        SystemConfig::default(),
        GcConfig {
            mt_every: 0,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Quiescent);
    assert_eq!(gc.stats().deadlocks_total, 0, "no M_T, no reports");
    assert_eq!(gc.stats().mt_cycles, 0);
    // The cycle of waits was seen: `mt_every: 0` alone kept `M_T` off.
    assert!(gc.sys.stats.wait_cycles > 0);
}

#[test]
fn heavy_sharing_is_computed_once() {
    // let x = fib 12 in x + x + x: one evaluation serves all demands.
    let (out, gc) = run_gc(
        "let x = fib 12 in x + x + x",
        true,
        SystemConfig::default(),
        GcConfig::default(),
    );
    assert_eq!(out, RunOutcome::Value(Value::Int(3 * 144)));
    // fib 12 alone costs hundreds of expansions; sharing keeps the total
    // well under twice that.
    let single = {
        let (out, gc2) = run_gc("fib 12", true, SystemConfig::default(), GcConfig::default());
        assert_eq!(out, RunOutcome::Value(Value::Int(144)));
        gc2.sys.stats.expansions
    };
    assert!(
        gc.sys.stats.expansions < single + single / 4,
        "shared: {} vs single: {}",
        gc.sys.stats.expansions,
        single
    );
}

#[test]
fn fixed_heap_with_gc_completes_where_it_could_not_grow() {
    // A fixed heap too small for the whole computation's total allocation
    // still completes because the collector recycles it.
    let src = "let rec sumto = \\n -> if n == 0 then 0 else n + sumto (n - 1) in sumto 120";
    // Run with small growth steps and GC on; the heap the computation
    // ends with is much smaller than its total allocation because the
    // collector keeps recycling it.
    let (out, gc) = run_gc(
        src,
        false,
        SystemConfig {
            grow_step: 64,
            ..Default::default()
        },
        GcConfig {
            period: 60,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Value(Value::Int(7260)));
    let capacity = gc.sys.graph.capacity();
    let reclaimed = gc.stats().reclaimed_total;
    assert!(
        reclaimed * 2 > capacity,
        "the heap was recycled: reclaimed {reclaimed} vs capacity {capacity}"
    );
}

#[test]
fn census_and_relane_consistency_over_long_run() {
    let cfg = SystemConfig {
        speculation: true,
        policy: SchedPolicy::PriorityFirst,
        ..Default::default()
    };
    let sys = build_with_prelude("sum (map fib (range 1 9))", cfg).unwrap();
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 120,
            ..Default::default()
        },
    );
    gc.sys.demand_root();
    loop {
        for _ in 0..120 {
            if !gc.sys.step() {
                break;
            }
        }
        if gc.sys.result.is_some() {
            break;
        }
        let report = gc.run_cycle();
        assert!(!report.aborted, "phases complete under service ratio");
        let census = dgr::gc::classify_pending_tasks(&gc.sys);
        assert_eq!(census.dangling, 0, "no pending task targets a freed vertex");
        if gc.sys.events() > 2_000_000 {
            panic!("did not converge");
        }
    }
    assert_eq!(gc.sys.result, Some(Value::Int(88)));
}

#[test]
fn deadlock_recovery_never_misfires_on_live_programs() {
    // Regression: with recovery enabled, deadlock detection must not
    // poison a healthy program on any schedule. Historical bugs here:
    // value-referenced thunks over-promoted into R_v, expansion coloring
    // fresh bodies vital, and asynchronous M_T tracing racing with
    // completions that drain `requested` chains.
    for seed in 0..12 {
        let cfg = SystemConfig {
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        let (out, _) = run_gc(
            "sum (map fib (range 1 10))",
            true,
            cfg,
            GcConfig {
                period: 250,
                deadlock_recovery: true,
                ..Default::default()
            },
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(143)), "seed {seed}");
    }
    // And the genuinely deadlocked program is still recovered.
    let (out, gc) = run_gc(
        "let rec x = x + 1 in x",
        false,
        SystemConfig::default(),
        GcConfig {
            deadlock_recovery: true,
            ..Default::default()
        },
    );
    assert_eq!(out, RunOutcome::Value(Value::Bottom));
    assert!(gc.stats().deadlocks_total > 0);
}

#[test]
fn gc_counts_pin_the_delivery_order() {
    // Every count below is a function of the exact order in which
    // reduction and marking tasks are delivered: the policy's order of the
    // reduction tasks (round-robin compares global sequence numbers across
    // the reduction lanes), the marking queue's send order, and the
    // collector's four deliveries' worth of marking work to each
    // reduction delivery. The tuples were recorded when `M_R` began to
    // settle a local child whose mark would spawn nothing in place (DESIGN
    // note 14); a change that reorders sends or deliveries moves at least
    // one of them. None of these programs closes a cycle of waits, so
    // `M_T` runs in the first cycle only.
    let rr = (SchedPolicy::RoundRobin, 0);
    // The two policies whose pick code the four-lane simulator rewrote
    // (the random pool, the preference-order walk), recorded on the commit
    // before it.
    let random = |seed| (SchedPolicy::Random { marking_bias: 0.5 }, seed);
    let pf = (SchedPolicy::PriorityFirst, 0);
    // Two PEs, vertices dealt round (`Modulo`) — or, where a task's sends
    // are routed by a map that follows the heap's capacity, in blocks: the
    // two `Block` tuples were recorded on the commit before a reduction
    // task's sends went straight into the simulator, and hold as long as
    // every send of the task that grows the heap is routed by the grown
    // map.
    let modulo2 = (2, PartitionStrategy::Modulo);
    let cases = [
        (
            programs::nfib(12),
            false,
            rr,
            modulo2,
            (9, 22_780, 6_293, 0, 335),
        ),
        (
            programs::qsort(30),
            false,
            rr,
            modulo2,
            (33, 25_154, 7_239, 0, 9),
        ),
        (
            programs::cyclic_sum(100),
            false,
            rr,
            modulo2,
            (9, 9_839, 1_831, 0, 7),
        ),
        (
            programs::primes(30),
            false,
            rr,
            modulo2,
            (27, 5_770, 3_803, 0, 12),
        ),
        (
            programs::nfib(9),
            true,
            rr,
            modulo2,
            (8, 12_184, 5_051, 661, 524),
        ),
        (
            programs::qsort(30),
            false,
            random(7),
            modulo2,
            (33, 25_148, 7_261, 0, 13),
        ),
        (
            programs::nfib(9),
            true,
            random(8),
            modulo2,
            (9, 23_806, 8_809, 1_763, 1_565),
        ),
        (
            programs::nfib(9),
            true,
            pf,
            modulo2,
            (8, 5_302, 2_217, 167, 213),
        ),
        (
            programs::cyclic_sum(100),
            false,
            pf,
            modulo2,
            (9, 9_839, 1_831, 0, 7),
        ),
        (
            programs::nfib(12),
            false,
            rr,
            (2, PartitionStrategy::Block),
            (9, 15_614, 6_499, 0, 395),
        ),
        (
            programs::nfib(9),
            true,
            rr,
            (4, PartitionStrategy::Block),
            (7, 6_592, 3_209, 496, 475),
        ),
    ];
    for (p, speculation, (policy, seed), (num_pes, partition), want) in cases {
        let cfg = SystemConfig {
            num_pes,
            policy,
            seed,
            speculation,
            partition,
            ..Default::default()
        };
        let (out, gc) = run_gc(&p.source, p.needs_prelude, cfg, GcConfig::default());
        assert_eq!(out, RunOutcome::Value(p.expected.unwrap()), "{}", p.name);
        let s = gc.stats();
        let got = (
            s.cycles,
            s.mark_events_total,
            s.reclaimed_total,
            s.expunged_total,
            s.relaned_total,
        );
        assert_eq!(
            got, want,
            "{} (speculation {speculation}, {policy:?}, seed {seed}, {num_pes} PEs, {partition:?})",
            p.name
        );
    }
}

/// FNV-1a over the little-endian bytes of 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn gc_timelines_pin_every_cycle() {
    // What the totals above miss: each cycle's marking events, marking
    // backlog peak, reduction events during marking and restructure
    // tallies, then the run's delivered events in all and per lane. Each
    // cell is a digest of those words, recorded when `M_R` began to settle
    // a local child whose mark would spawn nothing in place (DESIGN note
    // 14), at the collector's exact four-to-one share of marking work.
    use dgr::sim::Lane;
    let policies = [
        SchedPolicy::RoundRobin,
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::PriorityFirst,
        SchedPolicy::Random { marking_bias: 0.5 },
    ];
    let programs = [
        (programs::nfib(14), false),
        (programs::nfib(12), true),
        (programs::cyclic_sum(300), false),
        (programs::primes(60), false),
    ];
    // One row per policy, one column per program, in the orders above.
    let want: [[u64; 4]; 5] = [
        [
            0x531d_0ee7_04fe_e504,
            0xf3d2_3fef_cbc8_4efa,
            0xbc3b_bba8_4f36_0536,
            0xdcbd_30fd_50cc_5180,
        ],
        [
            0xf693_afe8_1179_5d6d,
            0x8b66_d928_810c_6073,
            0x9959_4594_7551_347a,
            0x3473_9e5b_a183_b9e7,
        ],
        [
            0xf8e1_59ad_92d3_36af,
            0x8723_2eb7_55f6_b239,
            0xb923_3740_c4ad_5716,
            0x10aa_6226_ba0f_2486,
        ],
        [
            0xaee7_af06_6b77_544d,
            0xa521_9839_4f5b_657a,
            0xfbad_104e_3d33_b10e,
            0xdcbd_30fd_50cc_5180,
        ],
        [
            0xbed3_4438_72ca_7f18,
            0x88b6_1e81_70df_8f02,
            0x2063_64a3_3452_df43,
            0x63fb_3f2a_cc01_6991,
        ],
    ];
    for (policy, want) in policies.into_iter().zip(want) {
        for ((p, speculation), want) in programs.iter().zip(want) {
            let cfg = SystemConfig {
                num_pes: 3,
                policy,
                speculation: *speculation,
                ..Default::default()
            };
            // One run does not finish within the budget: newest-first
            // chases the speculative `nfib` recursion, which never bottoms
            // out. It is pinned up to the budget, which its last cycle's
            // marking phase stops at, its outcome folded into the digest.
            let gc_cfg = GcConfig {
                period: 50,
                max_total_events: 500_000,
                ..Default::default()
            };
            let budget = gc_cfg.max_total_events;
            let (out, gc) = run_gc(&p.source, p.needs_prelude, cfg, gc_cfg);
            let what = format!("{} (speculation {speculation}, {policy:?})", p.name);
            let finished = out == RunOutcome::Value(p.expected.clone().unwrap());
            assert!(finished || out == RunOutcome::Budget, "{what}: {out:?}");
            let events = gc.sys.events();
            assert!(events <= budget, "{what}: {events} events");
            let cycles = gc.timeline().iter().flat_map(|c| {
                [
                    c.mark_events,
                    c.mark_backlog_hw,
                    c.reduction_events_during_marking,
                    c.reclaimed as u64,
                    c.expunged as u64,
                    c.relaned as u64,
                ]
            });
            let sim = gc.sys.sim().stats();
            let lanes = Lane::ALL.map(|l| sim.delivered(l));
            let got = digest(
                cycles
                    .chain([u64::from(finished), gc.sys.events()])
                    .chain(lanes),
            );
            assert_eq!(got, want, "{what}: {got:#018x}");
        }
    }
}
