//! Experiments F5-1/F5-2 and T6: priority marking and dynamic upgrades.
//!
//! Part A measures `mark2`'s re-marking overhead: when a low-priority
//! path reaches a shared subgraph first, a later higher-priority path
//! must re-mark it (Figure 5-1's `prior > prior(v)` case). An adversarial
//! "ladder" graph maximizes this; the overhead is the ratio of `mark2`
//! events to plain `mark1` events.
//!
//! Part B measures upgrade latency end to end (T6): a speculated branch
//! becomes vital; the following GC cycles re-mark it, re-lane its pending
//! tasks, and refresh the vertices' demand priority.

use dgr_bench::{record, Report};
use dgr_core::driver::{run_mark1, run_mark2, MarkRunConfig};
use dgr_gc::{GcConfig, GcDriver};
use dgr_graph::{oracle, GraphStore, NodeLabel, RequestKind, Slot};
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;
use dgr_sim::SchedPolicy;

/// Ladder: root has an *eager* shortcut to every rung and a *vital*
/// chain through them. FIFO delivery marks every rung Eager via the
/// shortcuts before the vital chain arrives and upgrades each in turn.
fn ladder(n: usize) -> GraphStore {
    let mut g = GraphStore::with_capacity(n + 1);
    let root = g.alloc(NodeLabel::If).unwrap();
    let rungs: Vec<_> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for &r in &rungs {
        g.connect(root, r);
        let idx = g.vertex(root).args().len() - 1;
        g.vertex_mut(root)
            .set_request_kind(idx, Some(RequestKind::Eager));
    }
    let mut prev = root;
    for &r in &rungs {
        if prev == root {
            g.connect(prev, r);
            let idx = g.vertex(prev).args().len() - 1;
            g.vertex_mut(prev)
                .set_request_kind(idx, Some(RequestKind::Vital));
        } else {
            g.connect(prev, r);
            g.vertex_mut(prev)
                .set_request_kind(0, Some(RequestKind::Vital));
        }
        prev = r;
    }
    g.set_root(root);
    g
}

fn main() {
    let mut report = Report::new("priority", &[], &[]);
    // Part A: re-marking overhead.
    let mut rows = Vec::new();
    for &n in &[64usize, 256, 1024] {
        for (policy_name, policy) in [
            ("fifo (adversarial)", SchedPolicy::Fifo),
            ("lifo", SchedPolicy::Lifo),
        ] {
            let mut g = ladder(n);
            let cfg = MarkRunConfig {
                policy,
                ..Default::default()
            };
            let base = run_mark1(&mut g, &cfg);
            let m2 = run_mark2(&mut g, &cfg);
            // Verify priorities against the oracle.
            let want = oracle::priorities(&g);
            for v in g.live_ids() {
                let got = g
                    .mark(v, Slot::R)
                    .is_marked()
                    .then(|| g.mark(v, Slot::R).prior);
                assert_eq!(got, want[v.index()], "priority mismatch at {v}");
            }
            rows.push(record! {
                "rungs" => n,
                "policy" => policy_name,
                "mark1_events" => base.events,
                "mark2_events" => m2.events,
                "overhead" => m2.events as f64 / base.events.max(1) as f64,
            });
        }
    }
    report.table(
        "F5-1/2: mark2 re-marking overhead on the eager-shortcut ladder",
        rows,
    );

    // Part B: upgrade latency under the GC driver (T6).
    let mut rows = Vec::new();
    for &period in &[100u64, 400, 1600] {
        let cfg = SystemConfig {
            speculation: true,
            policy: SchedPolicy::PriorityFirst,
            ..Default::default()
        };
        let sys = build_with_prelude(
            "if true then (let rec sumto = \\n -> if n == 0 then 0 else n + sumto (n - 1) \
                           in sumto 400) else 0",
            cfg,
        )
        .unwrap();
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period,
                ..Default::default()
            },
        );
        let out = gc.run();
        rows.push(record! {
            "period" => period,
            "outcome" => format!("{out:?}"),
            "upgrades" => gc.sys.stats.upgrades,
            "relaned" => gc.stats().relaned_total,
            "cycles" => gc.stats().cycles,
            "events" => gc.sys.events(),
        });
    }
    report.table(
        "T6: eager→vital upgrade propagation (speculated chosen branch, \
         PriorityFirst starves the eager lane between cycles)",
        rows,
    );
    println!(
        "\nShape check: mark2's overhead factor grows with ladder size under \
         the adversarial schedule and stays near 1 otherwise; shorter GC \
         periods re-lane upgraded work sooner, finishing in fewer events."
    );
    report.finish();
}
