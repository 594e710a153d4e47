//! Oracle mutation testing: deliberately injected protocol faults.
//!
//! A checker that never fires is indistinguishable from a checker that
//! works. Each [`Fault`] here re-creates a known way to get the protocol
//! wrong — dropping a `Return`, delivering one twice, double-counting
//! `mt-cnt`, marking a vertex before its children returned, skipping
//! `mark2`'s upgrade rule, settling a local child in place below the
//! mark's priority, misrouting a return to the dummy root, splicing an
//! arc without the `add-reference` cooperation — and the harness
//! demands the explorer catches every one with a replayable
//! counterexample. [`pass_ordering`] covers the one fault that is not an
//! interleaving fault: running `M_R` before `M_T` across a GC cycle, which
//! fabricates deadlocks. [`Fault::ReorderDeliver`] points the other way:
//! it is a *transport* fault the protocol must tolerate, so it is explored
//! over the whole corpus and must stay clean.
//!
//! This module is the only place outside the graph/handler layer allowed
//! to mutate mark state directly (`mark_mut`) — that is the point: it
//! plays the buggy implementation. The repo lint pass ([`crate::lint`])
//! enforces the allowlist.

use dgr_core::driver::{run_mark2, run_mark3, MarkRunConfig};
use dgr_core::MarkMsg;
use dgr_gc::deadlocked_vertices;
use dgr_graph::{
    Color, GraphStore, MarkParent, NodeLabel, Oracle, PrimOp, RequestKind, Slot, TaskEndpoints,
};

use crate::world::{Ctx, World};

/// An injected protocol fault. Every fault fires at most once per run (the
/// first opportunity), mimicking a rare but systematic implementation bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Clean run — no fault injected.
    None,
    /// Drop the first `Return` a handler emits (breaks the marking tree's
    /// count accounting).
    DropReturn,
    /// Rewrite the first vertex-addressed `Return` to the dummy root
    /// (the spawning vertex never sees its mark return).
    MisrouteReturn,
    /// Increment `mt-cnt` once more than marks were spawned.
    DoubleCount,
    /// Force a transient vertex with outstanding children to `Marked`.
    PrematureMark,
    /// Ignore `mark2`'s upgrade rule: treat a higher-priority re-mark as a
    /// duplicate and return immediately.
    SkipUpgrade,
    /// Settle a child on its parent's PE in place although it is marked
    /// at a lower priority than the mark: the upgrade a message would
    /// carry is lost (DESIGN note 14's rule without its priority test).
    SettleBelowPriority,
    /// Perform `add-reference` as a raw arc splice, without the
    /// Figure 4-2 cooperation.
    SkipCoopSplice,
    /// Re-enqueue the first delivered `Return` (duplicate delivery —
    /// breaks count accounting in the opposite direction from
    /// [`Fault::DropReturn`]; invariant 3's owed-return tally must flag
    /// the extra message the moment it enters a mailbox).
    DuplicateDeliver,
    /// Once per run, a FIFO mailbox may deliver its second message before
    /// its first. Unlike every other variant this is a fault of the
    /// *transport*, not the protocol, and the protocol must tolerate it:
    /// the corpus is explored under it and must stay clean (the paper's
    /// marking protocol never leans on mailbox ordering — any-order mode
    /// already proves the superset, this pins the FIFO modes too).
    ReorderDeliver,
}

impl Fault {
    /// The interleaving faults the harness injects (pass ordering is
    /// checked separately by [`pass_ordering`]).
    pub const INJECTED: [Fault; 8] = [
        Fault::DropReturn,
        Fault::MisrouteReturn,
        Fault::DoubleCount,
        Fault::PrematureMark,
        Fault::SkipUpgrade,
        Fault::SettleBelowPriority,
        Fault::SkipCoopSplice,
        Fault::DuplicateDeliver,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::DropReturn => "drop-return",
            Fault::MisrouteReturn => "misroute-return",
            Fault::DoubleCount => "double-count",
            Fault::PrematureMark => "premature-mark",
            Fault::SkipUpgrade => "skip-upgrade",
            Fault::SettleBelowPriority => "settle-below-priority",
            Fault::SkipCoopSplice => "skip-coop-splice",
            Fault::DuplicateDeliver => "duplicate-deliver",
            Fault::ReorderDeliver => "reorder-deliver",
        }
    }

    /// The corpus scenario this fault is injected into.
    pub fn scenario(self) -> &'static str {
        match self {
            Fault::SkipUpgrade | Fault::SettleBelowPriority => "mark2-shared-upgrade",
            Fault::SkipCoopSplice => "mark1-move-mid-mark",
            _ => "mark1-cycle-diamond",
        }
    }
}

/// Pre-delivery hook. Returns `true` if the fault consumed the message
/// (the real handler must then be skipped).
pub fn pre_deliver(w: &mut World, ctx: &Ctx, msg: &MarkMsg, out: &mut Vec<MarkMsg>) -> bool {
    if ctx.fault != Fault::SkipUpgrade || w.fault_fired {
        return false;
    }
    if let MarkMsg::Mark2 { v, par, prior } = *msg {
        let s = w.g.mark(v, Slot::R);
        if !s.is_unmarked() && prior > s.prior {
            // The bug: "already marked, just return" — the upgrade that
            // should have re-marked v and its subtree never happens.
            w.fault_fired = true;
            out.push(MarkMsg::Return {
                slot: Slot::R,
                to: par,
            });
            return true;
        }
    }
    false
}

/// Post-delivery hook: corrupts the handler's output or the destination
/// vertex's mark word, once.
pub fn post_deliver(w: &mut World, ctx: &Ctx, msg: &MarkMsg, out: &mut Vec<MarkMsg>) {
    if w.fault_fired {
        return;
    }
    match ctx.fault {
        Fault::DropReturn => {
            if let Some(i) = out.iter().position(|m| matches!(m, MarkMsg::Return { .. })) {
                out.remove(i);
                w.fault_fired = true;
            }
        }
        Fault::MisrouteReturn => {
            for m in out.iter_mut() {
                if let MarkMsg::Return {
                    slot,
                    to: MarkParent::Vertex(_),
                } = *m
                {
                    *m = MarkMsg::Return {
                        slot,
                        to: MarkParent::RootPar,
                    };
                    w.fault_fired = true;
                    break;
                }
            }
        }
        Fault::SettleBelowPriority => {
            // The handler messaged an upgrade to a child on the marker's
            // own PE; the bug settles it in place instead, as if already
            // marked high enough. The mark is never counted, so the
            // marker completes now if it owed nothing else.
            let MarkMsg::Mark2 { v, .. } = *msg else {
                return;
            };
            let local = |c| ctx.owner.pe_of(c) == ctx.owner.pe_of(v);
            let settled = out.iter().position(|m| match *m {
                MarkMsg::Mark2 { v: c, par, prior } => {
                    let s = w.g.mark(c, Slot::R);
                    par == MarkParent::Vertex(v) && local(c) && !s.is_unmarked() && s.prior < prior
                }
                _ => false,
            });
            if let Some(i) = settled {
                out.remove(i);
                w.fault_fired = true;
                let s = w.g.mark_mut(v, Slot::R);
                s.mt_cnt -= 1;
                if s.mt_cnt == 0 {
                    s.color = Color::Marked;
                    let to = s.mt_par.expect("a transient vertex has a parent");
                    out.push(MarkMsg::Return { slot: Slot::R, to });
                }
            }
        }
        Fault::DuplicateDeliver => {
            if matches!(msg, MarkMsg::Return { .. }) {
                out.push(*msg);
                w.fault_fired = true;
            }
        }
        Fault::DoubleCount | Fault::PrematureMark => {
            let slot = ctx.slot();
            if let Some(v) = msg.dest_vertex() {
                let s = w.g.mark(v, slot);
                if s.is_transient() && s.mt_cnt > 0 {
                    let sm = w.g.mark_mut(v, slot);
                    if ctx.fault == Fault::DoubleCount {
                        sm.mt_cnt += 1;
                    } else {
                        sm.color = Color::Marked;
                    }
                    w.fault_fired = true;
                }
            }
        }
        _ => {}
    }
}

/// Result of the pass-ordering check (the one fault that spans two passes
/// rather than one interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingReport {
    /// Vertices falsely reported deadlocked with the correct order
    /// (`M_T` before `M_R`'s report is consumed). Must be 0.
    pub correct_false_flags: usize,
    /// Vertices falsely reported deadlocked with the faulty order. Must be
    /// > 0 for the fault to count as detected.
    pub wrong_false_flags: usize,
}

impl OrderingReport {
    /// `true` if the validator caught the faulty order and not the correct
    /// one.
    pub fn detected(self) -> bool {
        self.correct_false_flags == 0 && self.wrong_false_flags > 0
    }
}

/// Deliver M_R's classification before M_T's snapshot: Figure 3-1's
/// `x = x + 1` still has a task on `x` when the GC cycle starts, so `x` is
/// *not* deadlocked. Run `M_T` first and the snapshot covers the task;
/// run `M_R` first, let the task drain, and a late `M_T` sees an empty
/// pool — fabricating a deadlock on `x`. The deadlock report is validated
/// against the oracle computed at cycle start.
pub fn pass_ordering() -> OrderingReport {
    fn build() -> (GraphStore, TaskEndpoints) {
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
        let mut tasks = TaskEndpoints::new();
        tasks.push_task(None, x);
        (g, tasks)
    }
    let cfg = MarkRunConfig::default();

    // Ground truth at cycle start: the task on x is alive.
    let (g0, tasks0) = build();
    let truth = Oracle::compute(&g0, &tasks0).deadlocked;

    // Correct order: M_T snapshots the task pool first, then M_R runs and
    // the task drains concurrently — the snapshot already covers it.
    let (mut g, tasks) = build();
    run_mark3(&mut g, &tasks, &cfg);
    run_mark2(&mut g, &cfg);
    let correct = deadlocked_vertices(&g);

    // Faulty order: M_R first; by the time M_T runs the task has been
    // consumed, so its snapshot is empty.
    let (mut g, _) = build();
    run_mark2(&mut g, &cfg);
    run_mark3(&mut g, &TaskEndpoints::new(), &cfg);
    let wrong = deadlocked_vertices(&g);

    OrderingReport {
        correct_false_flags: correct.iter().filter(|&&v| !truth.contains(v)).count(),
        wrong_false_flags: wrong.iter().filter(|&&v| !truth.contains(v)).count(),
    }
}
