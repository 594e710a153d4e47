//! Execution of marking tasks: `mark1`, `mark2`, `mark3` and `return1`.

use dgr_graph::{Color, GraphStore, MarkParent, Priority, Slot, VertexId};

use crate::msg::MarkMsg;
use crate::state::MarkState;

/// Executes one marking task atomically.
///
/// Spawned tasks are handed to `sink`, which the driver routes to the PE
/// owning the destination vertex. The sink is a generic parameter, not a
/// trait object: every driver passes a closure that enqueues directly, and
/// the handler inlines into its delivery loop — one marking event costs
/// the handler's own work plus its sends, with no buffer in between. The
/// task types follow Figures 4-1, 5-1 and 5-3 of the paper; see the module
/// documentation of [`crate`](crate#) for the correspondence.
///
/// Executing a mark task addressed to a vertex that is (erroneously)
/// on the free list is treated as marking a leaf that is already marked:
/// an immediate return. A correct system never produces such a task; the
/// behavior is defensive.
#[inline]
pub fn handle_mark<S>(state: &mut MarkState, g: &mut GraphStore, msg: MarkMsg, sink: &mut S)
where
    S: FnMut(MarkMsg) + ?Sized,
{
    match msg {
        MarkMsg::Mark1 { v, par } => mark_simple(g, Slot::R, v, par, sink),
        MarkMsg::Mark3 { v, par } => mark_simple(g, Slot::T, v, par, sink),
        MarkMsg::Mark2 { v, par, prior } => mark2(g, v, par, prior, sink),
        MarkMsg::Return { slot, to } => return1(state, g, slot, to, sink),
    }
}

/// `mark1` / `mark3` (Figures 4-1 and 5-3): identical control flow, only
/// the slot and the traced child set differ.
fn mark_simple<S>(g: &mut GraphStore, slot: Slot, v: VertexId, par: MarkParent, sink: &mut S)
where
    S: FnMut(MarkMsg) + ?Sized,
{
    let mk = |c: VertexId, p: MarkParent| match slot {
        Slot::R => MarkMsg::Mark1 { v: c, par: p },
        Slot::T => MarkMsg::Mark3 { v: c, par: p },
    };
    if g.vertex(v).is_free() || !g.mark(v, slot).is_unmarked() {
        sink(MarkMsg::Return { slot, to: par });
        return;
    }
    // touch(v); mt-par(v) := par
    {
        let s = g.mark_mut(v, slot);
        s.color = Color::Transient;
        s.mt_par = Some(par);
    }
    // Spawn a mark for every traced child without materializing the child
    // list — one task per marked vertex makes this the hottest allocation
    // site of a pass.
    let mut spawned = 0u32;
    {
        let vert = g.vertex(v);
        let mut visit = |c: VertexId| {
            spawned += 1;
            sink(mk(c, MarkParent::Vertex(v)));
        };
        match slot {
            Slot::R => vert.for_each_r_child(&mut visit),
            Slot::T => vert.for_each_t_child(&mut visit),
        }
    }
    let s = g.mark_mut(v, slot);
    s.mt_cnt += spawned;
    if s.mt_cnt == 0 {
        s.color = Color::Marked;
        sink(MarkMsg::Return { slot, to: par });
    }
}

/// `mark2` (Figure 5-1): priority marking for `M_R`.
fn mark2<S>(g: &mut GraphStore, v: VertexId, par: MarkParent, prior: Priority, sink: &mut S)
where
    S: FnMut(MarkMsg) + ?Sized,
{
    if g.vertex(v).is_free() {
        sink(MarkMsg::Return {
            slot: Slot::R,
            to: par,
        });
        return;
    }
    let slot = g.mark(v, Slot::R);
    if slot.is_unmarked() {
        modify(g, v, par, prior, sink);
    } else if prior <= slot.prior {
        sink(MarkMsg::Return {
            slot: Slot::R,
            to: par,
        });
    } else {
        // Re-mark with the higher priority. If the vertex is mid-marking,
        // its old parent's claim is settled early with a return; the new
        // parent's claim is settled when the (merged) subtree completes.
        if slot.is_transient() {
            let old_par = slot.mt_par.expect("transient vertex has a parent");
            sink(MarkMsg::Return {
                slot: Slot::R,
                to: old_par,
            });
        }
        modify(g, v, par, prior, sink);
    }
}

/// `modify(v, par, prior)` from Figure 5-1.
fn modify<S>(g: &mut GraphStore, v: VertexId, par: MarkParent, prior: Priority, sink: &mut S)
where
    S: FnMut(MarkMsg) + ?Sized,
{
    {
        let s = g.mark_mut(v, Slot::R);
        s.color = Color::Transient;
        s.mt_par = Some(par);
        s.prior = prior;
    }
    let mut spawned = 0u32;
    g.vertex(v).for_each_r_child_kind(|c, kind| {
        spawned += 1;
        sink(MarkMsg::Mark2 {
            v: c,
            par: MarkParent::Vertex(v),
            prior: prior.min(Priority::of_request(kind)),
        });
    });
    // `+=`, not `=`: when re-marking a transient vertex, marks from the
    // previous traversal are still outstanding and their returns must be
    // absorbed before the vertex completes.
    let s = g.mark_mut(v, Slot::R);
    s.mt_cnt += spawned;
    if s.mt_cnt == 0 {
        s.color = Color::Marked;
        sink(MarkMsg::Return {
            slot: Slot::R,
            to: par,
        });
    }
}

/// `return1` (Figure 4-1), extended with the virtual `troot` of `M_T`.
fn return1<S>(state: &mut MarkState, g: &mut GraphStore, slot: Slot, to: MarkParent, sink: &mut S)
where
    S: FnMut(MarkMsg) + ?Sized,
{
    match to {
        MarkParent::RootPar => {
            state.note_rootpar_return();
        }
        // The virtual "extra" root: `troot` for M_T, the orphan-mark
        // absorber for the R-side process.
        MarkParent::TaskRootPar => match slot {
            Slot::T => state.return_to_troot(),
            Slot::R => state.return_r_extra(),
        },
        MarkParent::Vertex(v) => {
            let s = g.mark_mut(v, slot);
            debug_assert!(s.mt_cnt > 0, "return to {v} with mt-cnt 0");
            s.mt_cnt -= 1;
            if s.mt_cnt == 0 {
                s.color = Color::Marked;
                let par = s.mt_par.expect("completing vertex has a parent");
                sink(MarkMsg::Return { slot, to: par });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{NodeLabel, RequestKind};

    /// Runs messages to quiescence with a simple FIFO queue (single PE).
    fn drain(state: &mut MarkState, g: &mut GraphStore, initial: MarkMsg) -> u64 {
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(initial);
        let mut events = 0;
        while let Some(m) = queue.pop_front() {
            let mut buf = Vec::new();
            handle_mark(state, g, m, &mut |m| buf.push(m));
            queue.extend(buf);
            events += 1;
            assert!(events < 100_000, "marking diverged");
        }
        events
    }

    #[test]
    fn mark1_marks_reachable_only() {
        let mut g = GraphStore::with_capacity(8);
        let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let root = g.alloc(NodeLabel::If).unwrap();
        let stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
        g.connect(root, a);
        g.connect(root, b);
        g.set_root(root);

        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Simple);
        drain(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: root,
                par: MarkParent::RootPar,
            },
        );
        assert!(state.r_done);
        for v in [root, a, b] {
            assert!(g.mark(v, Slot::R).is_marked());
            assert_eq!(g.mark(v, Slot::R).mt_cnt, 0);
        }
        assert!(g.mark(stray, Slot::R).is_unmarked());
    }

    #[test]
    fn mark1_terminates_on_cycles() {
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::If).unwrap();
        let y = g.alloc(NodeLabel::If).unwrap();
        g.connect(x, y);
        g.connect(y, x);
        g.connect(x, x);
        g.set_root(x);
        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Simple);
        drain(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: x,
                par: MarkParent::RootPar,
            },
        );
        assert!(state.r_done);
        assert!(g.mark(x, Slot::R).is_marked() && g.mark(y, Slot::R).is_marked());
    }

    #[test]
    fn mark1_single_leaf_root() {
        let mut g = GraphStore::with_capacity(1);
        let root = g.alloc(NodeLabel::lit_int(5)).unwrap();
        g.set_root(root);
        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Simple);
        let events = drain(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: root,
                par: MarkParent::RootPar,
            },
        );
        assert!(state.r_done);
        assert_eq!(events, 2, "one mark, one return");
    }

    #[test]
    fn mark2_assigns_bottleneck_priorities() {
        // root -v-> a -e-> b ; root -r-> c
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(root, a);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(a, b);
        g.vertex_mut(a)
            .set_request_kind(0, Some(RequestKind::Eager));
        g.connect(root, c);
        g.set_root(root);

        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Priority);
        drain(
            &mut state,
            &mut g,
            MarkMsg::Mark2 {
                v: root,
                par: MarkParent::RootPar,
                prior: Priority::Vital,
            },
        );
        assert!(state.r_done);
        assert_eq!(g.mark(root, Slot::R).prior, Priority::Vital);
        assert_eq!(g.mark(a, Slot::R).prior, Priority::Vital);
        assert_eq!(g.mark(b, Slot::R).prior, Priority::Eager);
        assert_eq!(g.mark(c, Slot::R).prior, Priority::Reserve);
    }

    #[test]
    fn mark2_higher_priority_remarks_shared_subgraph() {
        // root reaches d eagerly first (short path), then vitally (longer
        // path). With a FIFO queue the eager mark arrives first; the vital
        // one must re-mark d and its descendants.
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let d = g.alloc(NodeLabel::If).unwrap();
        let below = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let mid = g.alloc(NodeLabel::If).unwrap();
        // root -e-> d, root -v-> mid -v-> d, d -v-> below
        g.connect(root, d);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Eager));
        g.connect(root, mid);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Vital));
        g.connect(mid, d);
        g.vertex_mut(mid)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(d, below);
        g.vertex_mut(d)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(root);

        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Priority);
        drain(
            &mut state,
            &mut g,
            MarkMsg::Mark2 {
                v: root,
                par: MarkParent::RootPar,
                prior: Priority::Vital,
            },
        );
        assert!(state.r_done);
        assert_eq!(g.mark(d, Slot::R).prior, Priority::Vital, "upgraded");
        assert_eq!(
            g.mark(below, Slot::R).prior,
            Priority::Vital,
            "descendant upgraded"
        );
        // All mt-cnts settled.
        for v in [root, d, mid, below] {
            assert_eq!(g.mark(v, Slot::R).mt_cnt, 0);
            assert!(g.mark(v, Slot::R).is_marked());
        }
    }

    #[test]
    fn mark3_traces_t_children_only() {
        // a requested b (so the a→b arc is NOT traced forward), b has
        // requester a (traced backward), a has an unrequested arc to c.
        let mut g = GraphStore::with_capacity(8);
        let a = g.alloc(NodeLabel::Prim(dgr_graph::PrimOp::Add)).unwrap();
        let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let c = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let d = g.alloc(NodeLabel::lit_int(3)).unwrap();
        g.connect(a, b);
        g.vertex_mut(a)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(a, c);
        g.vertex_mut(b)
            .add_requester(dgr_graph::Requester::Vertex(a));
        // d is disconnected entirely.
        let _ = d;

        let mut state = MarkState::new();
        state.begin_t(1);
        drain(
            &mut state,
            &mut g,
            MarkMsg::Mark3 {
                v: b,
                par: MarkParent::TaskRootPar,
            },
        );
        assert!(state.t_done);
        assert!(g.mark(b, Slot::T).is_marked());
        assert!(g.mark(a, Slot::T).is_marked(), "via requested(b)");
        assert!(g.mark(c, Slot::T).is_marked(), "via unrequested arc");
        assert!(g.mark(d, Slot::T).is_unmarked());
        // R slot untouched.
        assert!(g.mark(a, Slot::R).is_unmarked());
    }

    #[test]
    fn mark_on_free_vertex_returns_without_touching() {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.free(a);
        let mut state = MarkState::new();
        state.begin_r(crate::RMode::Simple);
        let mut out = Vec::new();
        handle_mark(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: a,
                par: MarkParent::RootPar,
            },
            &mut |m| out.push(m),
        );
        assert_eq!(
            out,
            vec![MarkMsg::Return {
                slot: Slot::R,
                to: MarkParent::RootPar
            }]
        );
        assert!(g.mark(a, Slot::R).is_unmarked());
    }

    #[test]
    fn returns_to_troot_count_down() {
        let mut g = GraphStore::with_capacity(1);
        let mut state = MarkState::new();
        state.begin_t(2);
        let mut sink = |_m: MarkMsg| panic!("no spawns expected");
        handle_mark(
            &mut state,
            &mut g,
            MarkMsg::Return {
                slot: Slot::T,
                to: MarkParent::TaskRootPar,
            },
            &mut sink,
        );
        assert!(!state.t_done);
        handle_mark(
            &mut state,
            &mut g,
            MarkMsg::Return {
                slot: Slot::T,
                to: MarkParent::TaskRootPar,
            },
            &mut sink,
        );
        assert!(state.t_done);
    }
}
