//! Cooperating mutator primitives (Figure 4-2).
//!
//! The reduction process may not mutate the graph behind the marking
//! process's back: a mutation that makes a vertex reachable only through an
//! already-marked region would cause the vertex to be missed. These
//! wrappers perform the raw mutation *and* splice the extra marking
//! activity required to preserve the two marking invariants:
//!
//! 1. every transient vertex has an outstanding mark task on each child
//!    (reflected in `mt-cnt`), and
//! 2. a marked vertex never points to an unmarked vertex — except one a
//!    mark task is already in flight to (see [`add_reference`]).
//!
//! Cooperation is needed per marking process and per edge view:
//! `add-reference` and `expand-node` change `args`, so they cooperate with
//! the R-side process exactly as in Figure 4-2; operations that create a
//! **T-arc** — adding a requester, or adding an unrequested arc — cooperate
//! with `M_T` through [`coop_t_arc`] while the arc's source is still being
//! traced (arcs grown out of already-finished vertices are covered by the
//! deadlock report's activity screen instead; see [`coop_t_arc`]).
//!
//! Setting [`MarkState::cooperation_enabled`] to `false` turns all of this
//! off, reproducing the static-graph assumption of the Chandy–Misra-style
//! algorithms the paper contrasts itself with; the T-abl experiment
//! measures the live vertices lost as a result.

use dgr_graph::{
    GraphError, GraphStore, MarkParent, Priority, Requester, Slot, Template, VertexId,
};

use crate::handler::handle_mark;
use crate::msg::MarkMsg;
use crate::state::{MarkState, RMode};

/// Builds the R-side mark task appropriate for the active mode. New arcs
/// are unrequested, so in priority mode the spawned mark carries
/// `min(prior, request-type) = Reserve`.
fn r_mark(mode: RMode, v: VertexId, par: MarkParent) -> MarkMsg {
    match mode {
        RMode::Simple => MarkMsg::Mark1 { v, par },
        RMode::Priority => MarkMsg::Mark2 {
            v,
            par,
            prior: Priority::Reserve,
        },
    }
}

/// Whether `c` is in the child set `M_R` traces from `v`.
fn has_r_child(g: &GraphStore, v: VertexId, c: VertexId) -> bool {
    let mut found = false;
    g.vertex(v).for_each_r_child(|x| found |= x == c);
    found
}

/// `delete-reference(a, b)`: removes one `a → b` arc.
///
/// Deleting an arc can never invalidate the marking invariants (marks
/// already spawned on `b` simply return), so no cooperation is required —
/// exactly as in Figure 4-2. Returns `true` if an arc was removed.
pub fn delete_reference(g: &mut GraphStore, a: VertexId, b: VertexId) -> bool {
    g.disconnect(a, b)
}

/// *Dereference*: vertex `x` drops its (eager) interest in `y` — the arc
/// `x → y` is removed **and** `x` is removed from `requested(y)`
/// (Section 3.2). Any tasks below `y` whose destinations thereby leave `R`
/// become irrelevant and will be expunged by the next GC cycle.
pub fn dereference(g: &mut GraphStore, x: VertexId, y: VertexId) -> bool {
    let had_arc = g.disconnect(x, y);
    g.remove_requester(y, Requester::Vertex(x));
    had_arc
}

/// `add-reference(a, b, c)` (Figure 4-2): adds an arc `a → c`, where
/// `b ∈ children(a)` and `c ∈ children(b)` (three adjacent vertices; this
/// is how a vertex gains direct access to a grandchild, e.g. the head of a
/// cons cell it has just received).
///
/// Cooperates with the active R-side process per the paper — plus the
/// (`a` marked, `b` unmarked) case, which the paper's analysis rules out
/// and a shared `b` makes reachable (DESIGN §9 note 11) — and with `M_T`
/// (the new arc is unrequested, hence a T-arc).
///
/// # Errors
///
/// Returns [`GraphError::NotAdjacent`] if the adjacency precondition fails;
/// the graph is unchanged in that case.
pub fn add_reference<S>(
    state: &mut MarkState,
    g: &mut GraphStore,
    a: VertexId,
    b: VertexId,
    c: VertexId,
    sink: &mut S,
) -> Result<(), GraphError>
where
    S: FnMut(MarkMsg) + ?Sized,
{
    if !has_r_child(g, a, b) || !has_r_child(g, b, c) {
        return Err(GraphError::NotAdjacent { a, b, c });
    }
    if state.cooperation_enabled {
        if let Some(mode) = state.r_mode {
            let sa = g.mark(a, Slot::R).color;
            let sb = g.mark(b, Slot::R).color;
            use dgr_graph::Color::*;
            if sa == Transient && sb == Unmarked {
                // Marking may already have passed a without seeing c via
                // this new arc; hang an extra mark for c on a.
                g.mark_mut(a, Slot::R).mt_cnt += 1;
                sink(r_mark(mode, c, MarkParent::Vertex(a)));
            } else if sa == Marked && sb == Transient {
                // a is marked, so c must not remain unmarked once the arc
                // exists: execute the mark synchronously, hung on the
                // transient b.
                g.mark_mut(b, Slot::R).mt_cnt += 1;
                let msg = r_mark(mode, c, MarkParent::Vertex(b));
                handle_mark(state, g, msg, sink);
            } else if sa == Marked && sb == Unmarked && g.mark(c, Slot::R).is_unmarked() {
                // A marked vertex with an unmarked child: invariant 2 holds
                // only modulo marks in flight. The both-transient case
                // (no action, below) adds an arc without counting it in
                // mt-cnt(a), so a can complete while the mark a third
                // vertex owes b is still travelling. That mark traces b's
                // children as they are when it lands — after the mutator
                // moves c from b to a it no longer finds c. No transient
                // vertex is left to absorb the return, so c is marked
                // now, hung on the virtual root (as `coop_r_arc` does for
                // a marked source).
                state.add_r_extra();
                let msg = r_mark(mode, c, MarkParent::TaskRootPar);
                handle_mark(state, g, msg, sink);
            }
            // All other cases need no action: if both are transient, b
            // already owes a mark to each of its children including c; if
            // both are marked, c is at least transient or has a mark in
            // flight; if a is unmarked, marking has not passed it yet.
        }
        if state.t_active {
            coop_t_arc(state, g, a, c, sink);
        }
    }
    g.connect(a, c);
    Ok(())
}

/// Cooperation for the creation of a **T-arc** `from → to` (a new
/// requester, or a new unrequested arc): if `from` is mid-marking
/// (T-transient), the extra mark is hung on `from` so the arc is traced
/// before `from` completes.
///
/// If `from` is already T-**marked**, no mark is spawned. `M_T` exists
/// solely to find deadlocked vertices (Section 6), and its snapshot
/// semantics tolerate task reachability that arises *after* a vertex was
/// finished: the deadlock report screens out any vertex with task
/// activity since the pass began ([`Vertex::touched`]) or with a computed
/// value, and a vertex in `R_v` without either was necessarily covered by
/// the pass's seeds (its vital request either predates the pass — making
/// it a task endpoint — or stamps it). Escalating here instead (re-seeding
/// the virtual `troot`) would make `M_T` chase the mutator indefinitely:
/// every request to an already-finished vertex would re-arm termination,
/// and under an expanding speculative workload the pass would never end.
///
/// [`Vertex::touched`]: dgr_graph::Vertex::touched
pub fn coop_t_arc<S>(
    state: &mut MarkState,
    g: &mut GraphStore,
    from: VertexId,
    to: VertexId,
    sink: &mut S,
) where
    S: FnMut(MarkMsg) + ?Sized,
{
    if !state.cooperation_enabled || !state.t_active {
        return;
    }
    if g.mark(from, Slot::T).is_transient() {
        g.mark_mut(from, Slot::T).mt_cnt += 1;
        sink(MarkMsg::Mark3 {
            v: to,
            par: MarkParent::Vertex(from),
        });
    }
}

/// Cooperation for the creation of a plain **R-arc** `from → to` outside
/// the three-adjacent-vertices pattern of `add-reference` (e.g. the rewiring
/// performed when an over-saturated application is split). If `from` is
/// transient the extra mark hangs on `from`; if `from` is already marked
/// there is no transient vertex to absorb the return, so the mark hangs on
/// the process's virtual root and is executed synchronously to restore
/// invariant 2.
pub fn coop_r_arc<S>(
    state: &mut MarkState,
    g: &mut GraphStore,
    from: VertexId,
    to: VertexId,
    sink: &mut S,
) where
    S: FnMut(MarkMsg) + ?Sized,
{
    if !state.cooperation_enabled {
        return;
    }
    let Some(mode) = state.r_mode else { return };
    match g.mark(from, Slot::R).color {
        dgr_graph::Color::Transient => {
            g.mark_mut(from, Slot::R).mt_cnt += 1;
            sink(r_mark(mode, to, MarkParent::Vertex(from)));
        }
        dgr_graph::Color::Marked => {
            state.add_r_extra();
            let msg = r_mark(mode, to, MarkParent::TaskRootPar);
            handle_mark(state, g, msg, sink);
        }
        dgr_graph::Color::Unmarked => {}
    }
}

/// Adds `r` to `requested(v)`, cooperating with `M_T` (the new
/// `v → r` T-arc).
pub fn add_requester<S>(
    state: &mut MarkState,
    g: &mut GraphStore,
    v: VertexId,
    r: Requester,
    sink: &mut S,
) where
    S: FnMut(MarkMsg) + ?Sized,
{
    if let Requester::Vertex(x) = r {
        coop_t_arc(state, g, v, x, sink);
    }
    g.vertex_mut(v).add_requester(r);
}

/// `expand-node(a, g)` (Figure 4-2): splices an instance of `tpl` (a
/// subgraph obtained from the free list) in below vertex `a`.
///
/// Per the paper: if `a` is marked the fresh vertices are marked too
/// (they are reachable exactly through `a`, which marking will not visit
/// again); otherwise they are unmarked. If `a` is transient, marks are
/// spawned on all of `a`'s new children and `mt-cnt(a)` adjusted. Both
/// marking processes are cooperated with.
///
/// Leaves the freshly allocated vertices in the caller's `fresh`.
///
/// # Errors
///
/// Propagates template instantiation errors
/// ([`GraphError::OutOfVertices`], [`GraphError::BadTemplateParam`]); the
/// graph is unchanged on error.
pub fn expand_node<S>(
    state: &mut MarkState,
    g: &mut GraphStore,
    a: VertexId,
    tpl: &Template,
    actuals: &[VertexId],
    fresh: &mut Vec<VertexId>,
    sink: &mut S,
) -> Result<(), GraphError>
where
    S: FnMut(MarkMsg) + ?Sized,
{
    // Record the colors *before* the splice mutates anything.
    let pre_r = g.mark(a, Slot::R).color;
    let pre_t = g.mark(a, Slot::T).color;

    tpl.instantiate(g, a, actuals, fresh)?;

    if state.cooperation_enabled {
        use dgr_graph::Color::*;
        if let Some(mode) = state.r_mode {
            for &f in fresh.iter() {
                let s = g.mark_mut(f, Slot::R);
                s.mt_cnt = 0;
                s.mt_par = None;
                if pre_r == Marked {
                    s.color = Marked;
                    // The arcs into the fresh body are unrequested at
                    // splice time, so the fresh vertices are reachable at
                    // `min(prior(a), request-type) = Reserve`. A later
                    // higher-priority path re-marks them (mark2's upgrade
                    // rule); assigning prior(a) here would over-promote
                    // lazy thunks into `R_v` and fabricate deadlocks.
                    s.prior = Priority::Reserve;
                } else {
                    s.color = Unmarked;
                }
            }
            if pre_r == Transient {
                let mut spawned = 0u32;
                g.vertex(a).for_each_r_child(|c| {
                    spawned += 1;
                    sink(r_mark(mode, c, MarkParent::Vertex(a)));
                });
                g.mark_mut(a, Slot::R).mt_cnt += spawned;
            }
        }
        if state.t_active {
            for &f in fresh.iter() {
                let s = g.mark_mut(f, Slot::T);
                s.mt_cnt = 0;
                s.mt_par = None;
                s.color = if pre_t == Marked { Marked } else { Unmarked };
            }
            // Transient a: it still owes a mark to each (new) T-child.
            // Marked a: the fresh vertices were colored marked above, and
            // the actuals were already at least transient; nothing to do.
            if pre_t == Transient {
                let mut spawned = 0u32;
                g.vertex(a).for_each_t_child(|c| {
                    spawned += 1;
                    sink(MarkMsg::Mark3 {
                        v: c,
                        par: MarkParent::Vertex(a),
                    });
                });
                g.mark_mut(a, Slot::T).mt_cnt += spawned;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{Color, NodeLabel, PrimOp, TemplateNode, TemplateRef};

    fn drain(state: &mut MarkState, g: &mut GraphStore, mut queue: Vec<MarkMsg>) {
        let mut events = 0;
        while let Some(m) = queue.pop() {
            let mut buf = Vec::new();
            handle_mark(state, g, m, &mut |m| buf.push(m));
            queue.extend(buf);
            events += 1;
            assert!(events < 100_000, "marking diverged");
        }
    }

    /// The classic lost-vertex scenario from Section 4.2: a → b → c; the
    /// mark from a to b is "in flight" (here: b not yet visited but a
    /// already marked would be the broken case — we construct the paper's
    /// exact interleaving with a transient).
    #[test]
    fn add_reference_transient_unmarked_spawns_mark() {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.connect(b, c);
        g.set_root(a);

        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        // Marking has touched a (transient, owes one mark to b) but the
        // mark task on b has not executed yet.
        let mut pending = Vec::new();
        handle_mark(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: a,
                par: MarkParent::RootPar,
            },
            &mut |m| pending.push(m),
        );
        assert!(g.mark(a, Slot::R).is_transient());

        // Mutator: connect a → c, then delete b → c.
        let mut extra = Vec::new();
        add_reference(&mut state, &mut g, a, b, c, &mut |m| extra.push(m)).unwrap();
        assert_eq!(extra.len(), 1, "cooperation spawned a mark for c");
        delete_reference(&mut g, b, c);

        pending.extend(extra);
        drain(&mut state, &mut g, pending);
        assert!(state.r_done);
        assert!(g.mark(c, Slot::R).is_marked(), "c was not lost");
    }

    #[test]
    fn add_reference_without_cooperation_loses_vertex() {
        // Identical scenario with cooperation disabled: c is never marked.
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.connect(b, c);
        g.set_root(a);

        let mut state = MarkState::new();
        state.cooperation_enabled = false;
        state.begin_r(RMode::Simple);
        let mut pending = Vec::new();
        handle_mark(
            &mut state,
            &mut g,
            MarkMsg::Mark1 {
                v: a,
                par: MarkParent::RootPar,
            },
            &mut |m| pending.push(m),
        );
        // The mark for b is pending. Mutate: a → c added, b → c removed,
        // and crucially ALSO b → c's sibling path... Remove b → c before
        // the pending mark for b executes.
        add_reference(&mut state, &mut g, a, b, c, &mut |_| {
            panic!("no cooperation when disabled")
        })
        .unwrap();
        delete_reference(&mut g, b, c);
        drain(&mut state, &mut g, pending);
        assert!(state.r_done);
        assert!(
            g.mark(c, Slot::R).is_unmarked(),
            "static-graph assumption loses c"
        );
    }

    #[test]
    fn add_reference_marked_transient_executes_mark() {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.connect(b, c);

        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        // Hand-construct: a marked, b transient (mid-marking), c unmarked.
        g.mark_mut(a, Slot::R).color = Color::Marked;
        g.mark_mut(b, Slot::R).color = Color::Transient;
        g.mark_mut(b, Slot::R).mt_par = Some(MarkParent::Vertex(a));
        g.mark_mut(b, Slot::R).mt_cnt = 1; // owes the mark on c

        let mut out = Vec::new();
        add_reference(&mut state, &mut g, a, b, c, &mut |m| out.push(m)).unwrap();
        // Executed synchronously: c at least transient already.
        assert!(
            !g.mark(c, Slot::R).is_unmarked(),
            "invariant 2 restored synchronously"
        );
        assert_eq!(g.mark(b, Slot::R).mt_cnt, 2);
        let mut arcs_to_c = 0;
        g.vertex(a)
            .for_each_r_child(|x| arcs_to_c += usize::from(x == c));
        assert_eq!(arcs_to_c, 1);
    }

    #[test]
    fn add_reference_marked_unmarked_marks_on_virtual_root() {
        // a completed while the mark some third vertex owes b is still in
        // flight; the mutator now moves c from b to a. The late mark will
        // not find c below b, so c is marked here and now.
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(a, b);
        g.connect(b, c);

        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        g.mark_mut(a, Slot::R).color = Color::Marked;

        let mut out = Vec::new();
        add_reference(&mut state, &mut g, a, b, c, &mut |m| out.push(m)).unwrap();
        delete_reference(&mut g, b, c);
        assert!(g.mark(c, Slot::R).is_marked(), "c (a leaf) marked at once");
        assert!(
            g.mark(b, Slot::R).is_unmarked(),
            "b is left to its own mark"
        );
        assert_eq!(state.r_extra_outstanding(), 1, "hung on the virtual root");
        assert_eq!(
            out,
            vec![MarkMsg::Return {
                slot: Slot::R,
                to: MarkParent::TaskRootPar
            }]
        );
        drain(&mut state, &mut g, out);
        assert_eq!(state.r_extra_outstanding(), 0);
    }

    #[test]
    fn add_reference_rejects_non_adjacent() {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
        // no arcs at all
        let mut state = MarkState::new();
        let err = add_reference(&mut state, &mut g, a, b, c, &mut |_| {}).unwrap_err();
        assert!(matches!(err, GraphError::NotAdjacent { .. }));
        assert!(g.vertex(a).args().is_empty());
    }

    #[test]
    fn dereference_removes_arc_and_requester() {
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::If).unwrap();
        let y = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, y);
        g.vertex_mut(y).add_requester(Requester::Vertex(x));
        assert!(dereference(&mut g, x, y));
        assert!(g.vertex(x).args().is_empty());
        assert!(g.vertex(y).requested().is_empty());
    }

    #[test]
    fn t_arc_cooperation_transient_source() {
        let mut g = GraphStore::with_capacity(4);
        let v = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let x = g.alloc(NodeLabel::If).unwrap();
        let mut state = MarkState::new();
        state.begin_t(1);
        g.mark_mut(v, Slot::T).color = Color::Transient;
        g.mark_mut(v, Slot::T).mt_par = Some(MarkParent::TaskRootPar);

        let mut out = Vec::new();
        add_requester(&mut state, &mut g, v, Requester::Vertex(x), &mut |m| {
            out.push(m)
        });
        assert_eq!(g.mark(v, Slot::T).mt_cnt, 1);
        assert_eq!(
            out,
            vec![MarkMsg::Mark3 {
                v: x,
                par: MarkParent::Vertex(v)
            }]
        );
        assert_eq!(g.vertex(v).requested(), &[Requester::Vertex(x)]);
    }

    #[test]
    fn t_arc_from_marked_source_spawns_nothing() {
        // M_T is a snapshot: arcs grown out of already-finished vertices
        // are not chased (the deadlock report's activity screen covers
        // them); crucially, t_done is never retracted, so the pass
        // terminates under a continuously mutating workload.
        let mut g = GraphStore::with_capacity(4);
        let v = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let x = g.alloc(NodeLabel::If).unwrap();
        let mut state = MarkState::new();
        state.begin_t(1);
        state.return_to_troot(); // the original pass finished...
        assert!(state.t_done);
        g.mark_mut(v, Slot::T).color = Color::Marked;

        add_requester(&mut state, &mut g, v, Requester::Vertex(x), &mut |_| {
            panic!("no marks for arcs out of finished vertices")
        });
        assert!(g.mark(x, Slot::T).is_unmarked());
        assert!(state.t_done, "termination is never re-armed");
        assert_eq!(g.vertex(v).requested(), &[Requester::Vertex(x)]);
    }

    #[test]
    fn external_requester_needs_no_cooperation() {
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        let mut state = MarkState::new();
        state.begin_t(1);
        g.mark_mut(v, Slot::T).color = Color::Marked;
        add_requester(&mut state, &mut g, v, Requester::External, &mut |_| {
            panic!("no marks for external requesters")
        });
        assert_eq!(g.vertex(v).requested(), &[Requester::External]);
    }

    fn inc_template() -> Template {
        Template::new(
            "inc",
            1,
            vec![
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Add),
                    vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                ),
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn expand_node_marked_parent_marks_fresh() {
        let mut g = GraphStore::with_capacity(8);
        let arg = g.alloc(NodeLabel::lit_int(41)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, arg);
        let mut state = MarkState::new();
        state.begin_r(RMode::Priority);
        g.mark_mut(app, Slot::R).color = Color::Marked;
        g.mark_mut(app, Slot::R).prior = Priority::Vital;
        g.mark_mut(arg, Slot::R).color = Color::Marked;
        g.mark_mut(arg, Slot::R).prior = Priority::Vital;

        let mut fresh = Vec::new();
        expand_node(
            &mut state,
            &mut g,
            app,
            &inc_template(),
            &[arg],
            &mut fresh,
            &mut |_| panic!("no marks when parent marked"),
        )
        .unwrap();
        for f in fresh {
            assert!(g.mark(f, Slot::R).is_marked());
            // Reachable only through fresh unrequested arcs: Reserve.
            assert_eq!(g.mark(f, Slot::R).prior, Priority::Reserve);
        }
    }

    #[test]
    fn expand_node_transient_parent_spawns_marks() {
        let mut g = GraphStore::with_capacity(8);
        let arg = g.alloc(NodeLabel::lit_int(41)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, arg);
        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        g.mark_mut(app, Slot::R).color = Color::Transient;
        g.mark_mut(app, Slot::R).mt_par = Some(MarkParent::RootPar);
        g.mark_mut(app, Slot::R).mt_cnt = 1; // owes a mark to arg (in flight)

        let (mut out, mut fresh) = (Vec::new(), Vec::new());
        let tpl = inc_template();
        expand_node(
            &mut state,
            &mut g,
            app,
            &tpl,
            &[arg],
            &mut fresh,
            &mut |m| out.push(m),
        )
        .unwrap();
        assert_eq!(fresh.len(), 1);
        for &f in &fresh {
            assert!(g.mark(f, Slot::R).is_unmarked());
        }
        // Marks spawned on the NEW children of app (= [arg, fresh[0]]).
        assert_eq!(out.len(), 2);
        assert_eq!(g.mark(app, Slot::R).mt_cnt, 3);
    }

    #[test]
    fn expand_node_unmarked_parent_no_marks() {
        let mut g = GraphStore::with_capacity(8);
        let arg = g.alloc(NodeLabel::lit_int(41)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, arg);
        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        let mut fresh = Vec::new();
        expand_node(
            &mut state,
            &mut g,
            app,
            &inc_template(),
            &[arg],
            &mut fresh,
            &mut |_| panic!("no marks for unmarked parent"),
        )
        .unwrap();
        for f in fresh {
            assert!(g.mark(f, Slot::R).is_unmarked());
        }
    }
}
