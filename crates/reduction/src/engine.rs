//! The reduction rules: execution of request and return tasks.

use dgr_core::{coop, MarkMsg, MarkState};
use dgr_graph::{GraphStore, NodeLabel, PrimOp, Priority, RequestKind, Requester, Value, VertexId};

use crate::msg::RedMsg;
use crate::stats::RedStats;
use crate::templates::{TemplateId, TemplateStore};

/// Everything the engine needs to execute one reduction task.
///
/// The borrowed fields are deliberately separate (rather than a single
/// `&mut System`) so the engine can be driven by any runtime: the
/// [`System`](crate::System) simulator loop, the GC driver in `dgr-gc`,
/// or a test harness with a hand-rolled queue.
pub struct EngineCtx<'a> {
    /// Marking-process state, consulted by the cooperating mutators.
    pub state: &'a mut MarkState,
    /// The computation graph.
    pub g: &'a mut GraphStore,
    /// The program's supercombinators.
    pub templates: &'a TemplateStore,
    /// Evaluate conditional branches eagerly (Section 3.2).
    pub speculation: bool,
    /// Vertices to add when the free list runs dry (`0` = fixed heap; an
    /// exhausted fixed heap reduces the offending vertex to `⊥`).
    pub grow_step: usize,
    /// Engine counters.
    pub stats: &'a mut RedStats,
    /// Spawned reduction tasks with their scheduling priority.
    pub out_red: &'a mut Vec<(RedMsg, Priority)>,
    /// Spawned marking tasks (from the cooperating mutators).
    pub out_mark: &'a mut Vec<MarkMsg>,
}

/// Executes one reduction task atomically.
pub fn handle_red(ctx: &mut EngineCtx<'_>, msg: RedMsg) {
    match msg {
        RedMsg::Request { src, dst, kind } => request(ctx, src, dst, kind),
        RedMsg::Return { src, dst, value } => {
            match dst {
                Requester::Vertex(v) => ret(ctx, src, v, value),
                // Returns to the external observer are intercepted by the
                // runtime before reaching the engine; tolerate them anyway.
                Requester::External => {}
            }
        }
    }
}

fn push_red(ctx: &mut EngineCtx<'_>, msg: RedMsg, prio: Priority) {
    ctx.out_red.push((msg, prio));
}

/// Spawns a return task `<v, to>` carrying `value`.
fn reply(ctx: &mut EngineCtx<'_>, v: VertexId, to: Requester, value: Value) {
    if let Requester::Vertex(x) = to {
        ctx.g.touch(x);
    }
    push_red(
        ctx,
        RedMsg::Return {
            src: v,
            dst: to,
            value,
        },
        Priority::Vital,
    );
}

/// Executes a request task `<src, v>`.
fn request(ctx: &mut EngineCtx<'_>, src: Requester, v: VertexId, kind: RequestKind) {
    ctx.stats.requests += 1;
    if kind == RequestKind::Eager {
        ctx.stats.eager_requests += 1;
    }
    if ctx.g.is_free(v) {
        // An irrelevant task that escaped expunging reached a reclaimed
        // vertex. Counted; never happens when restructuring purges pools.
        ctx.stats.dangling_requests += 1;
        return;
    }
    ctx.g.touch(v);
    if let Some(val) = ctx.g.vertex(v).value.clone() {
        reply(ctx, v, src, val);
        return;
    }
    coop::add_requester(ctx.state, ctx.g, v, src, &mut |m| ctx.out_mark.push(m));
    {
        let vert = ctx.g.vertex_mut(v);
        vert.demand = vert.demand.max(kind.priority());
    }
    if ctx.g.vertex(v).requested().len() == 1 {
        // First demand: activate the vertex.
        dispatch(ctx, v);
    }
}

/// Activates vertex `v` according to its label (on first demand, and again
/// after an `expand-node` relabels it).
fn dispatch(ctx: &mut EngineCtx<'_>, v: VertexId) {
    let vert = ctx.g.vertex(v);
    let argc = vert.args().len();
    match vert.label {
        NodeLabel::Lit(ref val) => {
            let val = val.clone();
            complete(ctx, v, val);
        }
        NodeLabel::Prim(op) => {
            if argc != op.arity() {
                bottom(ctx, v);
            } else {
                for i in 0..argc {
                    request_arg(ctx, v, i, RequestKind::Vital);
                }
            }
        }
        NodeLabel::If => {
            if argc != 3 {
                bottom(ctx, v);
            } else {
                request_arg(ctx, v, 0, RequestKind::Vital);
                if ctx.speculation {
                    request_arg(ctx, v, 1, RequestKind::Eager);
                    request_arg(ctx, v, 2, RequestKind::Eager);
                }
            }
        }
        NodeLabel::Cons => {
            if argc != 2 {
                bottom(ctx, v);
            } else {
                let (h, t) = (vert.args()[0], vert.args()[1]);
                complete(ctx, v, Value::Cons(h, t));
            }
        }
        NodeLabel::Apply => {
            if argc == 0 {
                bottom(ctx, v);
            } else {
                request_arg(ctx, v, 0, RequestKind::Vital);
            }
        }
        NodeLabel::Ind => {
            if argc != 1 {
                bottom(ctx, v);
            } else {
                request_arg(ctx, v, 0, RequestKind::Vital);
            }
        }
        NodeLabel::Hole => bottom(ctx, v),
    }
}

/// Requests the value of arg `i` of `v` (no-op if already requested):
/// records the request kind in `req-args` and spawns the request task.
fn request_arg(ctx: &mut EngineCtx<'_>, v: VertexId, i: usize, kind: RequestKind) {
    if ctx.g.vertex(v).request_kinds()[i].is_some() {
        return;
    }
    ctx.g.vertex_mut(v).set_request_kind(i, Some(kind));
    let dst = ctx.g.vertex(v).args()[i];
    // The spawned task makes `dst` task-reachable even though the arc
    // just left the `args − req-args` view M_T traces; stamp it so the
    // deadlock report cannot misread it (see `Vertex::touched`).
    ctx.g.touch(dst);
    // The scheduling lane is `min(demand(v), request-type)` — a vital
    // sub-request of a speculative computation is itself speculative work
    // relative to the whole program (the paper's min-over-path rule).
    let lane = ctx.g.vertex(v).demand.min(kind.priority());
    push_red(
        ctx,
        RedMsg::Request {
            src: Requester::Vertex(v),
            dst,
            kind,
        },
        lane,
    );
}

/// Completes `v` with `value`: stores it, deletes the references to the
/// arguments (this is what turns exhausted subcomputations into garbage),
/// and replies to every requester.
fn complete(ctx: &mut EngineCtx<'_>, v: VertexId, value: Value) {
    let vert = ctx.g.vertex_mut(v);
    vert.value = Some(value.clone());
    // delete-reference on every remaining argument arc. Arc removal
    // never requires marking cooperation. Vertices the value itself
    // names (cons components, captured arguments) stay reachable via
    // the value.
    vert.replace_args([]);
    let requesters = vert.take_requested();
    for &r in requesters.iter() {
        reply(ctx, v, r, value.clone());
    }
}

/// Completes `v` with `⊥` (type errors, division by zero, malformed
/// graphs).
fn bottom(ctx: &mut EngineCtx<'_>, v: VertexId) {
    ctx.stats.bottoms += 1;
    // Any speculative interest this vertex held is dropped so that the
    // corresponding requesters are not kept waiting on arcs that will
    // never produce anything; complete() then clears the arcs.
    let argc = ctx.g.vertex(v).args().len();
    for i in (0..argc).rev() {
        if ctx.g.vertex(v).request_kinds()[i].is_some() && ctx.g.vertex(v).arg_values()[i].is_none()
        {
            dereference_at(ctx, v, i);
        }
    }
    complete(ctx, v, Value::Bottom);
}

/// Removes arc `i` of `v` and retracts `v` from the target's `requested`
/// set — the paper's *dereference* of a speculatively demanded vertex.
fn dereference_at(ctx: &mut EngineCtx<'_>, v: VertexId, i: usize) {
    let (target, kind) = ctx.g.vertex_mut(v).remove_arg_at(i);
    ctx.g.remove_requester(target, Requester::Vertex(v));
    if kind == Some(RequestKind::Eager) {
        ctx.stats.dereferences += 1;
    }
}

/// Executes a return task `<src, v>` carrying `value`.
fn ret(ctx: &mut EngineCtx<'_>, src: VertexId, v: VertexId, value: Value) {
    ctx.stats.returns += 1;
    if ctx.g.is_free(v) {
        ctx.stats.stale_returns += 1;
        return;
    }
    ctx.g.touch(v);
    if ctx.g.vertex(v).value.is_some() {
        ctx.stats.stale_returns += 1;
        return;
    }
    // Find the arc this return answers: first occurrence of src that was
    // requested and has not yet received a value (multigraph-safe).
    let slot = {
        let vert = ctx.g.vertex(v);
        (0..vert.args().len()).find(|&i| {
            vert.args()[i] == src
                && vert.request_kinds()[i].is_some()
                && vert.arg_values()[i].is_none()
        })
    };
    let Some(i) = slot else {
        // The arc was dereferenced while the return was in flight.
        ctx.stats.stale_returns += 1;
        return;
    };
    ctx.g.vertex_mut(v).set_arg_value(i, value.clone());

    match ctx.g.vertex(v).label {
        NodeLabel::Prim(op) => prim_return(ctx, v, op),
        NodeLabel::If => if_return(ctx, v, i, value),
        NodeLabel::Apply => apply_return(ctx, v, i, value),
        NodeLabel::Ind => complete(ctx, v, value),
        _ => {
            ctx.stats.stale_returns += 1;
        }
    }
}

fn prim_return(ctx: &mut EngineCtx<'_>, v: VertexId, op: PrimOp) {
    match op {
        PrimOp::Head | PrimOp::Tail => head_tail_return(ctx, v, op),
        PrimOp::IsNil => {
            let val = ctx.g.vertex(v).arg_values()[0]
                .clone()
                .expect("just stored");
            let out = match val {
                Value::Nil => Value::Bool(true),
                Value::Cons(..) => Value::Bool(false),
                Value::Bottom => Value::Bottom,
                _ => {
                    ctx.stats.bottoms += 1;
                    Value::Bottom
                }
            };
            complete(ctx, v, out);
        }
        _ => {
            let vert = ctx.g.vertex(v);
            if vert.pending_arg_values() == 0 {
                let out = eval_strict(op, vert.arg_values(), ctx.stats);
                complete(ctx, v, out);
            }
        }
    }
}

/// `head` / `tail`: phase 1 receives the spine's weak head normal form;
/// if it is a cons cell, the component is reached with the cooperating
/// `add-reference` (three adjacent vertices: `v → spine → component`) and
/// then requested; phase 2 completes with the component's value.
fn head_tail_return(ctx: &mut EngineCtx<'_>, v: VertexId, op: PrimOp) {
    if ctx.g.vertex(v).args().len() == 1 {
        let spine_val = ctx.g.vertex(v).arg_values()[0]
            .clone()
            .expect("just stored");
        match spine_val {
            Value::Cons(h, t) => {
                let spine = ctx.g.vertex(v).args()[0];
                let target = if op == PrimOp::Head { h } else { t };
                ctx.stats.add_references += 1;
                let added = coop::add_reference(ctx.state, ctx.g, v, spine, target, &mut |m| {
                    ctx.out_mark.push(m)
                });
                if added.is_err() {
                    bottom(ctx, v);
                    return;
                }
                let idx = ctx.g.vertex(v).args().len() - 1;
                request_arg(ctx, v, idx, RequestKind::Vital);
            }
            _ => bottom(ctx, v),
        }
    } else {
        // Phase 2: the component's value arrived (index 1).
        let val = ctx.g.vertex(v).arg_values()[1].clone().expect("phase 2");
        complete(ctx, v, val);
    }
}

fn if_return(ctx: &mut EngineCtx<'_>, v: VertexId, i: usize, value: Value) {
    if i == 0 {
        // The predicate arrived.
        match value.as_bool() {
            None => bottom(ctx, v),
            Some(b) => {
                let keep_idx = if b { 1 } else { 2 };
                let drop_idx = if b { 2 } else { 1 };
                dereference_at(ctx, v, drop_idx);
                let keep = if drop_idx < keep_idx {
                    keep_idx - 1
                } else {
                    keep_idx
                };
                // args are now [pred, kept-branch].
                if let Some(val) = ctx.g.vertex(v).arg_values()[keep].clone() {
                    // Speculation already delivered the branch.
                    complete(ctx, v, val);
                    return;
                }
                match ctx.g.vertex(v).request_kinds()[keep] {
                    Some(RequestKind::Eager) => {
                        // The speculation turned out to be needed: upgrade
                        // (the dynamic re-prioritization of Section 3.2;
                        // tasks already in flight are re-laned by the next
                        // GC cycle).
                        ctx.g
                            .vertex_mut(v)
                            .set_request_kind(keep, Some(RequestKind::Vital));
                        ctx.stats.upgrades += 1;
                    }
                    None => request_arg(ctx, v, keep, RequestKind::Vital),
                    Some(RequestKind::Vital) => {}
                }
            }
        }
    } else if ctx.g.vertex(v).args().len() == 2 && i == 1 {
        // The chosen branch's value arrived after branching.
        complete(ctx, v, value);
    }
    // Otherwise: a speculative branch returned before the predicate —
    // already stored in arg_values, nothing more to do.
}

fn apply_return(ctx: &mut EngineCtx<'_>, v: VertexId, i: usize, value: Value) {
    if i != 0 {
        ctx.stats.stale_returns += 1;
        return;
    }
    match value {
        Value::Fn(tpl_id, caps) => {
            if ctx.templates.try_get(tpl_id).is_none() {
                bottom(ctx, v);
                return;
            }
            let applied = &ctx.g.vertex(v).args()[1..];
            let mut total = Vec::with_capacity(caps.len() + applied.len());
            total.extend_from_slice(&caps);
            total.extend_from_slice(applied);
            let arity = ctx.templates.arity(tpl_id);
            use std::cmp::Ordering::*;
            match total.len().cmp(&arity) {
                Equal => expand_in_place(ctx, v, tpl_id, &total),
                Less => complete(ctx, v, Value::function(tpl_id, total)),
                Greater => oversaturated(ctx, v, tpl_id, &total),
            }
        }
        Value::Bottom => bottom(ctx, v),
        _ => bottom(ctx, v), // applying a non-function
    }
}

/// Grows the store if the free list cannot supply `needed` vertices and
/// growth is allowed. Returns `false` if the heap is exhausted for good.
fn ensure_free(ctx: &mut EngineCtx<'_>, needed: usize) -> bool {
    if ctx.g.free_count() >= needed {
        return true;
    }
    if ctx.grow_step == 0 {
        return false;
    }
    ctx.g.grow(needed.max(ctx.grow_step));
    ctx.stats.grows += 1;
    true
}

/// Saturated application: splice the supercombinator body below `v` with
/// the cooperating `expand-node`, then re-activate `v` under its new label.
fn expand_in_place(ctx: &mut EngineCtx<'_>, v: VertexId, tpl_id: TemplateId, actuals: &[VertexId]) {
    let needed = ctx.templates.get(tpl_id).extra_vertices();
    if !ensure_free(ctx, needed) {
        bottom(ctx, v);
        return;
    }
    ctx.stats.expansions += 1;
    let tpl = ctx.templates.get(tpl_id);
    let expanded = coop::expand_node(ctx.state, ctx.g, v, tpl, actuals, &mut |m| {
        ctx.out_mark.push(m)
    });
    if expanded.is_err() {
        bottom(ctx, v);
        return;
    }
    dispatch(ctx, v);
}

/// Over-saturated application `f x1 … xn` with `n > arity(f)`: create a
/// fresh inner vertex for the saturated part, rewire `v` to apply the
/// inner result to the leftover arguments, and demand the inner vertex.
/// The rewiring adds arcs outside the `add-reference` pattern, so the
/// generic arc-cooperation hooks are used.
fn oversaturated(ctx: &mut EngineCtx<'_>, v: VertexId, tpl_id: TemplateId, total: &[VertexId]) {
    let arity = ctx.templates.arity(tpl_id);
    let needed = 1 + ctx.templates.get(tpl_id).extra_vertices();
    if !ensure_free(ctx, needed) {
        bottom(ctx, v);
        return;
    }
    let b = ctx
        .g
        .alloc(NodeLabel::Hole)
        .expect("capacity ensured above");
    ctx.stats.expansions += 1;
    let tpl = ctx.templates.get(tpl_id);
    // b is fresh (unmarked in both slots); instantiating below it needs no
    // special coloring — the arc-cooperation below restores invariant 2.
    let expanded = coop::expand_node(ctx.state, ctx.g, b, tpl, &total[..arity], &mut |m| {
        ctx.out_mark.push(m)
    });
    if expanded.is_err() {
        ctx.g.free(b);
        bottom(ctx, v);
        return;
    }
    let new_args = || std::iter::once(b).chain(total[arity..].iter().copied());
    ctx.g.vertex_mut(v).replace_args(new_args());
    for c in new_args() {
        coop::coop_r_arc(ctx.state, ctx.g, v, c, &mut |m| ctx.out_mark.push(m));
        coop::coop_t_arc(ctx.state, ctx.g, v, c, &mut |m| ctx.out_mark.push(m));
    }
    request_arg(ctx, v, 0, RequestKind::Vital);
}

/// Strict scalar evaluation over a vertex's argument values, all of which
/// have arrived. Any `⊥` operand yields `⊥` (footnote 4's definition of
/// strictness); type errors yield `⊥` as well.
fn eval_strict(op: PrimOp, vals: &[Option<Value>], stats: &mut RedStats) -> Value {
    use PrimOp::*;
    use Value::*;
    debug_assert!(vals.iter().all(Option::is_some), "all arrived");
    if vals.iter().any(|v| matches!(v, Some(Bottom))) {
        return Bottom;
    }
    let out = match (op, vals) {
        (Add, [Some(Int(a)), Some(Int(b))]) => Some(Int(a.wrapping_add(*b))),
        (Sub, [Some(Int(a)), Some(Int(b))]) => Some(Int(a.wrapping_sub(*b))),
        (Mul, [Some(Int(a)), Some(Int(b))]) => Some(Int(a.wrapping_mul(*b))),
        (Div | Mod, [Some(Int(_)), Some(Int(0))]) => None,
        (Div, [Some(Int(a)), Some(Int(b))]) => Some(Int(a.wrapping_div(*b))),
        (Mod, [Some(Int(a)), Some(Int(b))]) => Some(Int(a.wrapping_rem(*b))),
        (Neg, [Some(Int(a))]) => Some(Int(a.wrapping_neg())),
        (Eq, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a == b)),
        (Eq, [Some(Bool(a)), Some(Bool(b))]) => Some(Bool(a == b)),
        (Eq, [Some(Nil), Some(Nil)]) => Some(Bool(true)),
        (Ne, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a != b)),
        (Ne, [Some(Bool(a)), Some(Bool(b))]) => Some(Bool(a != b)),
        (Lt, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a < b)),
        (Le, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a <= b)),
        (Gt, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a > b)),
        (Ge, [Some(Int(a)), Some(Int(b))]) => Some(Bool(a >= b)),
        (And, [Some(Bool(a)), Some(Bool(b))]) => Some(Bool(*a && *b)),
        (Or, [Some(Bool(a)), Some(Bool(b))]) => Some(Bool(*a || *b)),
        (Not, [Some(Bool(a))]) => Some(Bool(!a)),
        _ => None,
    };
    out.unwrap_or_else(|| {
        stats.bottoms += 1;
        Bottom
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_strict_arithmetic() {
        let mut s = RedStats::default();
        assert_eq!(
            eval_strict(
                PrimOp::Add,
                &[Some(Value::Int(2)), Some(Value::Int(3))],
                &mut s
            ),
            Value::Int(5)
        );
        assert_eq!(
            eval_strict(
                PrimOp::Div,
                &[Some(Value::Int(7)), Some(Value::Int(2))],
                &mut s
            ),
            Value::Int(3)
        );
        assert_eq!(
            eval_strict(
                PrimOp::Div,
                &[Some(Value::Int(7)), Some(Value::Int(0))],
                &mut s
            ),
            Value::Bottom
        );
        assert_eq!(s.bottoms, 1);
    }

    #[test]
    fn eval_strict_is_bottom_preserving() {
        let mut s = RedStats::default();
        assert_eq!(
            eval_strict(
                PrimOp::Add,
                &[Some(Value::Bottom), Some(Value::Int(1))],
                &mut s
            ),
            Value::Bottom
        );
        // Strictness propagation is not an error.
        assert_eq!(s.bottoms, 0);
    }

    #[test]
    fn eval_strict_type_errors() {
        let mut s = RedStats::default();
        assert_eq!(
            eval_strict(
                PrimOp::Add,
                &[Some(Value::Bool(true)), Some(Value::Int(1))],
                &mut s
            ),
            Value::Bottom
        );
        assert_eq!(
            eval_strict(
                PrimOp::And,
                &[Some(Value::Int(1)), Some(Value::Int(2))],
                &mut s
            ),
            Value::Bottom
        );
        assert_eq!(s.bottoms, 2);
    }

    #[test]
    fn eval_strict_comparisons_and_logic() {
        let mut s = RedStats::default();
        assert_eq!(
            eval_strict(
                PrimOp::Lt,
                &[Some(Value::Int(1)), Some(Value::Int(2))],
                &mut s
            ),
            Value::Bool(true)
        );
        assert_eq!(
            eval_strict(PrimOp::Eq, &[Some(Value::Nil), Some(Value::Nil)], &mut s),
            Value::Bool(true)
        );
        assert_eq!(
            eval_strict(PrimOp::Not, &[Some(Value::Bool(false))], &mut s),
            Value::Bool(true)
        );
        assert_eq!(
            eval_strict(PrimOp::Neg, &[Some(Value::Int(3))], &mut s),
            Value::Int(-3)
        );
        assert_eq!(s.bottoms, 0);
    }
}
