//! The reduction rules: execution of request and return tasks.

use dgr_core::{coop, MarkMsg, MarkState};
use dgr_graph::{
    GraphStore, NodeLabel, PartitionMap, PeId, PrimOp, Priority, RequestKind, Requester, Value,
    VertexId,
};

use crate::msg::RedMsg;
use crate::stats::RedStats;
use crate::templates::{TemplateId, TemplateStore};

/// How many vertices a join's wait walk ([`EngineCtx::request`]) visits
/// before it gives up and counts a possible cycle of waits.
const WAIT_WALK_BOUND: u32 = 1024;

/// Everything the engine needs to execute one reduction task.
///
/// The borrowed fields are deliberately separate (rather than a single
/// `&mut System`) and the spawned reduction tasks leave through a sink the
/// runtime supplies, so the engine can be driven by any runtime: the
/// [`System`](crate::System) simulator loop, whose sink enqueues on the
/// spot, or a test harness collecting into a `Vec`.
pub struct EngineCtx<'a, R> {
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
    /// The vertex-to-PE assignment spawned reduction tasks are routed by,
    /// resized by the task that grows the heap before it spawns anything.
    pub partition: &'a mut PartitionMap,
    /// Receives each spawned reduction task as it is spawned, with the PE
    /// it executes on and its scheduling priority.
    pub red: R,
    /// How many tasks `red` has received from this task.
    pub spawned: u32,
    /// Spawned marking tasks (from the cooperating mutators), routed by
    /// the runtime once the task has executed.
    pub out_mark: &'a mut Vec<MarkMsg>,
    /// Scratch for an application's actuals and an expansion's fresh
    /// vertices (`fresh` is also the wait walk's stack), kept across tasks
    /// for their capacity.
    pub actuals: &'a mut Vec<VertexId>,
    /// See `actuals`.
    pub fresh: &'a mut Vec<VertexId>,
}

/// Executes one reduction task atomically.
pub fn handle_red<R: FnMut(PeId, RedMsg, Priority)>(ctx: &mut EngineCtx<'_, R>, msg: RedMsg) {
    match msg {
        RedMsg::Request { src, dst, kind } => ctx.request(src, dst, kind),
        RedMsg::Return { src, dst, value } => {
            match dst {
                Requester::Vertex(v) => ctx.ret(src, v, value),
                // Returns to the external observer are intercepted by the
                // runtime before reaching the engine; tolerate them anyway.
                Requester::External => {}
            }
        }
    }
}

impl<R: FnMut(PeId, RedMsg, Priority)> EngineCtx<'_, R> {
    fn push_red(&mut self, msg: RedMsg, prio: Priority) {
        self.spawned += 1;
        (self.red)(self.partition.pe_of_dest(msg.dest_vertex()), msg, prio);
    }

    /// Spawns a return task `<src, dst>` carrying `value`.
    fn reply(&mut self, src: VertexId, dst: Requester, value: Value) {
        if let Requester::Vertex(x) = dst {
            self.g.touch(x);
        }
        self.push_red(RedMsg::Return { src, dst, value }, Priority::Vital);
    }

    /// Executes a request task `<src, v>`.
    fn request(&mut self, src: Requester, v: VertexId, kind: RequestKind) {
        self.stats.requests += 1;
        if kind == RequestKind::Eager {
            self.stats.eager_requests += 1;
        }
        if self.g.is_free(v) {
            // An irrelevant task that escaped expunging reached a reclaimed
            // vertex. Counted; never happens when restructuring purges pools.
            self.stats.dangling_requests += 1;
            return;
        }
        self.g.touch(v);
        if let Some(val) = self.g.vertex(v).value.clone() {
            self.reply(v, src, val);
            return;
        }
        coop::add_requester(self.state, self.g, v, src, &mut |m| self.out_mark.push(m));
        let vert = self.g.vertex_mut(v);
        vert.demand = vert.demand.max(kind.priority());
        let first = vert.requested().len() == 1;
        // The one new wait edge that can close a cycle of waits: onto a
        // vertex that is already evaluating — demanded before, or demanded
        // anew while still waiting on its own arguments after its
        // requesters were dropped (DESIGN note 13).
        if let Requester::Vertex(s) = src {
            if (!first || vert.pending_arg_values() > 0) && self.waits_on(v, s) {
                self.stats.wait_cycles += 1;
            }
        }
        if first {
            // First demand: activate the vertex.
            self.dispatch(v);
        }
    }

    /// Whether `v` waits on `s`, itself or through a chain of pending waits
    /// (requested arcs whose value has not arrived). A walk longer than
    /// [`WAIT_WALK_BOUND`] vertices answers yes: the answer may only err
    /// towards running `M_T`.
    fn waits_on(&mut self, v: VertexId, s: VertexId) -> bool {
        let mut stack = std::mem::take(self.fresh);
        stack.clear();
        stack.push(v);
        let mut walked = 0;
        let found = loop {
            let Some(w) = stack.pop() else { break false };
            walked += 1;
            if w == s || walked > WAIT_WALK_BOUND {
                break true;
            }
            let vert = self.g.vertex(w);
            let arcs = vert.args().iter().zip(vert.request_kinds());
            for ((&a, k), val) in arcs.zip(vert.arg_values()) {
                if k.is_some() && val.is_none() {
                    stack.push(a);
                }
            }
        };
        *self.fresh = stack;
        found
    }

    /// Activates vertex `v` according to its label (on first demand, and again
    /// after an `expand-node` relabels it).
    fn dispatch(&mut self, v: VertexId) {
        let vert = self.g.vertex(v);
        let argc = vert.args().len();
        match vert.label {
            NodeLabel::Lit(ref val) => {
                let val = val.clone();
                self.complete(v, val);
            }
            NodeLabel::Prim(op) => {
                if argc != op.arity() {
                    self.bottom(v);
                } else {
                    for i in 0..argc {
                        self.request_arg(v, i, RequestKind::Vital);
                    }
                }
            }
            NodeLabel::If => {
                if argc != 3 {
                    self.bottom(v);
                } else {
                    self.request_arg(v, 0, RequestKind::Vital);
                    if self.speculation {
                        self.request_arg(v, 1, RequestKind::Eager);
                        self.request_arg(v, 2, RequestKind::Eager);
                    }
                }
            }
            NodeLabel::Cons => {
                if argc != 2 {
                    self.bottom(v);
                } else {
                    let (h, t) = (vert.args()[0], vert.args()[1]);
                    self.complete(v, Value::Cons(h, t));
                }
            }
            NodeLabel::Apply => {
                if argc == 0 {
                    self.bottom(v);
                } else {
                    self.request_arg(v, 0, RequestKind::Vital);
                }
            }
            NodeLabel::Ind => {
                if argc != 1 {
                    self.bottom(v);
                } else {
                    self.request_arg(v, 0, RequestKind::Vital);
                }
            }
            NodeLabel::Hole => self.bottom(v),
        }
    }

    /// Requests the value of arg `i` of `v` (no-op if already requested):
    /// records the request kind in `req-args` and spawns the request task.
    fn request_arg(&mut self, v: VertexId, i: usize, kind: RequestKind) {
        if self.g.vertex(v).request_kinds()[i].is_some() {
            return;
        }
        self.g.vertex_mut(v).set_request_kind(i, Some(kind));
        let dst = self.g.vertex(v).args()[i];
        // The spawned task makes `dst` task-reachable even though the arc
        // just left the `args − req-args` view M_T traces; stamp it so the
        // deadlock report cannot misread it (see `Vertex::touched`).
        self.g.touch(dst);
        // The scheduling lane is `min(demand(v), request-type)` — a vital
        // sub-request of a speculative computation is itself speculative work
        // relative to the whole program (the paper's min-over-path rule).
        let lane = self.g.vertex(v).demand.min(kind.priority());
        let src = Requester::Vertex(v);
        self.push_red(RedMsg::Request { src, dst, kind }, lane);
    }

    /// Completes `v` with `value`: stores it, deletes the references to the
    /// arguments (this is what turns exhausted subcomputations into garbage),
    /// and replies to every requester.
    fn complete(&mut self, v: VertexId, value: Value) {
        let vert = self.g.vertex_mut(v);
        vert.value = Some(value.clone());
        // delete-reference on every remaining argument arc. Arc removal
        // never requires marking cooperation. Vertices the value itself
        // names (cons components, captured arguments) stay reachable via
        // the value.
        vert.replace_args([]);
        let requesters = vert.take_requested();
        for &r in requesters.iter() {
            self.reply(v, r, value.clone());
        }
    }

    /// Completes `v` with `⊥` (type errors, division by zero, malformed
    /// graphs).
    fn bottom(&mut self, v: VertexId) {
        self.stats.bottoms += 1;
        // Any speculative interest this vertex held is dropped so that the
        // corresponding requesters are not kept waiting on arcs that will
        // never produce anything; complete() then clears the arcs.
        let argc = self.g.vertex(v).args().len();
        for i in (0..argc).rev() {
            if self.g.vertex(v).request_kinds()[i].is_some()
                && self.g.vertex(v).arg_values()[i].is_none()
            {
                self.dereference_at(v, i);
            }
        }
        self.complete(v, Value::Bottom);
    }

    /// Removes arc `i` of `v` and retracts `v` from the target's `requested`
    /// set — the paper's *dereference* of a speculatively demanded vertex.
    fn dereference_at(&mut self, v: VertexId, i: usize) {
        let (target, kind) = self.g.vertex_mut(v).remove_arg_at(i);
        self.g.remove_requester(target, Requester::Vertex(v));
        if kind == Some(RequestKind::Eager) {
            self.stats.dereferences += 1;
        }
    }

    /// Executes a return task `<src, v>` carrying `value`.
    fn ret(&mut self, src: VertexId, v: VertexId, value: Value) {
        self.stats.returns += 1;
        if self.g.is_free(v) {
            self.stats.stale_returns += 1;
            return;
        }
        self.g.touch(v);
        if self.g.vertex(v).value.is_some() {
            self.stats.stale_returns += 1;
            return;
        }
        // Find the arc this return answers: first occurrence of src that was
        // requested and has not yet received a value (multigraph-safe).
        let slot = {
            let vert = self.g.vertex(v);
            (0..vert.args().len()).find(|&i| {
                vert.args()[i] == src
                    && vert.request_kinds()[i].is_some()
                    && vert.arg_values()[i].is_none()
            })
        };
        let Some(i) = slot else {
            // The arc was dereferenced while the return was in flight.
            self.stats.stale_returns += 1;
            return;
        };
        self.g.vertex_mut(v).set_arg_value(i, value.clone());

        match self.g.vertex(v).label {
            NodeLabel::Prim(op) => self.prim_return(v, op),
            NodeLabel::If => self.if_return(v, i, value),
            NodeLabel::Apply => self.apply_return(v, i, value),
            NodeLabel::Ind => self.complete(v, value),
            _ => {
                self.stats.stale_returns += 1;
            }
        }
    }

    fn prim_return(&mut self, v: VertexId, op: PrimOp) {
        match op {
            PrimOp::Head | PrimOp::Tail => self.head_tail_return(v, op),
            PrimOp::IsNil => {
                let val = self.g.vertex(v).arg_values()[0]
                    .clone()
                    .expect("just stored");
                let out = match val {
                    Value::Nil => Value::Bool(true),
                    Value::Cons(..) => Value::Bool(false),
                    Value::Bottom => Value::Bottom,
                    _ => {
                        self.stats.bottoms += 1;
                        Value::Bottom
                    }
                };
                self.complete(v, out);
            }
            _ => {
                let vert = self.g.vertex(v);
                if vert.pending_arg_values() == 0 {
                    let out = eval_strict(op, vert.arg_values(), self.stats);
                    self.complete(v, out);
                }
            }
        }
    }

    /// `head` / `tail`: phase 1 receives the spine's weak head normal form;
    /// if it is a cons cell, the component is reached with the cooperating
    /// `add-reference` (three adjacent vertices: `v → spine → component`) and
    /// then requested; phase 2 completes with the component's value.
    fn head_tail_return(&mut self, v: VertexId, op: PrimOp) {
        if self.g.vertex(v).args().len() == 1 {
            let spine_val = self.g.vertex(v).arg_values()[0]
                .clone()
                .expect("just stored");
            match spine_val {
                Value::Cons(h, t) => {
                    let spine = self.g.vertex(v).args()[0];
                    let target = if op == PrimOp::Head { h } else { t };
                    self.stats.add_references += 1;
                    let added =
                        coop::add_reference(self.state, self.g, v, spine, target, &mut |m| {
                            self.out_mark.push(m)
                        });
                    if added.is_err() {
                        self.bottom(v);
                        return;
                    }
                    let idx = self.g.vertex(v).args().len() - 1;
                    self.request_arg(v, idx, RequestKind::Vital);
                }
                _ => self.bottom(v),
            }
        } else {
            // Phase 2: the component's value arrived (index 1).
            let val = self.g.vertex(v).arg_values()[1].clone().expect("phase 2");
            self.complete(v, val);
        }
    }

    fn if_return(&mut self, v: VertexId, i: usize, value: Value) {
        if i == 0 {
            // The predicate arrived.
            match value.as_bool() {
                None => self.bottom(v),
                Some(b) => {
                    self.dereference_at(v, if b { 2 } else { 1 });
                    // args are now [pred, kept-branch].
                    let keep = 1;
                    if let Some(val) = self.g.vertex(v).arg_values()[keep].clone() {
                        // Speculation already delivered the branch.
                        self.complete(v, val);
                        return;
                    }
                    match self.g.vertex(v).request_kinds()[keep] {
                        Some(RequestKind::Eager) => {
                            // The speculation turned out to be needed: upgrade
                            // (the dynamic re-prioritization of Section 3.2;
                            // tasks already in flight are re-laned by the next
                            // GC cycle).
                            self.g
                                .vertex_mut(v)
                                .set_request_kind(keep, Some(RequestKind::Vital));
                            self.stats.upgrades += 1;
                        }
                        None => self.request_arg(v, keep, RequestKind::Vital),
                        Some(RequestKind::Vital) => {}
                    }
                }
            }
        } else if self.g.vertex(v).args().len() == 2 && i == 1 {
            // The chosen branch's value arrived after branching.
            self.complete(v, value);
        }
        // Otherwise: a speculative branch returned before the predicate —
        // already stored in arg_values, nothing more to do.
    }

    fn apply_return(&mut self, v: VertexId, i: usize, value: Value) {
        if i != 0 {
            self.stats.stale_returns += 1;
            return;
        }
        match value {
            Value::Fn(tpl_id, caps) => {
                if self.templates.try_get(tpl_id).is_none() {
                    self.bottom(v);
                    return;
                }
                let mut total = std::mem::take(self.actuals);
                total.clear();
                total.extend_from_slice(&caps);
                total.extend_from_slice(&self.g.vertex(v).args()[1..]);
                let arity = self.templates.arity(tpl_id);
                use std::cmp::Ordering::*;
                match total.len().cmp(&arity) {
                    Equal => self.expand_in_place(v, tpl_id, &total),
                    // The one case that needs a list of its own.
                    Less => self.complete(v, Value::function(tpl_id, total.clone())),
                    Greater => self.oversaturated(v, tpl_id, &total),
                }
                *self.actuals = total;
            }
            _ => self.bottom(v), // `⊥`, or applying a non-function
        }
    }

    /// Grows the store if the free list cannot supply `needed` vertices and
    /// growth is allowed. Returns `false` if the heap is exhausted for good.
    fn ensure_free(&mut self, needed: usize) -> bool {
        if self.g.free_count() >= needed {
            return true;
        }
        if self.grow_step == 0 {
            return false;
        }
        self.g.grow(needed.max(self.grow_step));
        self.stats.grows += 1;
        // Under `Block` a vertex's PE depends on the capacity: every send of
        // this task is routed by the grown map, as long as growing comes first.
        debug_assert_eq!(self.spawned, 0, "a task grows the heap before it spawns");
        *self.partition = self.partition.resized(self.g.capacity());
        true
    }

    /// Saturated application: splice the supercombinator body below `v` with
    /// the cooperating `expand-node`, then re-activate `v` under its new label.
    fn expand_in_place(&mut self, v: VertexId, tpl_id: TemplateId, actuals: &[VertexId]) {
        let needed = self.templates.get(tpl_id).extra_vertices();
        if !self.ensure_free(needed) {
            self.bottom(v);
            return;
        }
        self.stats.expansions += 1;
        let tpl = self.templates.get(tpl_id);
        let expanded =
            coop::expand_node(self.state, self.g, v, tpl, actuals, self.fresh, &mut |m| {
                self.out_mark.push(m)
            });
        if expanded.is_err() {
            self.bottom(v);
            return;
        }
        self.dispatch(v);
    }

    /// Over-saturated application `f x1 … xn` with `n > arity(f)`: create a
    /// fresh inner vertex for the saturated part, rewire `v` to apply the
    /// inner result to the leftover arguments, and demand the inner vertex.
    /// The rewiring adds arcs outside the `add-reference` pattern, so the
    /// generic arc-cooperation hooks are used.
    fn oversaturated(&mut self, v: VertexId, tpl_id: TemplateId, total: &[VertexId]) {
        let arity = self.templates.arity(tpl_id);
        let needed = 1 + self.templates.get(tpl_id).extra_vertices();
        if !self.ensure_free(needed) {
            self.bottom(v);
            return;
        }
        let b = self.g.alloc(NodeLabel::Hole).expect("ensured above");
        self.stats.expansions += 1;
        let tpl = self.templates.get(tpl_id);
        // b is fresh (unmarked in both slots); instantiating below it needs no
        // special coloring — the arc-cooperation below restores invariant 2.
        let (actuals, fresh) = (&total[..arity], &mut *self.fresh);
        let expanded = coop::expand_node(self.state, self.g, b, tpl, actuals, fresh, &mut |m| {
            self.out_mark.push(m)
        });
        if expanded.is_err() {
            self.g.free(b);
            self.bottom(v);
            return;
        }
        let new_args = || std::iter::once(b).chain(total[arity..].iter().copied());
        self.g.vertex_mut(v).replace_args(new_args());
        for c in new_args() {
            coop::coop_r_arc(self.state, self.g, v, c, &mut |m| self.out_mark.push(m));
            coop::coop_t_arc(self.state, self.g, v, c, &mut |m| self.out_mark.push(m));
        }
        self.request_arg(v, 0, RequestKind::Vital);
    }
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

    /// Delivers one request `<src, dst>` to a hand-built graph and returns
    /// the engine's counters.
    fn request(g: &mut GraphStore, src: VertexId, dst: VertexId) -> RedStats {
        let mut stats = RedStats::default();
        let mut partition = PartitionMap::new(1, g.capacity(), dgr_graph::PartitionStrategy::Block);
        let kind = RequestKind::Vital;
        let msg = RedMsg::Request {
            src: Requester::Vertex(src),
            dst,
            kind,
        };
        handle_red(
            &mut EngineCtx {
                state: &mut MarkState::new(),
                g,
                templates: &TemplateStore::new(),
                speculation: false,
                grow_step: 0,
                stats: &mut stats,
                partition: &mut partition,
                red: |_, _, _| {},
                spawned: 0,
                out_mark: &mut Vec::new(),
                actuals: &mut Vec::new(),
                fresh: &mut Vec::new(),
            },
            msg,
        );
        stats
    }

    /// `n` evaluating `neg` vertices, each waiting on the next; the first
    /// is demanded from outside, the last waits on nothing yet.
    fn waiting_chain(g: &mut GraphStore, n: usize) -> Vec<VertexId> {
        let chain: Vec<_> = (0..n)
            .map(|_| g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap())
            .collect();
        g.vertex_mut(chain[0]).add_requester(Requester::External);
        for w in chain.windows(2) {
            wait(g, w[0], w[1]);
        }
        chain
    }

    /// `a` requests `b` and the request has run: a pending wait `a → b`.
    fn wait(g: &mut GraphStore, a: VertexId, b: VertexId) {
        g.connect(a, b);
        let i = g.vertex(a).args().len() - 1;
        g.vertex_mut(a)
            .set_request_kind(i, Some(RequestKind::Vital));
        g.vertex_mut(b).add_requester(Requester::Vertex(a));
    }

    #[test]
    fn a_request_that_closes_a_cycle_of_waits_is_counted() {
        // `x = neg x`: x, demanded and waiting on its argument, requests
        // itself.
        let mut g = GraphStore::with_capacity(8);
        let x = waiting_chain(&mut g, 1)[0];
        g.connect(x, x);
        g.vertex_mut(x)
            .set_request_kind(0, Some(RequestKind::Vital));
        assert_eq!(request(&mut g, x, x).wait_cycles, 1);
        // `a = neg b; b = neg a`: a waits on b, and b's request reaches a.
        let mut g = GraphStore::with_capacity(8);
        let [a, b] = waiting_chain(&mut g, 2)[..] else {
            unreachable!()
        };
        g.connect(b, a);
        g.vertex_mut(b)
            .set_request_kind(0, Some(RequestKind::Vital));
        assert_eq!(request(&mut g, b, a).wait_cycles, 1);
        // The same edge onto an `a` whose requesters were all dropped
        // (dereferenced, or purged as garbage) while it kept waiting on
        // `b`: a first demand that re-dispatches, walked all the same.
        let mut g = GraphStore::with_capacity(8);
        let [a, b] = waiting_chain(&mut g, 2)[..] else {
            unreachable!()
        };
        g.vertex_mut(a).retain_requesters(|_| false);
        g.connect(b, a);
        g.vertex_mut(b)
            .set_request_kind(0, Some(RequestKind::Vital));
        let stats = request(&mut g, b, a);
        assert_eq!((stats.requests, stats.wait_cycles), (1, 1));
    }

    #[test]
    fn a_join_on_a_shared_computing_argument_is_not_counted() {
        // p waits on s, which waits on l; q, beside p, requests s too.
        let mut g = GraphStore::with_capacity(8);
        let [p, s, _l] = waiting_chain(&mut g, 3)[..] else {
            unreachable!()
        };
        let q = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        g.vertex_mut(q).add_requester(Requester::External);
        g.connect(q, s);
        g.vertex_mut(q)
            .set_request_kind(0, Some(RequestKind::Vital));
        let stats = request(&mut g, q, s);
        assert_eq!(g.vertex(s).requested().len(), 2, "a join: {p} and {q}");
        assert_eq!(stats.wait_cycles, 0);
        // A first demand of a vertex with no pending wait walks nothing.
        let fresh = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        g.connect(q, fresh);
        assert_eq!(request(&mut g, q, fresh).wait_cycles, 0);
    }

    #[test]
    fn a_walk_cut_off_by_its_bound_is_counted() {
        let n = WAIT_WALK_BOUND as usize;
        // A chain the walk covers: no cycle, nothing counted.
        let mut g = GraphStore::with_capacity(n + 2);
        let chain = waiting_chain(&mut g, n);
        let q = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        g.connect(q, chain[0]);
        assert_eq!(request(&mut g, q, chain[0]).wait_cycles, 0);
        // One vertex longer: the walk gives up and counts.
        let mut g = GraphStore::with_capacity(n + 2);
        let chain = waiting_chain(&mut g, n + 1);
        let q = g.alloc(NodeLabel::Prim(PrimOp::Neg)).unwrap();
        g.connect(q, chain[0]);
        assert_eq!(request(&mut g, q, chain[0]).wait_cycles, 1);
    }

    /// The engine under a runtime that is not `System`: a sink collecting
    /// into a `Vec`. The return below expands `inc 1` in a full three-slot
    /// heap while `M_R` holds the application transient, on four PEs in
    /// blocks — growing to 19 slots moves vertex 1 from PE 1 to PE 0. What
    /// is asserted is what the runtime that staged both kinds of send held
    /// in its two buffers, each routed after the task by the grown map.
    #[test]
    fn a_vec_sink_sees_the_sends_of_a_heap_growing_expansion_in_order() {
        use dgr_core::{MarkMsg, RMode};
        use dgr_graph::{Color, MarkParent, PartitionStrategy, Slot};
        use dgr_graph::{Template, TemplateNode, TemplateRef};
        let mut ts = TemplateStore::new();
        let body = vec![
            TemplateNode::new(
                NodeLabel::Prim(PrimOp::Add),
                vec![TemplateRef::Param(0), TemplateRef::Local(1)],
            ),
            TemplateNode::new(NodeLabel::lit_int(1), vec![]),
        ];
        let inc = ts.register(Template::new("inc", 1, body).unwrap());
        let mut g = GraphStore::with_capacity(3);
        let f = g.alloc(NodeLabel::Lit(Value::function(inc, vec![])));
        let (f, x) = (f.unwrap(), g.alloc(NodeLabel::lit_int(1)).unwrap());
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, f);
        g.connect(app, x);
        g.vertex_mut(app)
            .set_request_kind(0, Some(RequestKind::Vital));
        let (mut state, mut stats) = (MarkState::new(), RedStats::default());
        state.begin_r(RMode::Simple);
        let slot = g.mark_mut(app, Slot::R);
        (slot.color, slot.mt_par, slot.mt_cnt) = (Color::Transient, Some(MarkParent::RootPar), 1);

        let mut partition = PartitionMap::new(4, 3, PartitionStrategy::Block);
        let (mut sent, mut out_mark) = (Vec::new(), Vec::new());
        handle_red(
            &mut EngineCtx {
                state: &mut state,
                g: &mut g,
                templates: &ts,
                speculation: false,
                grow_step: 16,
                stats: &mut stats,
                partition: &mut partition,
                red: |pe: PeId, m, prio| sent.push((pe.raw(), prio, m)),
                spawned: 0,
                out_mark: &mut out_mark,
                actuals: &mut Vec::new(),
                fresh: &mut Vec::new(),
            },
            RedMsg::Return {
                src: f,
                dst: Requester::Vertex(app),
                value: Value::function(inc, vec![]),
            },
        );
        assert_eq!((stats.grows, g.capacity()), (1, 19));
        assert_eq!(
            partition,
            PartitionMap::new(4, 19, PartitionStrategy::Block)
        );
        let fresh = VertexId::new(18);
        let request = |dst| RedMsg::Request {
            src: Requester::Vertex(app),
            dst,
            kind: RequestKind::Vital,
        };
        assert_eq!(
            sent,
            [
                (0, Priority::Reserve, request(x)),
                (3, Priority::Reserve, request(fresh))
            ]
        );
        let par = MarkParent::Vertex(app);
        let marks = [
            MarkMsg::Mark1 { v: x, par },
            MarkMsg::Mark1 { v: fresh, par },
        ];
        assert_eq!(out_mark, marks);
        let mark_pes = marks.map(|m| partition.pe_of_dest(m.dest_vertex()).raw());
        assert_eq!(mark_pes, [0, 3]);
    }
}
