//! The model-checked world: graph + marking state + per-PE mailboxes +
//! scripted mutator script position, with a canonical byte encoding used
//! for state deduplication.
//!
//! A world advances by [`Action`]s: deliver one pending marking message, or
//! apply the next scripted mutation. [`World::step`] applies an action and
//! immediately re-checks the marking invariants (and, at quiescence, the
//! end-state contract), so a violation is reported on the exact event that
//! introduced it.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use dgr_core::{coop, handle_mark, invariants, MarkMsg, MarkState};
use dgr_graph::{
    oracle, GraphStore, PartitionMap, PartitionStrategy, Priority, Requester, Slot, VertexId,
    VertexSet,
};

use crate::faults::{self, Fault};
use crate::scenario::{Built, MutAction, PassKind, Scenario};

/// Which delivery interleavings the explorer enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `true`: any pending message may be delivered next (a superset of
    /// every mailbox discipline and of every `SchedPolicy`). `false`:
    /// per-PE FIFO mailboxes — the choice is *which PE* delivers next,
    /// exactly the nondeterminism of the deterministic simulator.
    pub any_order: bool,
    /// Number of processing elements (modulo partition).
    pub num_pes: u16,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}pe",
            if self.any_order { "any" } else { "mailbox" },
            self.num_pes
        )
    }
}

/// One transition of the explored system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Deliver a pending marking message on a PE.
    Deliver {
        /// The PE whose mailbox holds the message.
        pe: u16,
        /// The message (identified by value; duplicates are
        /// interchangeable).
        msg: MarkMsg,
    },
    /// Apply the next scripted mutator action.
    Mutate {
        /// Index into the scenario's mutation script.
        idx: usize,
    },
}

/// Immutable per-run context: the scenario instance, interleaving mode,
/// injected fault, routing, and the oracle expectations (computed once on
/// the initial and final graphs).
pub struct Ctx {
    /// The scenario being explored.
    pub scenario: Scenario,
    /// The pristine built instance (worlds clone from it).
    pub built: Built,
    /// Interleaving mode.
    pub mode: Mode,
    /// Injected protocol fault ([`Fault::None`] for clean runs).
    pub fault: Fault,
    /// Vertex → PE map.
    pub partition: PartitionMap,
    /// `R` of the initial graph.
    pub r_initial: VertexSet,
    /// `R` of the final graph (after the full mutation script).
    pub r_final: VertexSet,
    /// Oracle priorities on the final graph.
    pub prior_final: Vec<Option<Priority>>,
    /// `T` of the initial graph.
    pub t_initial: VertexSet,
    /// `T` of the final graph.
    pub t_final: VertexSet,
}

impl Ctx {
    /// Builds the context: instantiates the scenario and precomputes the
    /// oracle expectations.
    pub fn new(scenario: Scenario, mode: Mode, fault: Fault) -> Ctx {
        let built = (scenario.build)();
        let gf = built.final_graph();
        let partition =
            PartitionMap::new(mode.num_pes, built.g.capacity(), PartitionStrategy::Modulo);
        Ctx {
            r_initial: oracle::reachable_r(&built.g),
            r_final: oracle::reachable_r(&gf),
            prior_final: oracle::priorities(&gf),
            t_initial: oracle::reachable_t(&built.g, &built.tasks),
            t_final: oracle::reachable_t(&gf, &built.tasks),
            scenario,
            built,
            mode,
            fault,
            partition,
        }
    }

    /// The mark slot this run operates on.
    pub fn slot(&self) -> Slot {
        self.built.kind.slot()
    }

    /// Routes a message to its owning PE (dummy-root returns go to PE 0,
    /// where the pass was initiated — same as the drivers).
    pub fn route_pe(&self, msg: &MarkMsg) -> u16 {
        msg.dest_vertex()
            .map(|v| self.partition.pe_of(v).raw())
            .unwrap_or(0)
    }
}

/// One reachable state of the explored system.
#[derive(Clone)]
pub struct World {
    /// The (mutating) graph.
    pub g: GraphStore,
    /// Marking-process state.
    pub state: MarkState,
    /// Per-PE FIFO mailboxes of undelivered marking messages.
    pub queues: Vec<VecDeque<MarkMsg>>,
    /// How many scripted mutations have been applied.
    pub mut_cursor: usize,
    /// Whether the injected fault has fired yet (faults fire once).
    pub fault_fired: bool,
    /// T-arcs created while their source was already T-marked: exempt from
    /// invariants 1/2 on the T slot (snapshot semantics; see
    /// [`dgr_core::coop::coop_t_arc`]).
    pub screened: Vec<(VertexId, VertexId)>,
}

impl World {
    /// The initial world of a run: pristine graph, initial messages
    /// enqueued, no mutations applied.
    pub fn init(ctx: &Ctx) -> World {
        let mut w = World {
            g: ctx.built.g.clone(),
            state: ctx.built.state.clone(),
            queues: vec![VecDeque::new(); ctx.mode.num_pes as usize],
            mut_cursor: 0,
            fault_fired: false,
            screened: Vec::new(),
        };
        for m in ctx.built.initial.clone() {
            w.enqueue(ctx, m);
        }
        w
    }

    fn enqueue(&mut self, ctx: &Ctx, m: MarkMsg) {
        let pe = ctx.route_pe(&m) as usize;
        self.queues[pe].push_back(m);
    }

    /// All undelivered messages, in mailbox order.
    pub fn pending(&self) -> Vec<MarkMsg> {
        self.queues.iter().flat_map(|q| q.iter().copied()).collect()
    }

    /// `true` once every message is delivered and every mutation applied.
    pub fn is_quiescent(&self, ctx: &Ctx) -> bool {
        self.mut_cursor == ctx.built.muts.len() && self.queues.iter().all(|q| q.is_empty())
    }

    /// The actions enabled in this state. Identical pending messages are
    /// interchangeable, so only one delivery per distinct message is
    /// offered in any-order mode.
    pub fn enabled(&self, ctx: &Ctx) -> Vec<Action> {
        let mut acts = Vec::new();
        if ctx.mode.any_order {
            let mut seen: Vec<MarkMsg> = Vec::new();
            for (pe, q) in self.queues.iter().enumerate() {
                for &m in q {
                    if !seen.contains(&m) {
                        seen.push(m);
                        acts.push(Action::Deliver {
                            pe: pe as u16,
                            msg: m,
                        });
                    }
                }
            }
        } else {
            for (pe, q) in self.queues.iter().enumerate() {
                if let Some(&m) = q.front() {
                    acts.push(Action::Deliver {
                        pe: pe as u16,
                        msg: m,
                    });
                }
                // One-shot transport reorder: the second message may jump
                // the queue. Skipped when it equals the front by value —
                // delivering it would not be a reorder at all.
                if ctx.fault == Fault::ReorderDeliver && !self.fault_fired {
                    if let Some(&m) = q.get(1) {
                        if q.front() != Some(&m) {
                            acts.push(Action::Deliver {
                                pe: pe as u16,
                                msg: m,
                            });
                        }
                    }
                }
            }
        }
        if self.mut_cursor < ctx.built.muts.len() {
            acts.push(Action::Mutate {
                idx: self.mut_cursor,
            });
        }
        acts
    }

    /// Applies one action, then re-checks the invariants (and the
    /// end-state contract if the world became quiescent).
    ///
    /// # Errors
    ///
    /// Returns the violation description; messages starting with
    /// `replay desync` indicate the action was not enabled (only possible
    /// when replaying a foreign trace).
    pub fn step(&mut self, ctx: &Ctx, action: &Action) -> Result<(), String> {
        match *action {
            Action::Deliver { pe, msg } => {
                let q = self
                    .queues
                    .get_mut(pe as usize)
                    .ok_or_else(|| format!("replay desync: no PE {pe}"))?;
                let pos = q
                    .iter()
                    .position(|m| *m == msg)
                    .ok_or_else(|| format!("replay desync: {msg:?} not pending on pe{pe}"))?;
                if !ctx.mode.any_order && pos != 0 {
                    if ctx.fault == Fault::ReorderDeliver && !self.fault_fired && pos == 1 {
                        self.fault_fired = true;
                    } else {
                        return Err(format!("replay desync: {msg:?} not at front of pe{pe}"));
                    }
                }
                q.remove(pos);
                let mut out: Vec<MarkMsg> = Vec::new();
                if !faults::pre_deliver(self, ctx, &msg, &mut out) {
                    handle_mark(&mut self.state, &mut self.g, msg, &mut |m| out.push(m));
                }
                faults::post_deliver(self, ctx, &msg, &mut out);
                for m in out {
                    self.enqueue(ctx, m);
                }
            }
            Action::Mutate { idx } => {
                if idx != self.mut_cursor {
                    return Err(format!(
                        "replay desync: mutation #{idx} but cursor at {}",
                        self.mut_cursor
                    ));
                }
                self.apply_mut(ctx, idx);
            }
        }
        self.check(ctx)
    }

    /// Notes a new T-arc `from → to` created while `from` was already
    /// T-marked: deliberately not chased (snapshot semantics), hence
    /// exempt from invariants 1/2 on the T slot.
    fn note_t_arc(&mut self, from: VertexId, to: VertexId) {
        if self.state.t_active && self.g.mark(from, Slot::T).is_marked() {
            self.screened.push((from, to));
        }
    }

    fn apply_mut(&mut self, ctx: &Ctx, idx: usize) {
        let mut out: Vec<MarkMsg> = Vec::new();
        match ctx.built.muts[idx].clone() {
            MutAction::AddReference { a, b, c } => {
                if ctx.fault == Fault::SkipCoopSplice && !self.fault_fired {
                    // The injected bug: splice the arc without cooperating
                    // with the marking processes.
                    self.fault_fired = true;
                    self.g.connect(a, c);
                } else {
                    self.note_t_arc(a, c);
                    coop::add_reference(&mut self.state, &mut self.g, a, b, c, &mut |m| {
                        out.push(m)
                    })
                    .expect("scenario script: add_reference precondition");
                }
            }
            MutAction::DeleteReference { a, b } => {
                coop::delete_reference(&mut self.g, a, b);
            }
            MutAction::Dereference { x, y } => {
                coop::dereference(&mut self.g, x, y);
            }
            MutAction::AddRequester { v, from } => {
                self.note_t_arc(v, from);
                coop::add_requester(
                    &mut self.state,
                    &mut self.g,
                    v,
                    Requester::Vertex(from),
                    &mut |m| out.push(m),
                );
            }
            MutAction::GrowArc { from, to } => {
                self.note_t_arc(from, to);
                coop::coop_r_arc(&mut self.state, &mut self.g, from, to, &mut |m| out.push(m));
                coop::coop_t_arc(&mut self.state, &mut self.g, from, to, &mut |m| out.push(m));
                self.g.connect(from, to);
            }
            MutAction::Expand { at, actuals } => {
                let tpl = ctx
                    .built
                    .template
                    .as_ref()
                    .expect("Expand needs a template");
                let (state, g, fresh) = (&mut self.state, &mut self.g, &mut Vec::new());
                coop::expand_node(state, g, at, tpl, &actuals, fresh, &mut |m| out.push(m))
                    .expect("scenario script: expand_node");
            }
        }
        self.mut_cursor += 1;
        for m in out {
            self.enqueue(ctx, m);
        }
    }

    /// Runs the per-event checks on the current state.
    ///
    /// # Errors
    ///
    /// Returns the first invariant or end-state violation found.
    pub fn check(&self, ctx: &Ctx) -> Result<(), String> {
        let pending = self.pending();
        let slot = ctx.slot();
        let screened = &self.screened;
        invariants::check_invariants_where(&self.g, slot, &pending, &self.state, |p, c| {
            slot == Slot::T && screened.contains(&(p, c))
        })?;
        if self.is_quiescent(ctx) {
            self.check_end(ctx)?;
        }
        Ok(())
    }

    /// End-state safety/liveness against the oracle expectations.
    fn check_end(&self, ctx: &Ctx) -> Result<(), String> {
        let slot = ctx.slot();
        match ctx.built.kind {
            PassKind::Mark1 | PassKind::Mark2 => {
                if !self.state.r_done {
                    return Err("liveness: quiescent but the R-side done flag is unset".into());
                }
            }
            PassKind::Mark3 => {
                if !self.state.t_done {
                    return Err("liveness: quiescent but t_done is unset".into());
                }
            }
        }
        for v in self.g.live_ids() {
            if self.g.mark(v, slot).is_transient() {
                return Err(format!("liveness: quiescent but {v} is still transient"));
            }
        }
        let marked: VertexSet = self
            .g
            .live_ids()
            .filter(|&v| self.g.mark(v, slot).is_marked())
            .collect();
        match ctx.built.kind {
            PassKind::Mark3 => {
                // Snapshot semantics: T_initial ⊆ marked ⊆ T_final.
                for v in ctx.t_initial.iter() {
                    if !marked.contains(v) {
                        return Err(format!("liveness: {v} ∈ T at cycle start but not T-marked"));
                    }
                }
                for v in marked.iter() {
                    if !ctx.t_final.contains(v) {
                        return Err(format!("safety: {v} T-marked but never task-reachable"));
                    }
                }
            }
            PassKind::Mark1 | PassKind::Mark2 => {
                // Liveness: everything reachable in the final graph is
                // marked — equivalently GAR ∩ R = ∅ for the garbage report
                // (garbage = live ∧ unmarked).
                for v in ctx.r_final.iter() {
                    if !marked.contains(v) {
                        return Err(format!(
                            "liveness: {v} ∈ R not marked — it would be collected as garbage"
                        ));
                    }
                }
                // Safety: all pre-cycle garbage is found. A marked vertex
                // must be reachable in the final graph (exact scenarios) or
                // at least have been reachable at one end of the cycle.
                for v in marked.iter() {
                    let ok = if ctx.built.end.exact {
                        ctx.r_final.contains(v)
                    } else {
                        ctx.r_final.contains(v) || ctx.r_initial.contains(v)
                    };
                    if !ok {
                        return Err(format!("safety: garbage vertex {v} is marked"));
                    }
                }
                if ctx.built.end.priorities {
                    for v in self.g.live_ids() {
                        let s = self.g.mark(v, Slot::R);
                        let got = s.is_marked().then_some(s.prior);
                        if got != ctx.prior_final[v.index()] {
                            return Err(format!(
                                "priority mismatch at {v}: marked {got:?}, oracle {:?}",
                                ctx.prior_final[v.index()]
                            ));
                        }
                    }
                }
                if ctx.built.end.closure {
                    invariants::check_priority_closure(&self.g)?;
                }
            }
        }
        Ok(())
    }

    /// Canonical byte encoding of this state, used as the deduplication
    /// key. Full encodings (not hashes) keep the search sound: two states
    /// merge only if genuinely equal. Mark slots are read through the
    /// normalizing accessor so stale epochs cannot split equal states; in
    /// any-order mode mailbox layout is irrelevant, so the message multiset
    /// is encoded sorted.
    pub fn encode(&self, ctx: &Ctx) -> Vec<u8> {
        let mut s = String::new();
        let _ = write!(s, "root={:?};", self.g.root());
        for v in self.g.live_ids() {
            let vx = self.g.vertex(v);
            let _ = write!(
                s,
                "v{}:a{:?}k{:?}q{:?}val{}|{:?}|{:?};",
                v.index(),
                vx.args(),
                vx.request_kinds(),
                vx.requested(),
                vx.value.is_some(),
                self.g.mark(v, Slot::R),
                self.g.mark(v, Slot::T),
            );
        }
        let _ = write!(
            s,
            "st={:?};mc={};ff={};scr={:?};",
            self.state, self.mut_cursor, self.fault_fired, self.screened
        );
        if ctx.mode.any_order {
            let mut msgs: Vec<String> = self
                .queues
                .iter()
                .flatten()
                .map(|m| format!("{m:?}"))
                .collect();
            msgs.sort();
            let _ = write!(s, "q={msgs:?}");
        } else {
            for (pe, q) in self.queues.iter().enumerate() {
                let _ = write!(s, "q{pe}={q:?};");
            }
        }
        s.into_bytes()
    }
}
