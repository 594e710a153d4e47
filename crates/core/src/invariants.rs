//! Checkers for the marking invariants of Sections 4.2 / 5.4.
//!
//! These are test/diagnostic utilities: given the graph, the pending
//! marking messages, and the marking state, they verify the three
//! invariants the correctness proofs rest on. They are O(|V| · |pending|)
//! and intended to run between simulator events in tests, not in
//! production loops.

use std::collections::HashMap;

use dgr_graph::{GraphStore, MarkParent, Slot, VertexId};

use crate::msg::MarkMsg;
use crate::state::MarkState;

fn is_mark_for_slot(m: &MarkMsg, slot: Slot) -> Option<(VertexId, MarkParent)> {
    match *m {
        MarkMsg::Mark1 { v, par } if slot == Slot::R => Some((v, par)),
        MarkMsg::Mark2 { v, par, .. } if slot == Slot::R => Some((v, par)),
        MarkMsg::Mark3 { v, par } if slot == Slot::T => Some((v, par)),
        _ => None,
    }
}

fn for_each_child(g: &GraphStore, slot: Slot, v: VertexId, f: impl FnMut(VertexId)) {
    match slot {
        Slot::R => g.vertex(v).for_each_r_child(f),
        Slot::T => g.vertex(v).for_each_t_child(f),
    }
}

/// Checks all three marking invariants for one slot. `pending` must be the
/// complete set of undelivered marking messages.
///
/// * **Invariant 1** — for every transient vertex `v`, every unmarked
///   child of `v` has a pending mark task targeting it.
/// * **Invariant 2** — a marked vertex is complete (`mt-cnt = 0`), and
///   every unmarked child it has is the target of a pending mark task.
///   (The paper states "no marked vertex has an unmarked child";
///   `add-reference` on two transient vertices adds an arc that only the
///   child's in-flight mark covers, so the source can complete first —
///   see [`crate::coop::add_reference`].)
/// * **Invariant 3** — `mt-cnt(v)` equals the number of unreturned mark
///   tasks spawned from `v`: pending marks with parent `v`, plus pending
///   returns to `v`, plus transient vertices whose `mt-par` is `v`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn check_invariants(
    g: &GraphStore,
    slot: Slot,
    pending: &[MarkMsg],
    state: &MarkState,
) -> Result<(), String> {
    check_invariants_where(g, slot, pending, state, |_, _| false)
}

/// [`check_invariants`] with an *exemption predicate* for invariants 1/2.
///
/// `M_T` has snapshot semantics: a T-arc grown out of an already-finished
/// (T-marked) vertex deliberately spawns no mark ([`crate::coop::coop_t_arc`]),
/// so `marked → unmarked` along such an arc is not a protocol violation —
/// the deadlock report's activity screen covers it. Callers that track
/// which arcs were created under those conditions (e.g. the model checker
/// in `dgr-check`) pass them here as `exempt(parent, child)`; invariant 3
/// is never exempted.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn check_invariants_where(
    g: &GraphStore,
    slot: Slot,
    pending: &[MarkMsg],
    state: &MarkState,
    exempt: impl Fn(VertexId, VertexId) -> bool,
) -> Result<(), String> {
    // Tally pending messages by marking-tree parent.
    let mut owed: HashMap<MarkParent, u32> = HashMap::new();
    let mut pending_mark_on: HashMap<VertexId, u32> = HashMap::new();
    for m in pending {
        if let Some((v, par)) = is_mark_for_slot(m, slot) {
            *owed.entry(par).or_default() += 1;
            *pending_mark_on.entry(v).or_default() += 1;
        }
        if let MarkMsg::Return { slot: s, to } = *m {
            if s == slot {
                *owed.entry(to).or_default() += 1;
            }
        }
    }
    for id in g.live_ids() {
        let s = g.mark(id, slot);
        if s.is_transient() {
            if let Some(MarkParent::Vertex(p)) = s.mt_par {
                *owed.entry(MarkParent::Vertex(p)).or_default() += 1;
            } else if let Some(par @ (MarkParent::RootPar | MarkParent::TaskRootPar)) = s.mt_par {
                *owed.entry(par).or_default() += 1;
            }
        }
    }

    for id in g.live_ids() {
        let s = g.mark(id, slot);
        // Invariant 3.
        let expected = owed
            .get(&MarkParent::Vertex(id))
            .copied()
            .unwrap_or_default();
        if s.mt_cnt != expected {
            return Err(format!(
                "invariant 3 violated at {id} ({slot:?}): mt-cnt = {} but {} unreturned marks",
                s.mt_cnt, expected
            ));
        }
        // Invariants 1 and 2.
        if s.is_marked() && s.mt_cnt != 0 {
            return Err(format!(
                "invariant 2 violated: {id} is marked with mt-cnt = {} ({slot:?})",
                s.mt_cnt
            ));
        }
        if s.is_transient() || s.is_marked() {
            // The first unmarked child nothing covers, if any.
            let mut uncovered = None;
            for_each_child(g, slot, id, |c| {
                if uncovered.is_none()
                    && g.mark(c, slot).is_unmarked()
                    && !exempt(id, c)
                    && pending_mark_on.get(&c).copied().unwrap_or_default() == 0
                {
                    uncovered = Some(c);
                }
            });
            if let Some(c) = uncovered {
                return Err(if s.is_marked() {
                    format!(
                        "invariant 2 violated: marked {id} points to unmarked {c} \
                         with no pending mark ({slot:?})"
                    )
                } else {
                    format!(
                        "invariant 1 violated: transient {id} has unmarked child {c} \
                         with no pending mark ({slot:?})"
                    )
                });
            }
        }
    }

    // The virtual extra root's own mt-cnt (troot for M_T, the orphan-mark
    // absorber for the R process).
    let expected = owed
        .get(&MarkParent::TaskRootPar)
        .copied()
        .unwrap_or_default();
    match slot {
        Slot::T if state.t_active && state.troot_outstanding != expected => {
            return Err(format!(
                "troot outstanding = {} but {} unreturned marks hang on it",
                state.troot_outstanding, expected
            ));
        }
        Slot::R if state.r_mode.is_some() && state.r_extra_outstanding() != expected => {
            return Err(format!(
                "R extra-root outstanding = {} but {} unreturned marks hang on it",
                state.r_extra_outstanding(),
                expected
            ));
        }
        _ => {}
    }
    Ok(())
}

/// After a completed `mark2` pass on a quiescent graph, checks that
/// priorities are *closed*: every marked vertex's children carry at least
/// `min(prior(v), request-type(c, v))`. Only meaningful when no request
/// kinds changed during the pass.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_priority_closure(g: &GraphStore) -> Result<(), String> {
    for id in g.live_ids() {
        let s = g.mark(id, Slot::R);
        if !s.is_marked() {
            continue;
        }
        let mut open = None;
        g.vertex(id).for_each_r_child_kind(|c, kind| {
            let need = s.prior.min(dgr_graph::Priority::of_request(kind));
            let cs = g.mark(c, Slot::R);
            if open.is_none() && (cs.is_unmarked() || cs.prior < need) {
                open = Some(format!(
                    "priority not closed: {id}@{:?} child {c}@{:?}, needs ≥ {need:?}",
                    s.prior, cs.prior
                ));
            }
        });
        if let Some(e) = open {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::handle_mark;
    use crate::state::RMode;
    use dgr_graph::{NodeLabel, PartitionMap, PartitionStrategy, Priority};

    /// Run mark1 step by step, checking invariants after every event.
    #[test]
    fn invariants_hold_throughout_mark1() {
        let mut g = GraphStore::with_capacity(16);
        // Small diamond with a cycle: root → a, b; a → c; b → c; c → root.
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::If).unwrap();
        g.connect(root, a);
        g.connect(root, b);
        g.connect(a, c);
        g.connect(b, c);
        g.connect(c, root);
        g.set_root(root);

        let owner = PartitionMap::new(1, g.capacity(), PartitionStrategy::Modulo);
        let mut state = MarkState::new();
        state.begin_r(RMode::Simple);
        let mut queue = vec![MarkMsg::Mark1 {
            v: root,
            par: MarkParent::RootPar,
        }];
        check_invariants(&g, Slot::R, &queue, &state).unwrap();
        while let Some(m) = queue.pop() {
            // LIFO order for variety.

            let mut buf = Vec::new();
            handle_mark(&mut state, &mut g, &owner, m, &mut |m| buf.push(m));
            queue.extend(buf);
            check_invariants(&g, Slot::R, &queue, &state).unwrap();
        }
        assert!(state.r_done);
    }

    #[test]
    fn invariants_hold_throughout_mark2_with_remarking() {
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let d = g.alloc(NodeLabel::If).unwrap();
        let below = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let mid = g.alloc(NodeLabel::If).unwrap();
        g.connect(root, d);
        g.vertex_mut(root)
            .set_request_kind(0, Some(dgr_graph::RequestKind::Eager));
        g.connect(root, mid);
        g.vertex_mut(root)
            .set_request_kind(1, Some(dgr_graph::RequestKind::Vital));
        g.connect(mid, d);
        g.vertex_mut(mid)
            .set_request_kind(0, Some(dgr_graph::RequestKind::Vital));
        g.connect(d, below);
        g.vertex_mut(d)
            .set_request_kind(0, Some(dgr_graph::RequestKind::Vital));
        g.set_root(root);

        // Two PEs: mid's mark to d is local, and still an upgrade message.
        let owner = PartitionMap::new(2, g.capacity(), PartitionStrategy::Modulo);
        let mut state = MarkState::new();
        state.begin_r(RMode::Priority);
        // FIFO so the eager path reaches d first, forcing a re-mark.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(MarkMsg::Mark2 {
            v: root,
            par: MarkParent::RootPar,
            prior: Priority::Vital,
        });
        while let Some(m) = queue.pop_front() {
            let mut buf = Vec::new();
            handle_mark(&mut state, &mut g, &owner, m, &mut |m| buf.push(m));
            queue.extend(buf);
            let pending: Vec<MarkMsg> = queue.iter().copied().collect();
            check_invariants(&g, Slot::R, &pending, &state).unwrap();
        }
        assert!(state.r_done);
        check_priority_closure(&g).unwrap();
    }

    #[test]
    fn invariant_3_detects_corrupt_count() {
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        g.mark_mut(v, Slot::R).mt_cnt = 5;
        let state = MarkState::new();
        let err = check_invariants(&g, Slot::R, &[], &state).unwrap_err();
        assert!(err.contains("invariant 3"));
    }

    #[test]
    fn invariant_2_detects_marked_to_unmarked() {
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        g.connect(v, c);
        g.mark_mut(v, Slot::R).color = dgr_graph::Color::Marked;
        let state = MarkState::new();
        let err = check_invariants(&g, Slot::R, &[], &state).unwrap_err();
        assert!(err.contains("invariant 2"));
    }

    #[test]
    fn exempt_edges_skip_invariants_1_and_2() {
        // A marked vertex pointing at an unmarked child is a violation —
        // unless the caller vouches for the arc (M_T snapshot semantics).
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        g.connect(v, c);
        g.mark_mut(v, Slot::R).color = dgr_graph::Color::Marked;
        let state = MarkState::new();
        assert!(check_invariants(&g, Slot::R, &[], &state).is_err());
        check_invariants_where(&g, Slot::R, &[], &state, |p, ch| p == v && ch == c).unwrap();
    }

    #[test]
    fn invariant_1_detects_missing_mark() {
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        g.connect(v, c);
        g.mark_mut(v, Slot::R).color = dgr_graph::Color::Transient;
        g.mark_mut(v, Slot::R).mt_par = Some(MarkParent::RootPar);
        // mt-cnt says one outstanding mark, but no pending message exists.
        g.mark_mut(v, Slot::R).mt_cnt = 1;
        let state = MarkState::new();
        let err = check_invariants(&g, Slot::R, &[], &state).unwrap_err();
        // Both invariant 1 and 3 are violated; either report is correct.
        assert!(err.contains("invariant"));
    }

    #[test]
    fn priority_closure_detects_stale_child() {
        let mut g = GraphStore::with_capacity(2);
        let v = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        g.connect(v, c);
        g.vertex_mut(v)
            .set_request_kind(0, Some(dgr_graph::RequestKind::Vital));
        g.mark_mut(v, Slot::R).color = dgr_graph::Color::Marked;
        g.mark_mut(v, Slot::R).prior = Priority::Vital;
        g.mark_mut(c, Slot::R).color = dgr_graph::Color::Marked;
        g.mark_mut(c, Slot::R).prior = Priority::Reserve;
        assert!(check_priority_closure(&g).is_err());
    }
}
