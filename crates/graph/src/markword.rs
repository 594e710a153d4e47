//! Atomic mark words: the hot per-vertex marking state of one [`Slot`],
//! packed into one 16-byte record per vertex.
//!
//! A vertex struct is fat and mostly cold to the marking wave — label,
//! argument values, requesters — and a wave that kept its state there
//! would pull a whole-vertex cache line per color transition. A marking
//! task touches one vertex (Section 6), so all it needs of that vertex
//! sits in one record outside the vertex structs, four to a cache line:
//!
//! * **state word** — `epoch(32) | mt_cnt(30) | color(2)`. A word whose
//!   epoch half differs from the current cycle reads as freshly unmarked,
//!   so starting a cycle is a single counter bump and no sweep.
//! * **parent word** — `mt_par(32)`, stored by the claim winner. It needs
//!   no epoch half: only a drain of the count this epoch's claim installed
//!   and [`MarkWords::write_back`] of a current-epoch claim read it.
//! * **row start** — immutable: where the vertex's child row starts; it
//!   ends where the next record's starts (a sentinel ends the last). The
//!   spawner's [`MarkWords::settle_child`] probe of a child brings the
//!   child's row start into cache with its state word, so the spawner
//!   also sees at once whether the child is a leaf it may claim in place.
//!
//! Memory-ordering discipline (enforced by `dgr-check`'s mark-word lint):
//! every access to a record's `state_word` / `par_word` uses
//! Acquire/Release (or stronger) — the Release on a claim or completion is
//! what publishes the transition to workers that observe the color
//! lock-free, exactly like the `r_words` probe it generalizes.

use dgr_atomic::{AtomicU32Api, AtomicU64Api, Atomics, Ordering, Site, StdAtomics};

use crate::ids::VertexId;
use crate::vertex::{Color, MarkParent, MarkSlot, Vertex};
use crate::Slot;

/// Parent encoding: ordinary vertices use their raw id; the dummy roots
/// and "no parent" take the top ids (a store can therefore hold at most
/// `u32::MAX - 2` vertices, far beyond any other limit in the crate).
const PAR_ROOTPAR: u32 = u32::MAX;
const PAR_TASK_ROOTPAR: u32 = u32::MAX - 1;
const PAR_NONE: u32 = u32::MAX - 2;

/// Maximum encodable `mt_cnt` (30 bits).
const CNT_MAX: u64 = (1 << 30) - 1;

fn color_code(color: Color) -> u64 {
    match color {
        Color::Unmarked => 0,
        Color::Transient => 1,
        Color::Marked => 2,
    }
}

fn code_color(code: u64) -> Color {
    match code & 0b11 {
        0 => Color::Unmarked,
        1 => Color::Transient,
        _ => Color::Marked,
    }
}

fn encode_state(epoch: u32, cnt: u32, color: Color) -> u64 {
    debug_assert!(u64::from(cnt) <= CNT_MAX, "mt_cnt overflows the state word");
    (u64::from(epoch) << 32) | (u64::from(cnt) << 2) | color_code(color)
}

fn state_epoch(word: u64) -> u32 {
    (word >> 32) as u32
}

fn state_cnt(word: u64) -> u32 {
    ((word >> 2) & CNT_MAX) as u32
}

/// Encodes a [`MarkParent`] into a parent word.
pub fn encode_parent(par: Option<MarkParent>) -> u32 {
    match par {
        Some(MarkParent::Vertex(v)) => v.raw(),
        Some(MarkParent::RootPar) => PAR_ROOTPAR,
        Some(MarkParent::TaskRootPar) => PAR_TASK_ROOTPAR,
        None => PAR_NONE,
    }
}

/// Decodes a parent word back into a [`MarkParent`].
pub fn decode_parent(code: u32) -> Option<MarkParent> {
    match code {
        PAR_ROOTPAR => Some(MarkParent::RootPar),
        PAR_TASK_ROOTPAR => Some(MarkParent::TaskRootPar),
        PAR_NONE => None,
        v => Some(MarkParent::Vertex(VertexId::new(v))),
    }
}

/// Result of a [`MarkWords::try_claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// This caller performed the Unmarked transition; it now owns the
    /// expansion of the vertex (spawning marks on the children).
    Won(Color),
    /// Another worker already claimed the vertex this cycle.
    Lost,
}

/// Result of a [`MarkWords::settle_child`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// The child is not visited this cycle: its mark must be sent, or
    /// claimed in place if the child is a leaf.
    Spawn,
    /// The child was already visited: its duplicate mark does nothing
    /// but return, so the caller runs that return in place.
    Settled,
}

/// One vertex's record: see the module docs. Sixteen bytes under
/// [`StdAtomics`], so four share a cache line.
#[derive(Debug)]
#[repr(align(16))]
struct Record<A: Atomics> {
    /// `epoch | mt_cnt | color`.
    state_word: A::U64,
    /// `mt_par` as this epoch's claim winner stored it.
    par_word: A::U32,
    /// Row start, immutable.
    row: u32,
}

impl<A: Atomics> Record<A> {
    fn new(state: u64, par: u32, row: u32) -> Self {
        Record {
            state_word: A::U64::new(state),
            par_word: A::U32::new(par),
            row,
        }
    }
}

/// The marking state for one [`Slot`] of every vertex, one record per
/// vertex plus a sentinel.
///
/// # Example
///
/// ```
/// use dgr_graph::{Color, MarkParent, MarkWords};
/// use dgr_graph::markword::Claim;
///
/// let words: MarkWords = MarkWords::new(4);
/// let epoch = 1;
/// // First claim wins and owns the two-children expansion.
/// assert_eq!(
///     words.try_claim(0, epoch, 2, MarkParent::RootPar),
///     Claim::Won(Color::Transient)
/// );
/// assert_eq!(words.try_claim(0, epoch, 2, MarkParent::RootPar), Claim::Lost);
/// // Children completing drain the count; the last one yields the parent.
/// assert_eq!(words.complete_child(0, epoch), None);
/// assert_eq!(words.complete_child(0, epoch), Some(MarkParent::RootPar));
/// assert_eq!(words.probe(0, epoch), Some(Color::Marked));
/// ```
/// The struct is generic over the [`Atomics`] facade: production code
/// monomorphizes to [`StdAtomics`] (provably the raw `std::sync::atomic`
/// types — see `zero_cost_facade.rs` in `dgr-check`), while the model
/// checker instantiates it with its weak-memory shim and explores the
/// claim/complete protocol under seeded ordering mutations.
#[derive(Debug)]
pub struct MarkWords<A: Atomics = StdAtomics> {
    /// One record per vertex, then the sentinel that ends the last row.
    recs: Vec<Record<A>>,
}

impl<A: Atomics> MarkWords<A> {
    /// `capacity` never-written records (epoch half `0`, which is never a
    /// live epoch), every row empty.
    pub fn new(capacity: usize) -> Self {
        MarkWords {
            recs: (0..=capacity).map(|_| Record::new(0, 0, 0)).collect(),
        }
    }

    /// Builds the records from existing vertex slots (entering the shared
    /// form mid-computation must not lose marks a simulator pass wrote).
    /// `row_start` is called once per vertex, in order, and then once with
    /// `None` for the sentinel: it returns where that row starts.
    pub fn from_slots(
        verts: &[Vertex],
        slot: Slot,
        mut row_start: impl FnMut(Option<&Vertex>) -> u32,
    ) -> Self {
        let mut recs = Vec::with_capacity(verts.len() + 1);
        for v in verts {
            let s = v.slot(slot);
            recs.push(Record::new(
                encode_state(s.epoch, s.mt_cnt, s.color),
                encode_parent(s.mt_par),
                row_start(Some(v)),
            ));
        }
        recs.push(Record::new(0, 0, row_start(None)));
        MarkWords { recs }
    }

    /// Number of vertex slots covered.
    pub fn len(&self) -> usize {
        self.recs.len() - 1
    }

    /// `true` if the records cover no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertex `i`'s row: its start and the next record's, as `row_start`
    /// returned them to [`MarkWords::from_slots`].
    pub fn row(&self, i: usize) -> (u32, u32) {
        (self.recs[i].row, self.recs[i + 1].row)
    }

    /// Lock-free probe of vertex `i`'s color in cycle `epoch`, or `None`
    /// if nothing was written this cycle (reads as Unmarked, but claiming
    /// requires [`MarkWords::try_claim`]).
    ///
    /// Acquire pairs with the Release stores of claim/complete: a worker
    /// observing a non-Unmarked color happens-after everything the
    /// transitioning worker did first, so settling a duplicate visit on
    /// the probe alone is sound.
    pub fn probe(&self, i: usize, epoch: u32) -> Option<Color> {
        // ordering: Acquire pairs with the claim/complete Release stores
        // (see the method docs above).
        let w = self.recs[i].state_word.load(Ordering::Acquire);
        (state_epoch(w) == epoch).then(|| code_color(w))
    }

    /// Full current-cycle state of vertex `i`: `(color, mt_cnt)`.
    pub fn probe_state(&self, i: usize, epoch: u32) -> Option<(Color, u32)> {
        // ordering: Acquire — same pairing as `probe`.
        let w = self.recs[i].state_word.load(Ordering::Acquire);
        (state_epoch(w) == epoch).then(|| (code_color(w), state_cnt(w)))
    }

    /// Attempts the Unmarked → Transient/Marked transition of vertex `i`
    /// in cycle `epoch`: on success the vertex carries `n_children`
    /// outstanding child marks (zero children goes straight to Marked)
    /// and `parent` as its `mt_par`.
    ///
    /// Only the CAS **winner** writes the parent word, after its claim
    /// succeeds — a losing claimant must not touch it, or its parent
    /// would overwrite the winner's and the eventual drain would return
    /// to the wrong vertex (double-decrementing one parent and starving
    /// the real one, which deadlocks the wave). Readers still always see
    /// the winner's store: a `complete_child` on this vertex can only be
    /// reached through the returns of the child marks the winner spawned
    /// or ran in place *after* `try_claim` returned — each run where its
    /// mark ends, drained together by the winner, or climbing from a
    /// descendant's drain — and every task hand-off and count drain on
    /// the way is a release/acquire edge.
    ///
    /// [`Claim::Lost`] is read with Acquire too: a caller that loses the
    /// claim on a leaf it meant to mark in place settles it as a
    /// duplicate visit, after everything the rival winner did first.
    pub fn try_claim(&self, i: usize, epoch: u32, n_children: u32, parent: MarkParent) -> Claim {
        let par = encode_parent(Some(parent));
        // Seeded mutation `mw-parent-before-claim`: reintroduce the PR 6
        // parent-clobber bug by publishing the parent word *before* the
        // claim CAS decides a winner — a losing claimant then overwrites
        // the winner's parent and the drain returns to the wrong vertex.
        // Only the model checker's shim ever enables this branch;
        // `StdAtomics::mutated` is a constant `false` the optimizer drops.
        if A::mutated(Site::MwParentPublish) {
            // ordering: Release is irrelevant here — the bug this branch
            // seeds is the *placement* (before the CAS picks a winner),
            // not the strength.
            self.recs[i].par_word.store(par, Ordering::Release);
        }
        // ordering: Acquire pairs with a rival's Release-claim — losing
        // settles the duplicate visit on this load alone. The seeded
        // mutation `mw-claim-loss-relaxed` weakens it and the CAS failure
        // ordering below to Relaxed.
        let mut cur = self.recs[i]
            .state_word
            .load(A::remap(Site::MwClaimLoss, Ordering::Acquire));
        loop {
            if state_epoch(cur) == epoch && code_color(cur) != Color::Unmarked {
                return Claim::Lost;
            }
            let color = if n_children == 0 {
                Color::Marked
            } else {
                Color::Transient
            };
            let next = encode_state(epoch, n_children, color);
            // ordering: AcqRel on success — the Release half publishes the
            // new color to lock-free probes; the Acquire half orders the
            // winner's parent store after every prior transition it must
            // not clobber. The seeded mutation `mw-claim-cas-relaxed`
            // weakens the success ordering to Relaxed. The failure
            // ordering is Acquire for the same reason as the load above.
            match self.recs[i].state_word.compare_exchange_weak(
                cur,
                next,
                A::remap(Site::MwClaimCas, Ordering::AcqRel),
                A::remap(Site::MwClaimLoss, Ordering::Acquire),
            ) {
                Ok(_) => {
                    if !A::mutated(Site::MwParentPublish) {
                        // ordering: Release — the winner's parent word must
                        // be visible to the `complete_child` that drains the
                        // count (the hand-off chain is release/acquire all
                        // the way, see the method docs).
                        self.recs[i].par_word.store(par, Ordering::Release);
                    }
                    return Claim::Won(color);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records the return of one child mark of vertex `i`: decrements the
    /// outstanding count and, if this was the last one, completes the
    /// vertex (Transient → Marked) and returns its `mt_par` so the caller
    /// can propagate the return. [`MarkWords::complete_children`] with
    /// `k = 1`.
    ///
    /// The threaded runtime runs each return in place, where its mark
    /// ends, and walks on up `mt_par` while each call drains a count.
    pub fn complete_child(&self, i: usize, epoch: u32) -> Option<MarkParent> {
        self.complete_children(i, epoch, 1)
    }

    /// Records the returns of `k` child marks of vertex `i`: drains `k`
    /// from the outstanding count and, if that empties it, completes the
    /// vertex (Transient → Marked) and returns its `mt_par` so the caller
    /// can propagate the return.
    ///
    /// Must only be called for a `(i, epoch)` pair that was claimed this
    /// cycle with at least `k` children still owed — which the marking
    /// protocol guarantees, since a return is only ever owed by a child
    /// mark that the claim winner itself sent or ran in place. The
    /// threaded runtime's claim winner returns every child it marked in
    /// place with one call.
    pub fn complete_children(&self, i: usize, epoch: u32, k: u32) -> Option<MarkParent> {
        let r = &self.recs[i];
        // `k` children's worth in the count field (the color bits are
        // below).
        // ordering: AcqRel — Release orders these children's subtree
        // effects before the decrement; Acquire makes the siblings'
        // subtrees visible to whichever caller drains the count. The
        // seeded mutation `mw-complete-drain-no-acquire` keeps only
        // Release.
        let prev = r.state_word.fetch_sub(
            u64::from(k) << 2,
            A::remap(Site::MwCompleteDrain, Ordering::AcqRel),
        );
        debug_assert_eq!(state_epoch(prev), epoch, "return for a stale cycle");
        debug_assert!(state_cnt(prev) >= k, "mt_cnt underflow");
        debug_assert_eq!(code_color(prev), Color::Transient);
        if state_cnt(prev) != k {
            return None;
        }
        // Count drained: this caller owns the Transient → Marked step.
        // ordering: Release publishes Marked (and the whole subtree's
        // effects) to lock-free probes.
        r.state_word
            .store(encode_state(epoch, 0, Color::Marked), Ordering::Release);
        // ordering: Acquire pairs with the winner's Release parent store.
        decode_parent(r.par_word.load(Ordering::Acquire))
    }

    /// Probes, for the claim winner of some vertex, whether the mark it
    /// owes its child `child` would do anything: [`Settle::Settled`] if
    /// the child is already visited this cycle, [`Settle::Spawn`] if not.
    ///
    /// A mark sent to a visited vertex does nothing but return, so the
    /// claim winner may settle it where it stands: the same Acquire probe
    /// a duplicate mark task makes, with its return left to the caller,
    /// which drains every child it ran in place with one
    /// [`MarkWords::complete_children`]. An unvisited child, a freed vertex
    /// behind a dangling arc included, reads [`Settle::Spawn`]: this
    /// never claims the child and never reads its children.
    pub fn settle_child(&self, child: usize, epoch: u32) -> Settle {
        // ordering: Acquire pairs with the child claimer's Release CAS, as
        // in `probe`: settling happens-after everything the claimer did
        // first. The seeded mutation `mw-settle-probe-relaxed` weakens it.
        let w = self.recs[child]
            .state_word
            .load(A::remap(Site::MwSettleProbe, Ordering::Acquire));
        if state_epoch(w) != epoch || code_color(w) == Color::Unmarked {
            Settle::Spawn
        } else {
            Settle::Settled
        }
    }

    /// Writes the records' state back into the vertices' slots (leaving
    /// the shared form). A never-written word leaves the slot alone; a
    /// word from the same epoch the slot already carries only refreshes
    /// the fields the marking wave owns (color, count, parent), so
    /// simulator-written extras like the priority survive a round-trip.
    /// Only a word claimed in the current cycle `epoch` restores `mt_par`.
    pub fn write_back(&self, verts: &mut [Vertex], slot: Slot, epoch: u32) {
        for (v, r) in verts.iter_mut().zip(&self.recs) {
            // ordering: Acquire — write-back happens-after every worker's
            // published transitions (same pairing as `probe`).
            let w = r.state_word.load(Ordering::Acquire);
            let word_epoch = state_epoch(w);
            if word_epoch == 0 {
                continue;
            }
            let s = v.slot_mut(slot);
            if s.epoch != word_epoch {
                *s = MarkSlot::fresh(word_epoch);
            }
            s.color = code_color(w);
            s.mt_cnt = state_cnt(w);
            if word_epoch == epoch && s.color != Color::Unmarked {
                // ordering: Acquire pairs with the winner's parent Release.
                s.mt_par = decode_parent(r.par_word.load(Ordering::Acquire));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeLabel;

    #[test]
    fn parent_encoding_roundtrips() {
        for par in [
            None,
            Some(MarkParent::RootPar),
            Some(MarkParent::TaskRootPar),
            Some(MarkParent::Vertex(VertexId::new(0))),
            Some(MarkParent::Vertex(VertexId::new(123_456))),
        ] {
            assert_eq!(decode_parent(encode_parent(par)), par);
        }
    }

    #[test]
    fn claim_complete_lifecycle() {
        let words: MarkWords = MarkWords::new(2);
        assert_eq!(words.probe(0, 1), None, "never written");
        assert_eq!(
            words.try_claim(0, 1, 0, MarkParent::RootPar),
            Claim::Won(Color::Marked),
            "leaf claim goes straight to Marked"
        );
        assert_eq!(
            words.try_claim(1, 1, 3, MarkParent::Vertex(VertexId::new(0))),
            Claim::Won(Color::Transient)
        );
        assert_eq!(words.probe_state(1, 1), Some((Color::Transient, 3)));
        assert_eq!(words.complete_child(1, 1), None);
        assert_eq!(words.complete_child(1, 1), None);
        assert_eq!(
            words.complete_child(1, 1),
            Some(MarkParent::Vertex(VertexId::new(0)))
        );
        assert_eq!(words.probe_state(1, 1), Some((Color::Marked, 0)));
    }

    #[test]
    fn settle_child_settles_only_visited_children() {
        let words: MarkWords = MarkWords::new(4);
        let root = MarkParent::RootPar;
        assert!(matches!(words.try_claim(0, 1, 3, root), Claim::Won(_)));
        assert_eq!(words.settle_child(1, 1), Settle::Spawn, "never written");
        assert_eq!(words.probe(1, 1), None, "a spawn verdict claims nothing");
        assert!(matches!(
            words.try_claim(2, 1, 0, MarkParent::Vertex(VertexId::new(3))),
            Claim::Won(_)
        ));
        assert_eq!(words.settle_child(2, 1), Settle::Settled);
        assert_eq!(
            words.probe_state(0, 1),
            Some((Color::Transient, 3)),
            "a verdict drains nothing"
        );
        assert_eq!(words.settle_child(2, 2), Settle::Spawn, "stale epoch");
        // A self-loop: the claimed parent is its own visited child.
        assert_eq!(words.settle_child(0, 1), Settle::Settled);
    }

    #[test]
    fn settling_the_last_owed_child_completes_the_parent() {
        let words: MarkWords = MarkWords::new(2);
        let par = MarkParent::Vertex(VertexId::new(7));
        assert!(matches!(words.try_claim(0, 1, 2, par), Claim::Won(_)));
        assert_eq!(words.settle_child(0, 1), Settle::Settled, "self-loop");
        assert!(matches!(
            words.try_claim(1, 1, 1, MarkParent::Vertex(VertexId::new(0))),
            Claim::Won(Color::Transient)
        ));
        assert_eq!(words.settle_child(1, 1), Settle::Settled);
        // The caller returns both settled children with one drain.
        assert_eq!(words.complete_children(0, 1, 2), Some(par));
        assert_eq!(words.probe(0, 1), Some(Color::Marked));
        assert_eq!(
            words.probe_state(1, 1),
            Some((Color::Transient, 1)),
            "the settled child is untouched"
        );
    }

    #[test]
    fn one_drain_returns_every_child_run_in_place() {
        let words: MarkWords = MarkWords::new(3);
        let par = MarkParent::Vertex(VertexId::new(7));
        assert!(matches!(words.try_claim(0, 1, 3, par), Claim::Won(_)));
        // A self-loop settles; a leaf child is claimed in place.
        assert_eq!(words.settle_child(0, 1), Settle::Settled, "self-loop");
        assert_eq!(words.settle_child(1, 1), Settle::Spawn);
        assert_eq!(
            words.try_claim(1, 1, 0, MarkParent::Vertex(VertexId::new(0))),
            Claim::Won(Color::Marked)
        );
        assert_eq!(
            words.complete_children(0, 1, 2),
            None,
            "one child still owed"
        );
        assert_eq!(words.probe_state(0, 1), Some((Color::Transient, 1)));
        assert_eq!(words.complete_child(0, 1), Some(par));
        assert_eq!(words.probe_state(0, 1), Some((Color::Marked, 0)));
    }

    #[test]
    fn complete_children_drains_by_k_and_completes_only_at_zero() {
        let words: MarkWords = MarkWords::new(1);
        let par = MarkParent::Vertex(VertexId::new(4));
        assert!(matches!(words.try_claim(0, 3, 6, par), Claim::Won(_)));
        assert_eq!(words.complete_children(0, 3, 2), None);
        assert_eq!(words.probe_state(0, 3), Some((Color::Transient, 4)));
        assert_eq!(words.complete_children(0, 3, 3), None);
        assert_eq!(words.probe_state(0, 3), Some((Color::Transient, 1)));
        assert_eq!(words.complete_child(0, 3), Some(par));
        assert_eq!(words.probe_state(0, 3), Some((Color::Marked, 0)));
        // A drain of the whole count at once completes in one call.
        assert!(matches!(words.try_claim(0, 4, 5, par), Claim::Won(_)));
        assert_eq!(words.complete_children(0, 4, 5), Some(par));
        assert_eq!(words.probe_state(0, 4), Some((Color::Marked, 0)));
    }

    #[test]
    fn epoch_bump_resets_without_a_sweep() {
        let words: MarkWords = MarkWords::new(1);
        assert_eq!(
            words.try_claim(0, 1, 0, MarkParent::RootPar),
            Claim::Won(Color::Marked)
        );
        assert_eq!(words.probe(0, 2), None, "next cycle reads fresh");
        assert_eq!(
            words.try_claim(0, 2, 1, MarkParent::RootPar),
            Claim::Won(Color::Transient),
            "stale word is claimable"
        );
    }

    #[test]
    fn slots_roundtrip_through_the_array() {
        let mut verts = vec![Vertex::new(NodeLabel::Hole), Vertex::new(NodeLabel::Hole)];
        {
            let s = verts[1].mark_at_mut(Slot::R, 7);
            s.color = Color::Transient;
            s.mt_cnt = 2;
            s.mt_par = Some(MarkParent::Vertex(VertexId::new(0)));
        }
        let words: MarkWords = MarkWords::from_slots(&verts, Slot::R, |_| 0);
        assert_eq!(words.probe_state(1, 7), Some((Color::Transient, 2)));
        assert_eq!(
            words.complete_child(1, 7),
            None,
            "one of two children returned"
        );
        let mut back = verts.clone();
        words.write_back(&mut back, Slot::R, 7);
        let s = back[1].mark_at(Slot::R, 7);
        assert!(s.is_transient());
        assert_eq!(s.mt_cnt, 1);
        assert_eq!(s.mt_par, Some(MarkParent::Vertex(VertexId::new(0))));
        assert!(back[0].mark_at(Slot::R, 7).is_unmarked(), "untouched");
    }

    #[test]
    fn a_record_is_one_aligned_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Record<StdAtomics>>(), 16);
        assert_eq!(std::mem::align_of::<Record<StdAtomics>>(), 16);
    }

    #[test]
    fn rows_end_where_the_next_record_starts() {
        let verts = vec![Vertex::new(NodeLabel::Hole); 3];
        let mut next = 0;
        let words: MarkWords = MarkWords::from_slots(&verts, Slot::R, |v| {
            next += 2 * u32::from(v.is_some());
            next
        });
        assert_eq!(words.len(), 3);
        assert_eq!(words.row(0), (2, 4));
        assert_eq!(words.row(2), (6, 6), "the sentinel ends the last row");
    }

    #[test]
    fn a_drain_reads_this_epochs_parent_after_a_bump() {
        let words: MarkWords = MarkWords::new(1);
        let (a, b) = (
            MarkParent::Vertex(VertexId::new(3)),
            MarkParent::Vertex(VertexId::new(4)),
        );
        assert_eq!(words.try_claim(0, 1, 1, a), Claim::Won(Color::Transient));
        assert_eq!(words.try_claim(0, 2, 1, b), Claim::Won(Color::Transient));
        assert_eq!(words.complete_child(0, 2), Some(b));
    }

    #[test]
    fn write_back_restores_the_parent_only_of_a_current_claim() {
        let par = |v| Some(MarkParent::Vertex(VertexId::new(v)));
        let mut verts = vec![Vertex::new(NodeLabel::Hole); 3];
        // Vertex 1: Unmarked in the current cycle 5, with a parent
        // recorded; vertex 2: claimed in the stale cycle 4.
        verts[1].mark_at_mut(Slot::R, 5).mt_par = par(9);
        {
            let s = verts[2].mark_at_mut(Slot::R, 4);
            s.color = Color::Marked;
            s.mt_par = par(8);
        }
        let words: MarkWords = MarkWords::from_slots(&verts, Slot::R, |_| 0);
        assert!(matches!(
            words.try_claim(0, 5, 0, par(7).unwrap()),
            Claim::Won(_)
        ));
        let mut back = verts.clone();
        for v in &mut back[1..] {
            v.slot_mut(Slot::R).mt_par = None;
        }
        words.write_back(&mut back, Slot::R, 5);
        assert_eq!(back[0].mark_at(Slot::R, 5).mt_par, par(7), "claimed");
        assert_eq!(back[0].mark_at(Slot::R, 5).color, Color::Marked);
        assert_eq!(back[1].mark_at(Slot::R, 5).mt_par, None, "unmarked");
        assert_eq!(back[2].mark_at(Slot::R, 4).mt_par, None, "stale");
        assert_eq!(back[2].mark_at(Slot::R, 4).color, Color::Marked);
    }

    #[test]
    fn concurrent_claims_have_exactly_one_winner() {
        use std::sync::atomic::{AtomicU32, Ordering as O};
        let words: std::sync::Arc<MarkWords> = std::sync::Arc::new(MarkWords::new(64));
        let wins = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let words = std::sync::Arc::clone(&words);
                let wins = &wins;
                scope.spawn(move || {
                    for i in 0..64 {
                        if let Claim::Won(_) = words.try_claim(i, 1, 1, MarkParent::RootPar) {
                            wins.fetch_add(1, O::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(O::SeqCst), 64);
    }

    #[test]
    fn losing_claim_never_clobbers_the_winning_parent() {
        // Each thread claims with a distinct parent id; the drain must
        // return exactly the parent the *winner* supplied. (A loser that
        // writes the parent word on its way to `Claim::Lost` corrupts the
        // return routing — the original multi-parent race.)
        use std::sync::atomic::{AtomicU32, Ordering as O};
        const SLOTS: usize = 256;
        let words: std::sync::Arc<MarkWords> = std::sync::Arc::new(MarkWords::new(SLOTS));
        let winners: Vec<AtomicU32> = (0..SLOTS).map(|_| AtomicU32::new(u32::MAX)).collect();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let words = std::sync::Arc::clone(&words);
                let winners = &winners;
                scope.spawn(move || {
                    for (i, w) in winners.iter().enumerate() {
                        let parent = MarkParent::Vertex(VertexId::new(1000 + t));
                        if let Claim::Won(_) = words.try_claim(i, 1, 1, parent) {
                            w.store(t, O::SeqCst);
                        }
                    }
                });
            }
        });
        for (i, w) in winners.iter().enumerate() {
            let t = w.load(O::SeqCst);
            assert_ne!(t, u32::MAX, "every slot has a winner");
            assert_eq!(
                words.complete_child(i, 1),
                Some(MarkParent::Vertex(VertexId::new(1000 + t))),
                "slot {i}: drained parent is the winner's"
            );
        }
    }
}
