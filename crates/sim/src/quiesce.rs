//! The quiescence core of the work-stealing runtime: a global in-flight
//! counter plus a terminal `done` flag, extracted from `steal.rs` so the
//! deterministic model checker can explore its memory orderings under the
//! weak-memory shim.
//!
//! The protocol (see [`StealRuntime`](crate::StealRuntime) for the full
//! termination argument): every task *visible* to other workers (deque or
//! mailbox) is registered before it is published; a worker defers the
//! release of every registered task it consumed until its local backlog
//! is empty. The count reaching zero therefore proves no task exists or
//! can appear anywhere — and, crucially, the release/acquire chain
//! through the counter makes every worker's task effects visible to
//! whoever observes the zero. The seeded mutation at
//! [`Site::QuiesceRelease`] breaks exactly that chain: a premature
//! (Relaxed) decrement whose effects quiescence no longer covers.
//!
//! Registering is a contended RMW, so a worker pays it per block:
//! [`QuiesceState::publish_covered`] registers *credit* ahead, which
//! counts as in flight until its holder returns it on an idle beat. The
//! seeded mutation at [`Site::QuiesceCreditTopUp`] publishes first.

use dgr_atomic::{AtomicBoolApi, AtomicUsizeApi, Atomics, Ordering, Site, StdAtomics};

/// Units a worker registers at once when its credit runs short: the
/// shared counter then sees one RMW per few hundred publishes.
const CREDIT_BLOCK: usize = 256;

/// In-flight registered-task counter + terminal flag. Generic over the
/// [`Atomics`] facade; production monomorphizes to [`StdAtomics`].
#[derive(Debug)]
pub struct QuiesceState<A: Atomics = StdAtomics> {
    /// Registered tasks currently in flight (seeds + published spawns).
    pending: A::Usize,
    /// Latched once `pending` reaches zero; never cleared.
    done: A::Bool,
}

impl<A: Atomics> QuiesceState<A> {
    /// Starts the protocol with `initial` registered seed tasks.
    pub fn new(initial: usize) -> Self {
        QuiesceState {
            pending: A::Usize::new(initial),
            done: A::Bool::new(false),
        }
    }

    /// Registers `n` tasks about to be published. Must happen *before*
    /// the publish, so the count never falsely dips to zero.
    pub fn register(&self, n: usize) {
        // Relaxed is sound here: the add is ordered before this worker's
        // eventual release in the counter's modification order, and the
        // task payloads synchronize through the deque/ring Release
        // stores, not through the counter.
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    /// Runs `publish`, which makes `n` tasks visible to other workers,
    /// against the caller's private `credit`: if fewer than `n` units are
    /// left, a block is registered first — *before* the publish, the one
    /// rule [`QuiesceState::register`] has. The caller releases what is
    /// left of `credit` together with its consumed units when it idles.
    pub fn publish_covered(&self, credit: &mut usize, n: usize, publish: impl FnOnce()) {
        let top_up = if *credit < n { n.max(CREDIT_BLOCK) } else { 0 };
        // Seeded mutation `quiesce-publish-before-credit`; a constant
        // `false` under `StdAtomics`.
        let late = A::mutated(Site::QuiesceCreditTopUp);
        if top_up > 0 && !late {
            self.register(top_up);
        }
        publish();
        if late {
            self.register(top_up);
        }
        *credit = *credit + top_up - n;
    }

    /// Releases `n` consumed registered tasks; returns `true` if this
    /// release drove the count to zero (the caller then owns waking the
    /// other workers).
    pub fn release(&self, n: usize) -> bool {
        // ordering: AcqRel — the Release half orders this worker's task
        // effects before the decrement; the Acquire half makes every
        // earlier worker's effects visible to the one that reaches zero,
        // so the `done` publication below covers all of them. The seeded
        // mutation at `Site::QuiesceRelease` relaxes this RMW, and
        // `dgr-check --atomics` catches the effect leak.
        if self
            .pending
            .fetch_sub(n, A::remap(Site::QuiesceRelease, Ordering::AcqRel))
            == n
        {
            // ordering: Release republishes the accumulated effects to
            // every worker that exits on the Acquire load in `is_done`.
            self.done.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// `true` once the system is globally quiescent.
    pub fn is_done(&self) -> bool {
        // ordering: Acquire pairs with the Release in `release` — a
        // worker exiting its loop has seen every task effect.
        self.done.load(Ordering::Acquire)
    }

    /// Current registered in-flight count (debug assertions only).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_to_zero_exactly_once() {
        let q: QuiesceState = QuiesceState::new(2);
        q.register(1);
        assert!(!q.release(1));
        assert!(!q.is_done());
        assert!(!q.release(1));
        assert!(q.release(1), "last unit flips done");
        assert!(q.is_done());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn credit_is_registered_in_blocks_and_returned() {
        let q: QuiesceState = QuiesceState::new(1);
        let (mut credit, mut published) = (0, 0);
        for _ in 0..CREDIT_BLOCK + 1 {
            q.publish_covered(&mut credit, 1, || published += 1);
        }
        assert_eq!(published, CREDIT_BLOCK + 1);
        assert_eq!(q.pending(), 1 + 2 * CREDIT_BLOCK, "two top-ups");
        assert_eq!(credit, CREDIT_BLOCK - 1);
        // A publish larger than a block registers exactly what it needs.
        q.publish_covered(&mut credit, 3 * CREDIT_BLOCK, || ());
        assert_eq!(credit, CREDIT_BLOCK - 1);
        // Consumers release the published units, the holder its credit
        // and the seed: only then does the count reach zero.
        assert!(!q.release(4 * CREDIT_BLOCK + 1));
        assert!(q.release(credit + 1));
    }

    #[test]
    fn batched_release_covers_multiple_units() {
        let q: QuiesceState = QuiesceState::new(3);
        assert!(q.release(3));
        assert!(q.is_done());
    }
}
