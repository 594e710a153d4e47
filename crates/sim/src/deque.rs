//! A bounded Chase–Lev work-stealing deque over `u64` entries.
//!
//! One owner pushes and pops at the *bottom* (LIFO — depth-first order
//! for the marking wave, which keeps a PE finishing the subtree it is
//! inside before touching a new one); any number of thieves steal from
//! the *top* (FIFO — the oldest, structurally shallowest task, i.e. the
//! largest remaining subtree, which is the critical-path-aware choice
//! for a thief that wants one steal to yield a long private runway).
//!
//! This is the Chase–Lev algorithm (*Dynamic Circular Work-Stealing
//! Deque*, SPAA 2005) specialized for the workspace's `unsafe_code =
//! "deny"` policy:
//!
//! * entries live in a fixed ring of atomic cells, so publication and
//!   theft need no raw-pointer buffer swaps — a cell read is always a
//!   defined value, and the index protocol alone decides validity;
//! * the ring does **not** grow: `push` fails when `bottom - top`
//!   reaches capacity and the caller keeps the task in a private
//!   (unshared, unstealable) spill — overflow costs stealability, never
//!   correctness;
//! * the owner's `pop`/thief `steal` race on the last element is
//!   resolved by the canonical CAS on `top`. The one genuinely
//!   sequentially-consistent edge is the owner's bottom-decrement vs the
//!   thief's bottom-read: each side must observe the other's SeqCst
//!   write or lose the race, which a store/load pair at SeqCst expresses
//!   directly.
//!
//! The deque is generic over the [`Atomics`] facade: production
//! monomorphizes to [`StdAtomics`] (i.e. literally `std::sync::atomic`,
//! see `zero_cost_facade.rs` in `dgr-check`), while the deterministic
//! model checker instantiates the same code with its weak-memory shims
//! and explores the orderings below exhaustively — including the seeded
//! mutations at [`Site::DequeBottomPublish`] and [`Site::DequeLastElem`],
//! which `dgr-check --atomics` must catch.
//!
//! Why single-entry steals are the only sound batch primitive here: a
//! thief that reads entries `t..t+k` *before* CASing `top` can double
//! execute work the owner popped meanwhile; one that CASes first can
//! read cells the owner has already rewritten after a wrap. Stealing
//! half therefore loops the one-entry protocol — each CAS transfers
//! exactly one validated entry — which costs k CASes but amortizes: the
//! thief's private runway after a half-steal is long.

use dgr_atomic::{AtomicU64Api, Atomics, CachePadded, Ordering, Site, StdAtomics};

/// A bounded work-stealing deque of `u64` tasks. See the module docs for
/// the protocol; capacity is rounded up to a power of two.
#[derive(Debug)]
pub struct StealDeque<A: Atomics = StdAtomics> {
    buf: Box<[A::U64]>,
    mask: u64,
    /// Next index a thief would steal (only ever incremented). On a line
    /// of its own: thieves CAS it while the owner stores `bottom` on every
    /// push and pop, and the runtime keeps one deque per PE side by side.
    top: CachePadded<A::U64>,
    /// Next index the owner would push (written only by the owner).
    bottom: CachePadded<A::U64>,
}

impl<A: Atomics> StealDeque<A> {
    /// Creates a deque holding at most `capacity` entries (rounded up to
    /// a power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        StealDeque {
            buf: (0..cap).map(|_| A::U64::new(0)).collect(),
            mask: (cap - 1) as u64,
            top: CachePadded(A::U64::new(0)),
            bottom: CachePadded(A::U64::new(0)),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Entries currently in the ring (approximate under concurrency;
    /// exact when only the owner is active). Relaxed is enough: the value
    /// is advisory by spec, and both indices are monotonic so a stale
    /// read only misjudges the window, never the protocol.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t) as usize
    }

    /// `true` when no entries are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-only: pushes a task at the bottom. Returns the task back
    /// when the ring is full (the caller spills it privately).
    pub fn push(&self, task: u64) -> Result<(), u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the thief's CAS on `top` — seeing
        // an advanced top here means that steal's cell read is done, so
        // overwriting the slot after the full-check is safe.
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buf.len() as u64 {
            return Err(task);
        }
        self.buf[(b & self.mask) as usize].store(task, Ordering::Relaxed);
        // ordering: Release publishes the cell write above to any thief
        // that observes the incremented bottom (the thief's bottom load
        // is its Acquire counterpart). Downgraded from SeqCst in the PR 7
        // audit: push participates in no store/load race, publication is
        // all it needs — `dgr-check --atomics` explores this clean and
        // catches the seeded Relaxed mutation at this site.
        self.bottom
            .store(b + 1, A::remap(Site::DequeBottomPublish, Ordering::Release));
        Ok(())
    }

    /// Owner-only: pops the most recently pushed task, racing thieves
    /// for the last entry.
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        if b == t {
            return None; // empty (top never exceeds bottom for the owner)
        }
        let b = b - 1;
        // ordering: SeqCst store/load pair — the heart of Chase–Lev.
        // Either a concurrent thief's SeqCst bottom-read sees this
        // decrement and backs off, or this owner's SeqCst top-read sees
        // the thief's advanced top and takes the CAS path; a weaker pair
        // lets both miss each other (the classic store-buffering shape)
        // and the last element execute twice. The seeded mutation at
        // `Site::DequeLastElem` relaxes exactly this store.
        self.bottom
            .store(b, A::remap(Site::DequeLastElem, Ordering::SeqCst));
        // ordering: SeqCst — the load half of the pair above.
        let t = self.top.load(Ordering::SeqCst);
        if t < b {
            // More than one entry left: the bottom one is ours alone.
            return Some(self.buf[(b & self.mask) as usize].load(Ordering::Relaxed));
        }
        let result = if t == b {
            // Exactly one entry: race any thief for it via `top`.
            // ordering: SeqCst success keeps the CAS in the single total
            // order the race argument needs; Relaxed failure is enough
            // because the loser uses nothing from the returned value.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Some(self.buf[(b & self.mask) as usize].load(Ordering::Relaxed))
            } else {
                None
            }
        } else {
            None
        };
        // Restore the pre-decrement bottom: on both race exits top has
        // reached `b + 1` (our CAS or the thief's), so this is the
        // canonical empty state bottom == top. Restoring `t + 1` here —
        // as this code did before the model checker existed — is a
        // phantom-element bug: in the lost-to-a-thief path `t` is already
        // `b + 1`, and `t + 1` leaves bottom one past top, so a later pop
        // "finds" a cell nobody pushed. `dgr-check -- atomics` flags that
        // variant in its smallest steal-vs-pop scenario.
        // ordering: SeqCst, totally ordered with the thieves' CASes so a
        // later steal cannot see bottom behind top.
        self.bottom.store(b + 1, Ordering::SeqCst);
        result
    }

    /// Thief: steals the oldest task, or reports why it could not.
    pub fn steal(&self) -> Steal {
        // ordering: Acquire is enough for the top read — a stale top only
        // makes the CAS below fail (downgraded from SeqCst in the PR 7
        // audit; the model checker explores the downgrade clean).
        let t = self.top.load(Ordering::Acquire);
        // ordering: SeqCst — the thief's half of the Chase–Lev pair: it
        // must see an owner's SeqCst bottom-decrement, or the owner will
        // see this thief's SeqCst CAS. `Site::DequeLastElem` names the
        // whole pair — the seeded mutation relaxes this load together
        // with pop's decrement store, and the checker answers with an
        // owner fast-path/stale-bottom double execution.
        let b = self
            .bottom
            .load(A::remap(Site::DequeLastElem, Ordering::SeqCst));
        if t >= b {
            return Steal::Empty;
        }
        // Read the cell before claiming it: if the CAS succeeds, no other
        // thief took index `t`, and the owner cannot have rewritten the
        // cell (a wrap needs `bottom - top` to reach capacity, which
        // `push` rejects while `top` is still `t`).
        let task = self.buf[(t & self.mask) as usize].load(Ordering::Relaxed);
        // ordering: SeqCst success joins the total order with the owner's
        // pop path; Relaxed failure — the loser retries from scratch.
        match self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        {
            Ok(_) => Steal::Success(task),
            Err(_) => Steal::Retry,
        }
    }

    /// Thief: steals up to half of the visible entries (at least one)
    /// into `out`, one validated entry per CAS. Returns how many were
    /// taken; stops at the first lost race so contended thieves spread
    /// to other victims instead of fighting.
    pub fn steal_half(&self, out: &mut Vec<u64>) -> usize {
        // Relaxed peek: `want` is only a batching heuristic — every
        // transfer below revalidates through the full steal protocol.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        if t >= b {
            return 0;
        }
        let want = (b - t).div_ceil(2);
        let mut got = 0;
        while got < want {
            match self.steal() {
                Steal::Success(task) => {
                    out.push(task);
                    got += 1;
                }
                _ => break,
            }
        }
        got as usize
    }
}

/// Outcome of a [`StealDeque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// A task was transferred to the thief.
    Success(u64),
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may succeed.
    Retry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let q: StealDeque = StealDeque::new(8);
        for v in 1..=3 {
            q.push(v).unwrap();
        }
        assert_eq!(q.steal(), Steal::Success(1), "thief takes the oldest");
        assert_eq!(q.pop(), Some(3), "owner takes the newest");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.steal(), Steal::Empty);
    }

    #[test]
    fn push_reports_full_and_resumes_after_drain() {
        let q: StealDeque = StealDeque::new(8);
        for v in 0..8 {
            q.push(v).unwrap();
        }
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.steal(), Steal::Success(0));
        q.push(99).unwrap();
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn steal_half_takes_about_half() {
        let q: StealDeque = StealDeque::new(32);
        for v in 0..10 {
            q.push(v).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.steal_half(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn indices_of_adjacent_deques_never_share_a_line() {
        let qs: Vec<StealDeque> = (0..3).map(|_| StealDeque::new(8)).collect();
        let addr = |x: &AtomicU64| std::ptr::from_ref(x) as usize;
        let mut at: Vec<usize> = qs
            .iter()
            .flat_map(|q| [addr(&q.top), addr(&q.bottom)])
            .collect();
        at.sort_unstable();
        assert!(at.windows(2).all(|w| w[1] - w[0] >= 128), "{at:?}");
    }

    /// One owner pushing + popping, three thieves stealing: every pushed
    /// value is consumed exactly once. This is the steal-vs-pop
    /// interleaving surface the nightly TSan job replays (and which
    /// `dgr-check --atomics` explores under the weak-memory shim).
    #[test]
    fn concurrent_steal_vs_pop_loses_and_duplicates_nothing() {
        const N: u64 = 20_000;
        let q: StealDeque = StealDeque::new(1024);
        let stop = AtomicBool::new(false);
        let seen: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut batch = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        batch.clear();
                        if q.steal_half(&mut batch) == 0 {
                            std::hint::spin_loop();
                        }
                        for &v in &batch {
                            seen[v as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
            // Owner: push everything (spilling on full), popping to make
            // room, interleaving pops with pushes to exercise the
            // last-element race.
            let mut next = 0u64;
            let mut spill: Vec<u64> = Vec::new();
            while next < N || !spill.is_empty() {
                if next < N {
                    match q.push(next) {
                        Ok(()) => {}
                        Err(v) => spill.push(v),
                    }
                    next += 1;
                } else if let Some(v) = spill.pop() {
                    if let Err(v) = q.push(v) {
                        spill.push(v);
                    }
                }
                if next.is_multiple_of(3) || (next >= N && !spill.is_empty()) {
                    if let Some(v) = q.pop() {
                        seen[v as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
            while let Some(v) = q.pop() {
                seen[v as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            // Thieves drain any leftovers they raced us for.
            loop {
                match q.steal() {
                    Steal::Success(v) => {
                        seen[v as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        for (v, c) in seen.iter().enumerate() {
            assert_eq!(
                c.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "value {v} consumed a wrong number of times"
            );
        }
    }
}
