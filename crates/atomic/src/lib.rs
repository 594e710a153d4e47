//! The atomics facade the lock-free substrate is generic over.
//!
//! `crates/sim`'s deque/mailbox/quiescence modules and `crates/graph`'s
//! mark-word array are written against the traits here instead of
//! `std::sync::atomic` directly. Production code monomorphizes to
//! [`StdAtomics`], whose associated types *are* the `std` atomic types —
//! the facade compiles away completely (pinned by the zero-cost proof in
//! `crates/check/tests/zero_cost_facade.rs`, TypeId-level, in the style of
//! `telemetry_off.rs`). The deterministic weak-memory model checker in
//! `dgr-check` instantiates the same code with its `ShimAtomics`, whose
//! operations go through a per-location store-buffer model and a
//! controlled scheduler, so orderings weaker than what the host CPU
//! exhibits are actually explored.
//!
//! Two extra hooks exist purely for the checker's mutation harness:
//!
//! * [`Atomics::remap`] lets a shim weaken the memory ordering at one
//!   named [`Site`] (e.g. turn the mark-word claim CAS Relaxed) — the
//!   production implementation returns the default unchanged, which
//!   const-folds to the literal;
//! * [`Atomics::mutated`] guards seeded *code-motion* bugs (e.g.
//!   publishing the parent word before the claim CAS) — the production
//!   implementation is a constant `false`, so the buggy branch is dead
//!   code outside the checker.
//!
//! The facade deliberately re-exports [`Ordering`] so shimmed modules
//! never need to name `std::sync::atomic` at all; `dgr-check`'s lint pass
//! flags any raw use inside them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;

pub use std::sync::atomic::Ordering;

/// Aligns and pads `T` to 128 bytes, so two values that different
/// threads write never share a cache line — nor the adjacent line the
/// hardware prefetcher pulls with it on x86. The substrate wraps every
/// index or flag one worker writes while another polls it (deque
/// `top`/`bottom`, ring `head`/`tail`, park flags); layout tests beside
/// each of them pin the distances.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A named atomic-operation site the mutation harness can weaken.
///
/// Each variant corresponds to one seeded ordering bug in
/// `dgr-check --atomics`; the production [`StdAtomics`] ignores them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `MarkWords::try_claim`'s claim CAS success ordering (AcqRel — the
    /// Release half is what publishes the claimer's prior writes to
    /// workers that settle duplicate visits on a lock-free probe).
    MwClaimCas,
    /// `MarkWords::try_claim`'s parent-word publish. The seeded mutation
    /// moves it *before* the claim CAS, re-pinning PR 6's parent-clobber
    /// race (a losing claimant overwrites the winner's parent).
    MwParentPublish,
    /// `MarkWords::try_claim`'s pre-CAS load and CAS failure ordering
    /// (Acquire — pairs with a rival's claim CAS, so a caller that loses
    /// the claim on a leaf and settles it as a duplicate visit
    /// happens-after everything the winner did first). The seeded
    /// mutation weakens both to Relaxed.
    MwClaimLoss,
    /// `MarkWords::settle_child`'s probe of the child's state word
    /// (Acquire — pairs with a rival's claim CAS, so a parent that settles
    /// an already-visited child at the spawn site happens-after everything
    /// the child's claimer did first, exactly as a duplicate mark task
    /// would).
    MwSettleProbe,
    /// `MarkWords::complete_children`'s count drain (AcqRel — the Acquire
    /// half makes the siblings' subtrees visible to whichever caller
    /// drains the count, and so to the return it walks on up `mt_par`).
    /// The seeded mutation keeps only the Release half.
    MwCompleteDrain,
    /// `StealDeque::push`'s bottom publish (Release — pairs with the
    /// thief's bottom load so the cell write is visible before the index).
    DequeBottomPublish,
    /// `StealDeque::pop`'s bottom decrement (SeqCst — one half of the
    /// Chase–Lev store/load pair that decides the last-element race).
    DequeLastElem,
    /// The SPSC mailbox ring's tail publish (Release — without it the
    /// consumer can observe a fresh tail while the head-of-ring cell it
    /// guards is still stale).
    MailboxTailPublish,
    /// The quiescence counter's release decrement (AcqRel — the chain
    /// that makes every worker's effects visible to whoever observes
    /// zero). The seeded mutation relaxes it: a premature decrement whose
    /// effects quiescence no longer covers.
    QuiesceRelease,
    /// `QuiesceState::publish_covered`'s credit top-up. The seeded
    /// mutation moves it *after* the publish: a task is briefly visible
    /// that the counter does not know about, so a fast consumer's
    /// release can latch `done` while its publisher is still working.
    QuiesceCreditTopUp,
}

impl Site {
    /// Short stable name for reports and schedules.
    pub fn name(self) -> &'static str {
        match self {
            Site::MwClaimCas => "mw-claim-cas-relaxed",
            Site::MwParentPublish => "mw-parent-before-claim",
            Site::MwClaimLoss => "mw-claim-loss-relaxed",
            Site::MwSettleProbe => "mw-settle-probe-relaxed",
            Site::MwCompleteDrain => "mw-complete-drain-no-acquire",
            Site::DequeBottomPublish => "deque-bottom-no-release",
            Site::DequeLastElem => "deque-last-elem-no-seqcst",
            Site::MailboxTailPublish => "mailbox-stale-head",
            Site::QuiesceRelease => "quiesce-premature-release",
            Site::QuiesceCreditTopUp => "quiesce-publish-before-credit",
        }
    }
}

/// API surface of an atomic `u64` the substrate uses.
pub trait AtomicU64Api: Debug + Default + Send + Sync {
    /// Creates the atomic holding `v`.
    fn new(v: u64) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, v: u64, ord: Ordering);
    /// Strong compare-exchange.
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
    /// Weak compare-exchange (may fail spuriously).
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
    /// Atomic add, returning the previous value.
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64;
    /// Atomic subtract, returning the previous value.
    fn fetch_sub(&self, v: u64, ord: Ordering) -> u64;
}

/// API surface of an atomic `u32` the substrate uses.
pub trait AtomicU32Api: Debug + Default + Send + Sync {
    /// Creates the atomic holding `v`.
    fn new(v: u32) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> u32;
    /// Atomic store.
    fn store(&self, v: u32, ord: Ordering);
}

/// API surface of an atomic `usize` the substrate uses.
pub trait AtomicUsizeApi: Debug + Default + Send + Sync {
    /// Creates the atomic holding `v`.
    fn new(v: usize) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> usize;
    /// Atomic store.
    fn store(&self, v: usize, ord: Ordering);
    /// Atomic add, returning the previous value.
    fn fetch_add(&self, v: usize, ord: Ordering) -> usize;
    /// Atomic subtract, returning the previous value.
    fn fetch_sub(&self, v: usize, ord: Ordering) -> usize;
}

/// API surface of an atomic `bool` the substrate uses.
pub trait AtomicBoolApi: Debug + Default + Send + Sync {
    /// Creates the atomic holding `v`.
    fn new(v: bool) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> bool;
    /// Atomic store.
    fn store(&self, v: bool, ord: Ordering);
}

/// The atomics family a lock-free module is generic over.
pub trait Atomics: 'static {
    /// The `u64` atomic (`std::sync::atomic::AtomicU64` in production).
    type U64: AtomicU64Api;
    /// The `u32` atomic.
    type U32: AtomicU32Api;
    /// The `usize` atomic.
    type Usize: AtomicUsizeApi;
    /// The `bool` atomic.
    type Bool: AtomicBoolApi;

    /// Mutation hook: the ordering actually used at `site`. Production
    /// returns `default` unchanged (const-foldable); the checker's shim
    /// weakens the site named by the active mutation plan.
    #[inline(always)]
    fn remap(site: Site, default: Ordering) -> Ordering {
        let _ = site;
        default
    }

    /// Mutation hook: whether the seeded code-motion bug at `site` is
    /// active. Production is a constant `false` — the guarded branch is
    /// dead code outside the checker.
    #[inline(always)]
    fn mutated(site: Site) -> bool {
        let _ = site;
        false
    }

    /// Memory fence.
    fn fence(ord: Ordering);

    /// Scheduler visibility point for spin/yield loops. A no-op in
    /// production; under the shim it is a schedule point, which is what
    /// lets the checker drive wait loops fairly.
    fn yield_now();
}

/// The production family: the associated types *are* `std`'s atomics, so
/// a `StealDeque<StdAtomics>` is bit- and code-identical to one written
/// against `std::sync::atomic` directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdAtomics;

impl Atomics for StdAtomics {
    type U64 = std::sync::atomic::AtomicU64;
    type U32 = std::sync::atomic::AtomicU32;
    type Usize = std::sync::atomic::AtomicUsize;
    type Bool = std::sync::atomic::AtomicBool;

    #[inline(always)]
    fn fence(ord: Ordering) {
        std::sync::atomic::fence(ord);
    }

    #[inline(always)]
    fn yield_now() {}
}

impl AtomicU64Api for std::sync::atomic::AtomicU64 {
    #[inline(always)]
    fn new(v: u64) -> Self {
        std::sync::atomic::AtomicU64::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> u64 {
        self.load(ord)
    }
    #[inline(always)]
    fn store(&self, v: u64, ord: Ordering) {
        self.store(v, ord);
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.compare_exchange(current, new, success, failure)
    }
    #[inline(always)]
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.compare_exchange_weak(current, new, success, failure)
    }
    #[inline(always)]
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        self.fetch_add(v, ord)
    }
    #[inline(always)]
    fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        self.fetch_sub(v, ord)
    }
}

impl AtomicU32Api for std::sync::atomic::AtomicU32 {
    #[inline(always)]
    fn new(v: u32) -> Self {
        std::sync::atomic::AtomicU32::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> u32 {
        self.load(ord)
    }
    #[inline(always)]
    fn store(&self, v: u32, ord: Ordering) {
        self.store(v, ord);
    }
}

impl AtomicUsizeApi for std::sync::atomic::AtomicUsize {
    #[inline(always)]
    fn new(v: usize) -> Self {
        std::sync::atomic::AtomicUsize::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> usize {
        self.load(ord)
    }
    #[inline(always)]
    fn store(&self, v: usize, ord: Ordering) {
        self.store(v, ord);
    }
    #[inline(always)]
    fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        self.fetch_add(v, ord)
    }
    #[inline(always)]
    fn fetch_sub(&self, v: usize, ord: Ordering) -> usize {
        self.fetch_sub(v, ord)
    }
}

impl AtomicBoolApi for std::sync::atomic::AtomicBool {
    #[inline(always)]
    fn new(v: bool) -> Self {
        std::sync::atomic::AtomicBool::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> bool {
        self.load(ord)
    }
    #[inline(always)]
    fn store(&self, v: bool, ord: Ordering) {
        self.store(v, ord);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_family_is_stds_types() {
        use std::any::TypeId;
        assert_eq!(
            TypeId::of::<<StdAtomics as Atomics>::U64>(),
            TypeId::of::<std::sync::atomic::AtomicU64>()
        );
        assert_eq!(
            TypeId::of::<<StdAtomics as Atomics>::Bool>(),
            TypeId::of::<std::sync::atomic::AtomicBool>()
        );
        assert_eq!(std::mem::size_of::<StdAtomics>(), 0);
    }

    #[test]
    fn production_hooks_are_inert() {
        for site in [
            Site::MwClaimCas,
            Site::MwParentPublish,
            Site::MwSettleProbe,
            Site::MwCompleteDrain,
            Site::DequeBottomPublish,
            Site::DequeLastElem,
            Site::MailboxTailPublish,
            Site::QuiesceRelease,
            Site::QuiesceCreditTopUp,
            Site::MwClaimLoss,
        ] {
            assert!(!StdAtomics::mutated(site));
            for ord in [Ordering::Relaxed, Ordering::SeqCst, Ordering::AcqRel] {
                assert_eq!(StdAtomics::remap(site, ord), ord);
            }
        }
    }

    #[test]
    fn trait_ops_roundtrip() {
        let a = <StdAtomics as Atomics>::U64::new(5);
        assert_eq!(AtomicU64Api::load(&a, Ordering::SeqCst), 5);
        AtomicU64Api::store(&a, 7, Ordering::SeqCst);
        assert_eq!(AtomicU64Api::fetch_add(&a, 1, Ordering::SeqCst), 7);
        assert_eq!(
            AtomicU64Api::compare_exchange(&a, 8, 9, Ordering::SeqCst, Ordering::SeqCst),
            Ok(8)
        );
        let b = <StdAtomics as Atomics>::Usize::new(2);
        assert_eq!(AtomicUsizeApi::fetch_sub(&b, 2, Ordering::SeqCst), 2);
        let f = <StdAtomics as Atomics>::Bool::new(false);
        AtomicBoolApi::store(&f, true, Ordering::SeqCst);
        assert!(AtomicBoolApi::load(&f, Ordering::SeqCst));
    }
}
