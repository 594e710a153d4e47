//! Proof that the `Atomics` facade is zero-cost in production: the
//! `StdAtomics` associated types *are* `std::sync::atomic`'s types (not
//! wrappers), the family carrier is zero-sized, the mutation hooks are
//! identity/`false` constants, and the substrate's default type
//! parameters monomorphize to exactly the `StdAtomics` instantiation.

use std::any::TypeId;

use dgr_atomic::{AtomicU64Api, Atomics, Ordering, Site, StdAtomics};

#[test]
fn std_family_types_are_stds_atomics() {
    assert_eq!(
        TypeId::of::<<StdAtomics as Atomics>::U64>(),
        TypeId::of::<std::sync::atomic::AtomicU64>()
    );
    assert_eq!(
        TypeId::of::<<StdAtomics as Atomics>::U32>(),
        TypeId::of::<std::sync::atomic::AtomicU32>()
    );
    assert_eq!(
        TypeId::of::<<StdAtomics as Atomics>::Usize>(),
        TypeId::of::<std::sync::atomic::AtomicUsize>()
    );
    assert_eq!(
        TypeId::of::<<StdAtomics as Atomics>::Bool>(),
        TypeId::of::<std::sync::atomic::AtomicBool>()
    );
    assert_eq!(std::mem::size_of::<StdAtomics>(), 0);
}

#[test]
fn production_mutation_hooks_are_inert() {
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
        for ord in [
            Ordering::Relaxed,
            Ordering::Acquire,
            Ordering::Release,
            Ordering::AcqRel,
            Ordering::SeqCst,
        ] {
            assert_eq!(StdAtomics::remap(site, ord), ord);
        }
        assert!(!StdAtomics::mutated(site));
    }
}

#[test]
fn substrate_defaults_monomorphize_to_std() {
    // The unparameterized spelling used across the workspace is the very
    // same type as the explicit `StdAtomics` instantiation — there is no
    // second copy of the hot paths in a production binary.
    assert_eq!(
        TypeId::of::<dgr_sim::StealDeque>(),
        TypeId::of::<dgr_sim::StealDeque<StdAtomics>>()
    );
    assert_eq!(
        TypeId::of::<dgr_sim::SpscRing>(),
        TypeId::of::<dgr_sim::SpscRing<StdAtomics>>()
    );
    assert_eq!(
        TypeId::of::<dgr_sim::MailboxGrid>(),
        TypeId::of::<dgr_sim::MailboxGrid<StdAtomics>>()
    );
    assert_eq!(
        TypeId::of::<dgr_sim::QuiesceState>(),
        TypeId::of::<dgr_sim::QuiesceState<StdAtomics>>()
    );
}

#[test]
fn std_u64_behaves_like_std() {
    // Smoke-check the delegation itself (a wrong self-call would recurse
    // or reorder arguments; TypeId equality alone cannot see that).
    let a = <<StdAtomics as Atomics>::U64 as AtomicU64Api>::new(7);
    assert_eq!(AtomicU64Api::load(&a, Ordering::SeqCst), 7);
    AtomicU64Api::store(&a, 9, Ordering::SeqCst);
    assert_eq!(
        AtomicU64Api::compare_exchange(&a, 9, 11, Ordering::SeqCst, Ordering::SeqCst),
        Ok(9)
    );
    assert_eq!(AtomicU64Api::load(&a, Ordering::SeqCst), 11);
}
