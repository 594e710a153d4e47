//! The `ShimAtomics` family: the substrate's [`Atomics`] facade backed by
//! the weak-memory model and the controlled scheduler.
//!
//! A `StealDeque<ShimAtomics>` (or `MailboxGrid`, `QuiesceState`,
//! `MarkWords`) is *the production code*, monomorphized over atomic types
//! whose every operation routes through [`Shared`]: loads may observe
//! stale messages, release stores attach views, and each operation is a
//! scheduling point. Which virtual thread is executing comes from a
//! thread-local context installed by the execution driver
//! ([`run_one`](super::sched::run_one)) and by [`spawn`].
//!
//! [`ShimCell`] is the non-atomic companion: scenario data the protocol
//! under test is supposed to publish (task payloads, vertex prep). Its
//! reads and writes are race-checked against the happens-before the
//! atomics actually established — a stale read *is* the bug the seeded
//! mutations are expected to surface.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use dgr_atomic::{
    AtomicBoolApi, AtomicU32Api, AtomicU64Api, AtomicUsizeApi, Atomics, Ordering, Site,
};

use super::memory::LocKind;
use super::sched::{record_thread_exit, Shared};

struct Ctx {
    shared: Arc<Shared>,
    tid: usize,
    mutation: Option<Site>,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Installs the virtual-thread context for the calling OS thread.
pub(super) fn set_current(shared: Arc<Shared>, tid: usize) {
    let mutation = shared.mutation();
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            shared,
            tid,
            mutation,
        });
    });
}

/// Clears the context when the virtual thread exits.
pub(super) fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

fn ctx() -> (Arc<Shared>, usize) {
    CURRENT.with(|c| {
        let b = c.borrow();
        let x = b
            .as_ref()
            .expect("shim atomic used outside a model execution");
        (Arc::clone(&x.shared), x.tid)
    })
}

/// Scenario assertion: on failure the execution aborts with `msg` as the
/// counterexample's violated invariant.
pub fn shim_assert(cond: bool, msg: impl FnOnce() -> String) {
    if !cond {
        let (shared, tid) = ctx();
        shared.fail(tid, msg());
    }
}

/// The model-checking [`Atomics`] family.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShimAtomics;

impl Atomics for ShimAtomics {
    type U64 = ShimAtomicU64;
    type U32 = ShimAtomicU32;
    type Usize = ShimAtomicUsize;
    type Bool = ShimAtomicBool;

    fn remap(site: Site, default: Ordering) -> Ordering {
        match site {
            _ if !Self::mutated(site) => default,
            // The drain keeps its Release half and loses the Acquire one.
            Site::MwCompleteDrain => Ordering::Release,
            _ => Ordering::Relaxed,
        }
    }

    fn mutated(site: Site) -> bool {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|x| x.mutation == Some(site))
        })
    }

    fn fence(ord: Ordering) {
        let (shared, tid) = ctx();
        shared.fence(tid, ord);
    }

    fn yield_now() {
        let (shared, tid) = ctx();
        shared.yield_now(tid);
    }
}

macro_rules! shim_loc_type {
    ($name:ident) => {
        /// A model-checked atomic location (value stored as `u64`).
        #[derive(Debug)]
        pub struct $name {
            loc: usize,
        }

        impl Default for $name {
            fn default() -> Self {
                let (shared, _) = ctx();
                $name {
                    loc: shared.alloc_loc(LocKind::Atomic, 0),
                }
            }
        }
    };
}

shim_loc_type!(ShimAtomicU64);
shim_loc_type!(ShimAtomicU32);
shim_loc_type!(ShimAtomicUsize);
shim_loc_type!(ShimAtomicBool);

impl AtomicU64Api for ShimAtomicU64 {
    fn new(v: u64) -> Self {
        let (shared, _) = ctx();
        ShimAtomicU64 {
            loc: shared.alloc_loc(LocKind::Atomic, v),
        }
    }
    fn load(&self, ord: Ordering) -> u64 {
        let (shared, tid) = ctx();
        shared.atomic_load(tid, self.loc, ord)
    }
    fn store(&self, v: u64, ord: Ordering) {
        let (shared, tid) = ctx();
        shared.atomic_store(tid, self.loc, v, ord);
    }
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let (shared, tid) = ctx();
        shared.atomic_cas(tid, self.loc, current, new, success, failure)
    }
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        // Spurious failure is not modeled (it only inserts extra retry
        // interleavings, every one of which is also reachable as a real
        // CAS failure in some schedule).
        self.compare_exchange(current, new, success, failure)
    }
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        let (shared, tid) = ctx();
        shared.atomic_fetch(tid, self.loc, ord, "fetch_add", |old| old.wrapping_add(v))
    }
    fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        let (shared, tid) = ctx();
        shared.atomic_fetch(tid, self.loc, ord, "fetch_sub", |old| old.wrapping_sub(v))
    }
}

impl AtomicU32Api for ShimAtomicU32 {
    fn new(v: u32) -> Self {
        let (shared, _) = ctx();
        ShimAtomicU32 {
            loc: shared.alloc_loc(LocKind::Atomic, u64::from(v)),
        }
    }
    fn load(&self, ord: Ordering) -> u32 {
        let (shared, tid) = ctx();
        shared.atomic_load(tid, self.loc, ord) as u32
    }
    fn store(&self, v: u32, ord: Ordering) {
        let (shared, tid) = ctx();
        shared.atomic_store(tid, self.loc, u64::from(v), ord);
    }
}

impl AtomicUsizeApi for ShimAtomicUsize {
    fn new(v: usize) -> Self {
        let (shared, _) = ctx();
        ShimAtomicUsize {
            loc: shared.alloc_loc(LocKind::Atomic, v as u64),
        }
    }
    fn load(&self, ord: Ordering) -> usize {
        let (shared, tid) = ctx();
        shared.atomic_load(tid, self.loc, ord) as usize
    }
    fn store(&self, v: usize, ord: Ordering) {
        let (shared, tid) = ctx();
        shared.atomic_store(tid, self.loc, v as u64, ord);
    }
    fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        let (shared, tid) = ctx();
        shared.atomic_fetch(tid, self.loc, ord, "fetch_add", |old| {
            old.wrapping_add(v as u64)
        }) as usize
    }
    fn fetch_sub(&self, v: usize, ord: Ordering) -> usize {
        let (shared, tid) = ctx();
        shared.atomic_fetch(tid, self.loc, ord, "fetch_sub", |old| {
            old.wrapping_sub(v as u64)
        }) as usize
    }
}

impl AtomicBoolApi for ShimAtomicBool {
    fn new(v: bool) -> Self {
        let (shared, _) = ctx();
        ShimAtomicBool {
            loc: shared.alloc_loc(LocKind::Atomic, u64::from(v)),
        }
    }
    fn load(&self, ord: Ordering) -> bool {
        let (shared, tid) = ctx();
        shared.atomic_load(tid, self.loc, ord) != 0
    }
    fn store(&self, v: bool, ord: Ordering) {
        let (shared, tid) = ctx();
        shared.atomic_store(tid, self.loc, u64::from(v), ord);
    }
}

/// Non-atomic scenario data under happens-before race detection.
#[derive(Debug)]
pub struct ShimCell {
    loc: usize,
}

impl ShimCell {
    /// Allocates a cell holding `v`.
    pub fn new(v: u64) -> Self {
        let (shared, _) = ctx();
        ShimCell {
            loc: shared.alloc_loc(LocKind::Cell, v),
        }
    }

    /// Race-checked read of the newest write.
    pub fn read(&self) -> u64 {
        let (shared, tid) = ctx();
        shared.cell_read(tid, self.loc)
    }

    /// Race-checked write.
    pub fn write(&self, v: u64) {
        let (shared, tid) = ctx();
        shared.cell_write(tid, self.loc, v);
    }
}

/// Handle to a spawned virtual thread.
pub struct ShimJoinHandle {
    tid: usize,
}

impl ShimJoinHandle {
    /// Blocks the calling virtual thread until this one finishes
    /// (a happens-before edge, like real `join`).
    pub fn join(self) {
        let (shared, me) = ctx();
        shared.join_vthread(me, self.tid);
    }
}

/// Spawns a virtual thread running `f` under the model (a happens-before
/// edge from the spawner, like real `spawn`).
pub fn spawn(f: impl FnOnce() + Send + 'static) -> ShimJoinHandle {
    let (shared, me) = ctx();
    let tid = shared.register_vthread(me);
    let s2 = Arc::clone(&shared);
    let h = std::thread::spawn(move || {
        set_current(Arc::clone(&s2), tid);
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        clear_current();
        record_thread_exit(&s2, tid, r);
    });
    shared.track_os_handle(h);
    ShimJoinHandle { tid }
}
