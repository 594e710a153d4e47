//! A marking event allocates nothing: a full cycle's heap allocations are
//! a small constant, whatever the number of marking events it delivers.
//!
//! The test binary's global allocator counts the allocations the calling
//! thread makes; this file holds a single test so nothing else runs on
//! that thread.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use dgr_gc::{GcConfig, GcDriver};
use dgr_graph::{GraphStore, NodeLabel};
use dgr_reduction::{System, SystemConfig, TemplateStore};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` with a const initializer and no destructor, so
// touching it neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `SystemAlloc.alloc` with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from this allocator with `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A quiescent system (no pending task) over a complete binary tree of
/// `n` vertices, every one of them reachable from the root.
fn quiescent_tree(n: usize) -> GcDriver {
    let mut g = GraphStore::with_capacity(n);
    let ids: Vec<_> = (0..n)
        .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
        .collect();
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                g.connect(ids[i], ids[c]);
            }
        }
    }
    g.set_root(ids[0]);
    let sys = System::new(g, TemplateStore::new(), SystemConfig::default());
    GcDriver::new(sys, GcConfig::default())
}

#[test]
fn a_cycle_allocates_a_constant_however_many_events_it_delivers() {
    // Comfortably above what one cycle needs for its census (a garbage
    // set, a lane-priority table, a few short lists) and far below one
    // allocation per thousand events.
    const CEILING: u64 = 16;
    for n in [10_000usize, 40_000] {
        let mut gc = quiescent_tree(n);
        // Warm-up: queues and the timeline grow to their working size.
        gc.run_cycle();
        let before = ALLOCATIONS.with(Cell::get);
        let report = gc.run_cycle();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(report.marked_r(), n);
        // One mark and one return per vertex, each pair either delivered
        // or settled in place (a leaf on its parent's PE).
        let pairs = report.mark_events + 2 * report.marks_in_place;
        assert_eq!(pairs, 2 * n as u64, "one mark, one return");
        assert!(report.marks_in_place > 0);
        assert!(
            allocations <= CEILING,
            "{allocations} allocations for {} marking events",
            report.mark_events
        );
    }
}
