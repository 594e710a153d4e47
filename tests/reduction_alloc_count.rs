//! A reduction task does not allocate: a vertex is one record with its
//! arcs, request kinds, returned values and requesters inline, a function
//! value shares its captures, a slot is recycled in place, and an
//! expansion's id list and actuals live in lists the system keeps across
//! tasks — so what is left is the store's growth, the captures of a
//! partial application, and the spill block of a vertex with more than
//! three arcs (`foldl f acc xs`, one per element of `cyclic_sum`): under a
//! tenth of an allocator call per task, not the 1.6–2.1 a `Vec`-backed
//! vertex cost.
//!
//! The test binary's global allocator counts the `alloc` and `realloc`
//! calls the calling thread makes; this file holds a single test so
//! nothing else runs on that thread.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use dgr::graph::Value;
use dgr::lang::build_with_prelude;
use dgr::reduction::{RunOutcome, SystemConfig};

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

/// Small instances of the four program shapes the benchmark's `reduce_*`
/// workloads evaluate, each with the integer it reduces to.
fn programs() -> [(&'static str, &'static str, i64); 4] {
    // The 40 numbers `lcg 1 40` draws, summed natively.
    let (mut x, mut lcg_sum) = (1, 0);
    for _ in 0..40 {
        lcg_sum += x % 1000;
        x = (x * 75 + 74) % 65_537;
    }
    [
        ("nfib", "nfib 13", 753),
        (
            "qsort",
            "let rec lcg = \\x k -> if k == 0 then nil
                                    else cons (x % 1000)
                                              (lcg ((x * 75 + 74) % 65537) (k - 1));
                     qsort = \\xs -> if isnil xs then nil
                                     else append
                                       (qsort (filter (\\y -> y < head xs) (tail xs)))
                                       (cons (head xs)
                                         (qsort (filter (\\y -> y >= head xs) (tail xs))))
             in sum (qsort (lcg 1 40))",
            lcg_sum,
        ),
        (
            "cyclic_sum",
            "let rec ones = cons 1 ones in sum (take 400 ones)",
            400,
        ),
        (
            "primes",
            "length (filter (\\k -> isnil (filter (\\d -> k % d == 0) (range 2 (k - 1))))
                            (range 2 49))",
            15,
        ),
    ]
}

#[test]
fn a_reduction_task_makes_a_fraction_of_one_allocator_call() {
    const CEILING: f64 = 0.1;
    for (name, source, expected) in programs() {
        let config = SystemConfig {
            num_pes: 2,
            ..SystemConfig::default()
        };
        let mut sys = build_with_prelude(source, config).expect(name);
        let before = ALLOCATIONS.with(Cell::get);
        let out = sys.run();
        let calls = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(out, RunOutcome::Value(Value::Int(expected)), "{name}");
        let tasks = sys.stats.total_tasks();
        assert!(tasks > 3_000, "{name}: only {tasks} tasks");
        let per_task = calls as f64 / tasks as f64;
        println!("{name}: {calls} alloc + realloc calls / {tasks} tasks = {per_task:.3}");
        assert!(
            per_task <= CEILING,
            "{name}: {per_task:.2} allocator calls per reduction task ({calls} / {tasks})"
        );
    }
}
