//! One benchmark for the whole `dgr` machine.
//!
//! Four closed-loop workloads — `reduce_nogc`, `reduce_gc`, `mark_tree`,
//! `mark_digraph` — measured from outside: this package calls only `pub`
//! items of the `dgr` facade, times the calls, and checks every output
//! against a reference it computes itself. See `README.md` for why each
//! workload exists, what every metric means and which layer should move
//! which number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod json;
pub mod mark;
pub mod probes;
pub mod programs;
pub mod reduce;
pub mod report;
pub mod stats;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What a run was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// One small iteration, probes at 1/100 size.
    pub quick: bool,
}

impl Opts {
    /// How often set-up is repeated; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// Runs `f`, turning a panic into an `Err` so that one failed operation
/// never takes the other operations or workloads down with it.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| format!("{what}: {e}")),
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// Decides when a measuring loop has used its time: it stops once another
/// iteration of the usual length would end further past the deadline than
/// stopping now ends before it.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    budget: Duration,
    iterations: u32,
}

impl Clock {
    /// Starts the clock with `seconds` to spend.
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            iterations: 0,
        }
    }

    /// Call after each iteration; `true` while there is time for another.
    pub fn again(&mut self) -> bool {
        self.iterations += 1;
        let elapsed = self.start.elapsed();
        elapsed + elapsed / self.iterations / 2 < self.budget
    }
}
