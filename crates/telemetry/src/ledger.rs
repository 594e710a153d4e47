//! The ledger seam: a record's wire format, declared once.
//!
//! A *ledger* is a small all-`u64` record a run closes periodically (a
//! [`CycleHeap`](crate::CycleHeap) and a
//! [`CycleLifecycle`](crate::CycleLifecycle) per GC cycle, a
//! [`PeSchedSnapshot`](crate::PeSchedSnapshot) of state-clock deltas per
//! PE and pass) and writes into the event stream as one instant per
//! field. [`Ledger::wire`] is the only place its instant names are
//! spelled: [`Registry::emit`](crate::Registry::emit) walks it to record
//! the instants (nothing at all in the no-op twin), and `dgr-trace`'s fold
//! offers every parsed instant to [`Ledger::absorb`], which walks it again
//! to find the field the name belongs to. A new field is one line in a
//! `wire`; a new ledger is one `impl`.

use crate::ids::Phase;

/// A record with a declared instant-per-field wire format.
pub trait Ledger: Copy {
    /// The phase tag its instants carry.
    const PHASE: Phase;

    /// The empty ledger an instant recorded at `(pe, cycle)` belongs to,
    /// and the key a fold files it under (the cycle for per-cycle ledgers,
    /// the PE for per-PE ones).
    fn open(pe: u16, cycle: u32) -> (u64, Self);

    /// The wire format: calls `field` once per `(instant name, value)`
    /// pair, in emission order.
    fn wire(&mut self, field: impl FnMut(&'static str, &mut u64));

    /// What a fold does with a second value for a field it already holds:
    /// the last value wins, unless the ledger overrides this (per-pass
    /// deltas sum).
    fn combine(_held: u64, new: u64) -> u64 {
        new
    }

    /// Folds one instant into the ledger; `false` if `name` is not one of
    /// its fields.
    fn absorb(&mut self, name: &str, value: u64) -> bool {
        let mut hit = false;
        self.wire(|field, slot| {
            if field == name {
                *slot = Self::combine(*slot, value);
                hit = true;
            }
        });
        hit
    }
}

/// `num / den`, or `when_empty` for a zero denominator — the shape of
/// every derived ledger metric.
pub(crate) fn ratio(num: u64, den: u64, when_empty: f64) -> f64 {
    if den == 0 {
        when_empty
    } else {
        num as f64 / den as f64
    }
}
