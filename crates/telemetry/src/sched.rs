//! Per-PE scheduler **state clocks**: monotone nanosecond accounting of
//! what each worker thread is doing at every instant of a pass.
//!
//! The work-stealing runtime's worker loop is a small closed state
//! machine — run local work, drain the mailbox mesh, search for a steal
//! victim, spin / yield / park when idle, quiesce. [`SchedState`] names
//! those states; a [`StateClock`] gives every PE one slot that charges
//! wall-clock nanoseconds to exactly one state at a time.
//!
//! The accounting identity the blame report is built on: for a
//! well-formed episode (one `enter` before any other call, `finish` at
//! the end, all calls from the owning worker thread),
//!
//! ```text
//! Σ_state ns[state]  ==  last_transition − first_enter
//! ```
//!
//! **exactly** — every elapsed nanosecond between the first `enter` and
//! `finish` lands in precisely one bucket, because a transition closes
//! the old bucket and opens the new one at the same instant. A pass
//! therefore accounts for 100% of each worker's measured wall-clock by
//! construction; the tolerance in the proptests only covers the
//! thread-spawn/join skirts *outside* the episode.
//!
//! Like the rest of the metric layer, slots are relaxed atomics: each PE
//! writes only its own slot, observers snapshot from other threads and
//! read monotone tallies after the fact. A recording
//! [`Registry`](crate::Registry) routes `sched_enter` / `sched_finish`
//! here; an `Off` one keeps no clock and returns first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::ids::Phase;
use crate::ledger::{ratio, Ledger};

/// What a scheduler worker is doing right now. Closed enum — the blame
/// report and the Prometheus exporter both enumerate [`SchedState::ALL`],
/// so adding a state extends every consumer by compile error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedState {
    /// Executing tasks (local deque pops, spill pops, task chains).
    Work,
    /// Picking a victim and attempting `steal_half`.
    StealSearch,
    /// Idle busy-spin (first backoff tier).
    Spin,
    /// Idle `yield_now` (second backoff tier).
    Yield,
    /// Parked on the timeout futex (third backoff tier).
    Park,
    /// Draining / staging the cross-PE mailbox mesh and flushing held
    /// releases.
    MailboxDrain,
    /// Termination detected; winding the worker down.
    Quiesce,
}

impl SchedState {
    /// Number of states.
    pub const COUNT: usize = 7;

    /// Every state, in `index` order.
    pub const ALL: [SchedState; SchedState::COUNT] = [
        SchedState::Work,
        SchedState::StealSearch,
        SchedState::Spin,
        SchedState::Yield,
        SchedState::Park,
        SchedState::MailboxDrain,
        SchedState::Quiesce,
    ];

    /// Dense index into clock/snapshot arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (also the JSON value and the Prometheus
    /// `state` label).
    pub fn name(self) -> &'static str {
        match self {
            SchedState::Work => "work",
            SchedState::StealSearch => "steal_search",
            SchedState::Spin => "spin",
            SchedState::Yield => "yield",
            SchedState::Park => "park",
            SchedState::MailboxDrain => "mailbox_drain",
            SchedState::Quiesce => "quiesce",
        }
    }

    /// The instant name carrying this state's nanoseconds on the wire
    /// (see the [`Ledger`] impl of [`PeSchedSnapshot`]).
    fn event_name(self) -> &'static str {
        match self {
            SchedState::Work => "sched_work",
            SchedState::StealSearch => "sched_steal_search",
            SchedState::Spin => "sched_spin",
            SchedState::Yield => "sched_yield",
            SchedState::Park => "sched_park",
            SchedState::MailboxDrain => "sched_mailbox_drain",
            SchedState::Quiesce => "sched_quiesce",
        }
    }
}

/// "No state in force" sentinel for a slot's `current` cell.
const NO_STATE: u64 = u64::MAX;

/// "Never entered" sentinel for a slot's `first_ns` cell.
const NEVER: u64 = u64::MAX;

/// One PE's clock slot. Written only by the owning worker; read by
/// snapshot observers.
#[derive(Debug)]
struct SchedSlot {
    /// Nanoseconds charged to each state so far.
    ns: [AtomicU64; SchedState::COUNT],
    /// Dense index of the state in force, or [`NO_STATE`].
    current: AtomicU64,
    /// Clock reading (ns since the clock's epoch) of the last transition.
    entered_ns: AtomicU64,
    /// Clock reading of the first `enter` ever, or [`NEVER`].
    first_ns: AtomicU64,
    /// Clock reading of the last `finish`.
    last_ns: AtomicU64,
}

impl SchedSlot {
    fn new() -> Self {
        SchedSlot {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            current: AtomicU64::new(NO_STATE),
            entered_ns: AtomicU64::new(0),
            first_ns: AtomicU64::new(NEVER),
            last_ns: AtomicU64::new(0),
        }
    }
}

/// Per-PE scheduler state clocks sharing one monotonic epoch.
#[derive(Debug)]
pub struct StateClock {
    t0: Instant,
    slots: Box<[SchedSlot]>,
}

impl StateClock {
    /// A clock with one slot per PE (at least one; PEs beyond the slot
    /// count wrap, mirroring the registry's shard addressing).
    pub fn new(num_pes: usize) -> Self {
        StateClock {
            t0: Instant::now(),
            slots: (0..num_pes.max(1)).map(|_| SchedSlot::new()).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn slot(&self, pe: u16) -> &SchedSlot {
        &self.slots[pe as usize % self.slots.len()]
    }

    /// Transitions PE `pe` into `state`, charging the time since the
    /// previous transition to the state that was in force. Entering the
    /// state already in force is free (no clock read, no charge) — hot
    /// loops call this unconditionally on every iteration.
    pub fn enter(&self, pe: u16, state: SchedState) {
        let slot = self.slot(pe);
        let cur = slot.current.load(Ordering::Relaxed);
        if cur == state.index() as u64 {
            return;
        }
        let now = self.now_ns();
        if cur == NO_STATE {
            slot.first_ns.fetch_min(now, Ordering::Relaxed);
        } else {
            let entered = slot.entered_ns.load(Ordering::Relaxed);
            slot.ns[cur as usize].fetch_add(now.saturating_sub(entered), Ordering::Relaxed);
        }
        slot.entered_ns.store(now, Ordering::Relaxed);
        slot.current.store(state.index() as u64, Ordering::Relaxed);
    }

    /// Closes PE `pe`'s episode: charges the in-force state up to now and
    /// clears it. Idempotent (a second `finish` is a no-op).
    pub fn finish(&self, pe: u16) {
        let slot = self.slot(pe);
        let cur = slot.current.swap(NO_STATE, Ordering::Relaxed);
        if cur == NO_STATE {
            return;
        }
        let now = self.now_ns();
        let entered = slot.entered_ns.load(Ordering::Relaxed);
        slot.ns[cur as usize].fetch_add(now.saturating_sub(entered), Ordering::Relaxed);
        slot.last_ns.fetch_max(now, Ordering::Relaxed);
    }

    /// Copies one PE's clock out. Mid-episode, the in-force state is
    /// virtually charged up to now, so snapshots taken while the worker
    /// runs still satisfy `Σ ns ≈ span_ns` (exactly, once finished).
    pub fn snapshot_pe(&self, pe: u16) -> PeSchedSnapshot {
        let slot = self.slot(pe);
        let mut ns = [0u64; SchedState::COUNT];
        for (i, cell) in slot.ns.iter().enumerate() {
            ns[i] = cell.load(Ordering::Relaxed);
        }
        let first = slot.first_ns.load(Ordering::Relaxed);
        // `NO_STATE` is past the end of `ALL`, so it reads as `None`.
        let cur = slot.current.load(Ordering::Relaxed);
        let current = SchedState::ALL.get(cur as usize).copied();
        let span_ns = if first == NEVER {
            0
        } else if let Some(state) = current {
            // Still running: charge the open state up to now.
            let now = self.now_ns();
            let entered = slot.entered_ns.load(Ordering::Relaxed);
            ns[state.index()] += now.saturating_sub(entered);
            now.saturating_sub(first)
        } else {
            slot.last_ns.load(Ordering::Relaxed).saturating_sub(first)
        };
        PeSchedSnapshot {
            ns,
            current,
            span_ns,
        }
    }
}

/// A point-in-time copy of one PE's state clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeSchedSnapshot {
    /// Nanoseconds charged to each state, indexed by
    /// [`SchedState::index`].
    pub ns: [u64; SchedState::COUNT],
    /// The state in force when the snapshot was taken, if any.
    pub current: Option<SchedState>,
    /// Wall nanoseconds from the first `enter` to the last transition
    /// (or to the snapshot instant while running). Equals
    /// [`total_ns`](PeSchedSnapshot::total_ns) exactly once finished.
    pub span_ns: u64,
}

/// As a ledger a clock is one pass's deltas ([`PeSchedSnapshot::since`]),
/// keyed by PE: one `sched_*` instant per state plus the pass span, and
/// folds **sum** — a stream holding several passes on one registry folds
/// to the true multi-pass clock.
impl Ledger for PeSchedSnapshot {
    const PHASE: Phase = Phase::Mr;

    fn open(pe: u16, _cycle: u32) -> (u64, Self) {
        (u64::from(pe), PeSchedSnapshot::default())
    }

    fn wire(&mut self, mut field: impl FnMut(&'static str, &mut u64)) {
        for s in SchedState::ALL {
            field(s.event_name(), &mut self.ns[s.index()]);
        }
        field("sched_span", &mut self.span_ns);
    }

    fn combine(held: u64, new: u64) -> u64 {
        held + new
    }
}

impl PeSchedSnapshot {
    /// What this clock accumulated after `base` was read off the same
    /// slot — one pass's ledger. The span is the accounted-time delta:
    /// the clock's cumulative `span_ns` includes the idle gap between
    /// passes, while `total_ns` equals the span exactly for each finished
    /// episode, so its delta is exactly the pass's span.
    pub fn since(&self, base: &PeSchedSnapshot) -> PeSchedSnapshot {
        PeSchedSnapshot {
            ns: std::array::from_fn(|i| self.ns[i].saturating_sub(base.ns[i])),
            current: None,
            span_ns: self.total_ns().saturating_sub(base.total_ns()),
        }
    }

    /// Accounted fraction of the span; 1.0 for an empty clock (nothing
    /// ran, nothing unaccounted).
    pub fn accounted(&self) -> f64 {
        ratio(self.total_ns(), self.span_ns, 1.0)
    }

    /// Nanoseconds charged to one state.
    pub fn state_ns(&self, state: SchedState) -> u64 {
        self.ns[state.index()]
    }

    /// Sum over all states.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Fraction of accounted time spent in [`SchedState::Work`]
    /// (0.0 when nothing was recorded).
    pub fn utilization(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.state_ns(SchedState::Work) as f64 / total as f64
        }
    }

    /// `true` when no time was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ns() == 0 && self.current.is_none()
    }

    /// Folds another PE's clock into this one: state times add, spans
    /// take the maximum (the merged reading answers "how long was the
    /// slowest PE's episode"), the in-force state keeps the first
    /// non-idle answer.
    pub fn merge(&mut self, other: &PeSchedSnapshot) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
        self.span_ns = self.span_ns.max(other.span_ns);
        self.current = self.current.or(other.current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn states_are_dense_with_unique_names() {
        for (i, s) in SchedState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<&str> = SchedState::ALL.iter().map(|s| s.name()).collect();
        names.extend(SchedState::ALL.iter().map(|s| s.event_name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn a_finished_episode_sums_exactly_to_its_span() {
        let clock = StateClock::new(2);
        clock.enter(0, SchedState::Work);
        std::thread::sleep(Duration::from_millis(2));
        clock.enter(0, SchedState::StealSearch);
        clock.enter(0, SchedState::StealSearch); // same-state re-enter is free
        std::thread::sleep(Duration::from_millis(1));
        clock.enter(0, SchedState::Quiesce);
        clock.finish(0);
        let snap = clock.snapshot_pe(0);
        assert_eq!(snap.current, None);
        assert_eq!(
            snap.total_ns(),
            snap.span_ns,
            "every ns lands in one bucket"
        );
        assert!(snap.state_ns(SchedState::Work) >= 2_000_000);
        assert!(snap.state_ns(SchedState::StealSearch) >= 1_000_000);
        assert!(snap.utilization() > 0.0 && snap.utilization() < 1.0);
        // Untouched PE: empty.
        assert!(clock.snapshot_pe(1).is_empty());
        assert_eq!(clock.snapshot_pe(1).span_ns, 0);
    }

    #[test]
    fn finish_is_idempotent_and_current_tracks() {
        let clock = StateClock::new(1);
        assert_eq!(clock.snapshot_pe(0).current, None);
        clock.enter(0, SchedState::Park);
        assert_eq!(clock.snapshot_pe(0).current, Some(SchedState::Park));
        clock.finish(0);
        assert_eq!(clock.snapshot_pe(0).current, None);
        let a = clock.snapshot_pe(0);
        clock.finish(0);
        let b = clock.snapshot_pe(0);
        assert_eq!(a, b, "second finish records nothing");
    }

    #[test]
    fn running_snapshot_charges_the_open_state() {
        let clock = StateClock::new(1);
        clock.enter(0, SchedState::Spin);
        std::thread::sleep(Duration::from_millis(1));
        let snap = clock.snapshot_pe(0);
        assert_eq!(snap.current, Some(SchedState::Spin));
        assert!(snap.state_ns(SchedState::Spin) >= 1_000_000);
        assert!(snap.span_ns >= snap.state_ns(SchedState::Spin));
    }

    #[test]
    fn pes_wrap_like_registry_shards() {
        let clock = StateClock::new(2);
        clock.enter(2, SchedState::Work); // wraps to slot 0
        std::thread::sleep(Duration::from_millis(1));
        clock.finish(2);
        assert!(clock.snapshot_pe(0).state_ns(SchedState::Work) > 0);
        assert!(clock.snapshot_pe(1).is_empty(), "slot 1 untouched");
        let zero = StateClock::new(0);
        zero.enter(5, SchedState::Work);
        zero.finish(5);
        assert_eq!(
            zero.snapshot_pe(0),
            zero.snapshot_pe(5),
            "a zero-PE clock still has its one slot"
        );
    }

    #[test]
    fn a_pass_ledger_is_the_delta_and_folds_by_summing() {
        let mut base = PeSchedSnapshot::default();
        base.ns[SchedState::Work.index()] = 100;
        base.span_ns = 5_000; // cumulative span: includes idle gaps
        let mut now = base;
        now.ns[SchedState::Work.index()] = 400;
        now.ns[SchedState::Park.index()] = 50;
        now.span_ns = 9_000;
        now.current = Some(SchedState::Park);
        let pass = now.since(&base);
        assert_eq!(pass.state_ns(SchedState::Work), 300);
        assert_eq!(pass.state_ns(SchedState::Park), 50);
        assert_eq!(pass.span_ns, 350, "accounted delta, not wall window");
        assert_eq!(pass.current, None);
        assert!((pass.accounted() - 1.0).abs() < 1e-12);
        assert_eq!(PeSchedSnapshot::default().accounted(), 1.0);
        // Two passes of the same PE fold to their sum.
        let (key, mut folded) = PeSchedSnapshot::open(3, 0);
        assert_eq!(key, 3);
        for _ in 0..2 {
            let mut fields = pass;
            fields.wire(|name, v| assert!(folded.absorb(name, *v)));
        }
        assert_eq!(folded.state_ns(SchedState::Work), 600);
        assert_eq!(folded.span_ns, 700);
        assert!(!folded.absorb("bsp_span_us", 1));
    }

    #[test]
    fn merge_adds_times_and_maxes_spans() {
        let clock = StateClock::new(2);
        clock.enter(0, SchedState::Work);
        clock.finish(0);
        clock.enter(1, SchedState::Park);
        clock.finish(1);
        let mut m = clock.snapshot_pe(0);
        let other = clock.snapshot_pe(1);
        let total = m.total_ns() + other.total_ns();
        let span = m.span_ns.max(other.span_ns);
        m.merge(&other);
        assert_eq!(m.total_ns(), total);
        assert_eq!(m.span_ns, span);
    }
}
