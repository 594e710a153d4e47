//! Liveness heartbeats: the shared pulse a watchdog reads to decide
//! whether the marking machinery is still making progress.
//!
//! A [`Heartbeat`] is a handful of relaxed atomics: the current GC cycle
//! and phase, a monotone delivery-progress counter, and coarse
//! timestamps. Instrumented drivers beat it from their hot loops through
//! the [`HeartbeatHandle`](crate::HeartbeatHandle) facade (zero-sized
//! no-op in a default build, an `Arc` of this type with the `telemetry`
//! feature on); an observer — `dgr-observe`'s watchdog — polls the
//! concrete type from another thread.
//!
//! Like [`metrics`](crate::metrics), this module is always compiled so
//! both feature states test the real implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::ids::Phase;

/// Sentinel phase code meaning "no phase in force" (idle).
const PHASE_IDLE: u64 = u64::MAX;

fn phase_code(p: Phase) -> u64 {
    match p {
        Phase::Mt => 0,
        Phase::Mr => 1,
        Phase::Classify => 2,
        Phase::Gc => 3,
    }
}

fn phase_from_code(c: u64) -> Option<Phase> {
    match c {
        0 => Some(Phase::Mt),
        1 => Some(Phase::Mr),
        2 => Some(Phase::Classify),
        3 => Some(Phase::Gc),
        _ => None,
    }
}

/// The shared pulse: written by drivers, polled by a watchdog.
///
/// All writes are `Relaxed` — the fields are independent monotone
/// signals read after the fact, never used for synchronization.
#[derive(Debug)]
pub struct Heartbeat {
    t0: Instant,
    cycle: AtomicU64,
    phase: AtomicU64,
    phase_started_us: AtomicU64,
    progress: AtomicU64,
    cycles_done: AtomicU64,
    beats: AtomicU64,
    last_beat_us: AtomicU64,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A fresh, idle heartbeat (its clock starts now).
    pub fn new() -> Self {
        Heartbeat {
            t0: Instant::now(),
            cycle: AtomicU64::new(0),
            phase: AtomicU64::new(PHASE_IDLE),
            phase_started_us: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            cycles_done: AtomicU64::new(0),
            beats: AtomicU64::new(0),
            last_beat_us: AtomicU64::new(0),
        }
    }

    /// Microseconds since the heartbeat was created.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
        self.last_beat_us.store(self.now_us(), Ordering::Relaxed);
    }

    /// A marking phase of `cycle` entered force.
    pub fn begin_phase(&self, cycle: u32, phase: Phase) {
        self.cycle.store(u64::from(cycle), Ordering::Relaxed);
        self.phase.store(phase_code(phase), Ordering::Relaxed);
        self.phase_started_us
            .store(self.now_us(), Ordering::Relaxed);
        self.beat();
    }

    /// The current phase left force (back to idle).
    pub fn end_phase(&self) {
        self.phase.store(PHASE_IDLE, Ordering::Relaxed);
        self.beat();
    }

    /// `n` more deliveries (marking or reduction) were made — the
    /// monotone signal a watchdog compares against its deadline.
    pub fn progress(&self, n: u64) {
        self.progress.fetch_add(n, Ordering::Relaxed);
        self.last_beat_us.store(self.now_us(), Ordering::Relaxed);
    }

    /// A full mark-and-restructure cycle completed.
    pub fn cycle_done(&self) {
        self.cycles_done.fetch_add(1, Ordering::Relaxed);
        self.beat();
    }

    /// The cycle number most recently begun.
    pub fn cycle(&self) -> u32 {
        self.cycle.load(Ordering::Relaxed) as u32
    }

    /// The phase currently in force, `None` when idle.
    pub fn phase(&self) -> Option<Phase> {
        phase_from_code(self.phase.load(Ordering::Relaxed))
    }

    /// Microseconds the current phase has been in force (0 when idle).
    pub fn phase_age_us(&self) -> u64 {
        if self.phase().is_none() {
            0
        } else {
            self.now_us()
                .saturating_sub(self.phase_started_us.load(Ordering::Relaxed))
        }
    }

    /// Total deliveries reported so far.
    pub fn progress_total(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Completed cycles reported so far.
    pub fn cycles_done(&self) -> u64 {
        self.cycles_done.load(Ordering::Relaxed)
    }

    /// Total beats (phase transitions + cycle completions). Zero means
    /// no instrumented driver ever attached — a watchdog treats that as
    /// "nothing to supervise", not as a stall.
    pub fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    /// Microseconds (on this heartbeat's clock) of the most recent beat
    /// or progress report.
    pub fn last_beat_us(&self) -> u64 {
        self.last_beat_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_round_trip() {
        for p in [Phase::Mt, Phase::Mr, Phase::Classify, Phase::Gc] {
            assert_eq!(phase_from_code(phase_code(p)), Some(p));
        }
        assert_eq!(phase_from_code(PHASE_IDLE), None);
    }

    #[test]
    fn beats_track_phase_lifecycle() {
        let hb = Heartbeat::new();
        assert_eq!(hb.beats(), 0);
        assert_eq!(hb.phase(), None);
        assert_eq!(hb.phase_age_us(), 0);
        hb.begin_phase(3, Phase::Mr);
        assert_eq!(hb.cycle(), 3);
        assert_eq!(hb.phase(), Some(Phase::Mr));
        hb.progress(5);
        hb.progress(2);
        assert_eq!(hb.progress_total(), 7);
        hb.end_phase();
        assert_eq!(hb.phase(), None);
        hb.cycle_done();
        assert_eq!(hb.cycles_done(), 1);
        assert_eq!(hb.beats(), 3, "begin + end + cycle_done");
        assert!(hb.last_beat_us() <= hb.now_us());
    }
}
