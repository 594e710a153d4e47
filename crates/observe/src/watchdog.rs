//! The progress watchdog: decides, from the hub's heartbeat and the
//! published metrics, whether the marking machinery is still alive.
//!
//! Two failure shapes are supervised (DESIGN.md §6.5):
//!
//! * **Stall** — a marking phase is in force but no delivery progress
//!   and no phase transition has beaten the heartbeat for longer than
//!   the deadline. A healthy M_T/M_R phase beats on every batch of
//!   deliveries, so silence past the deadline means the wave is stuck.
//! * **Runaway** — some PE's mailbox high-water gauge exceeds its
//!   limit: deliveries are still happening but the backlog is growing
//!   without bound, the precursor of memory exhaustion.
//!
//! A heartbeat with zero beats means no instrumented driver ever
//! attached (e.g. a default, no-`telemetry` build where the facade
//! handle is `Off`) — that is *nothing to supervise*, not a stall,
//! so feature-off processes always report healthy.
//!
//! On the healthy → degraded transition the watchdog records an
//! incident and writes a flight dump (the hub's retained event tail
//! plus the latest metrics snapshot) via the
//! [`dgr_telemetry::flight`] recorder, landing in `$DGR_FLIGHT_DIR`.
//! Recovery (a fresh beat, a drained mailbox) flips health back
//! automatically; the incident counter is monotone.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dgr_telemetry::{write_flight, GaugeId};

use crate::hub::{Health, ObserveHub};

/// Watchdog deadlines and limits.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// A phase in force with no beat for this long is a stall.
    pub stall_timeout_ms: u64,
    /// A per-PE mailbox high-water above this is a runaway.
    pub mailbox_hw_limit: i64,
    /// How often the poll loop re-judges health.
    pub poll_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout_ms: 2_000,
            mailbox_hw_limit: 1 << 20,
            poll_ms: 100,
        }
    }
}

/// Judges health from the hub's current state. Pure with respect to the
/// hub (no health mutation, no IO) so tests can call it directly.
pub fn judge(hub: &ObserveHub, cfg: &WatchdogConfig) -> Health {
    let hb = hub.heartbeat();
    if hb.beats() == 0 {
        // No instrumented driver ever attached: nothing to supervise.
        return Health::Ok;
    }
    if hb.phase().is_some() {
        let silence_us = hb.now_us().saturating_sub(hb.last_beat_us());
        if silence_us > cfg.stall_timeout_ms.saturating_mul(1_000) {
            return Health::Degraded(format!(
                "stall: cycle {} phase {} silent for {} ms (deadline {} ms, {} deliveries total)",
                hb.cycle(),
                hb.phase().map(|p| p.name()).unwrap_or("?"),
                silence_us / 1_000,
                cfg.stall_timeout_ms,
                hb.progress_total(),
            ));
        }
    }
    let snap = hub.metrics();
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let hw = shard.gauge(GaugeId::MailboxHighWater);
        if hw > cfg.mailbox_hw_limit {
            return Health::Degraded(format!(
                "runaway: pe {pe} mailbox high-water {hw} exceeds limit {}",
                cfg.mailbox_hw_limit,
            ));
        }
    }
    Health::Ok
}

/// Runs one watchdog check: judges health, publishes the verdict on the
/// hub, and on the healthy → degraded transition records an incident and
/// writes a flight dump. Returns the verdict.
pub fn check_now(hub: &ObserveHub, cfg: &WatchdogConfig) -> Health {
    let verdict = judge(hub, cfg);
    let previous = hub.set_health(verdict.clone());
    if let (true, Health::Degraded(reason)) = (previous.is_ok(), &verdict) {
        hub.record_incident();
        let events = hub.event_tail();
        let snap = hub.metrics();
        // Failure to write the dump must not take down the watchdog —
        // the degraded verdict (and /healthz 503) still stands.
        let _ = write_flight(reason, 0, &events, 0, &snap, &[]);
    }
    verdict
}

/// Spawns the poll loop on its own thread; it re-judges every
/// `cfg.poll_ms` until the hub requests shutdown.
pub fn spawn(hub: Arc<ObserveHub>, cfg: WatchdogConfig) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("dgr-watchdog".into())
        .spawn(move || {
            while !hub.is_shutdown() {
                check_now(&hub, &cfg);
                thread::sleep(Duration::from_millis(cfg.poll_ms));
            }
        })
        .expect("spawn watchdog thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_telemetry::metrics::{HistSnapshot, MetricsSnapshot, PeSnapshot};
    use dgr_telemetry::{CounterId, HistId, Phase};

    #[test]
    fn an_idle_unattached_hub_is_healthy() {
        let hub = ObserveHub::new();
        let cfg = WatchdogConfig {
            stall_timeout_ms: 0,
            ..Default::default()
        };
        // Even a zero deadline cannot degrade a pulse that never beat.
        assert!(check_now(&hub, &cfg).is_ok());
        assert_eq!(hub.incidents(), 0);
    }

    #[test]
    fn a_silent_phase_past_deadline_is_a_stall() {
        let hub = ObserveHub::new();
        hub.heartbeat().begin_phase(1, Phase::Mt);
        let cfg = WatchdogConfig {
            stall_timeout_ms: 0,
            ..Default::default()
        };
        std::thread::sleep(Duration::from_millis(5));
        let verdict = check_now(&hub, &cfg);
        match verdict {
            Health::Degraded(r) => assert!(r.starts_with("stall:"), "got: {r}"),
            Health::Ok => panic!("silent phase past deadline judged healthy"),
        }
        assert_eq!(hub.incidents(), 1);
        // Still degraded on the next check, but no second incident.
        assert!(!check_now(&hub, &cfg).is_ok());
        assert_eq!(hub.incidents(), 1, "incidents count transitions only");
        // A fresh beat recovers health.
        hub.heartbeat().end_phase();
        assert!(check_now(&hub, &cfg).is_ok());
        assert!(hub.health().is_ok());
    }

    #[test]
    fn a_runaway_mailbox_degrades_even_between_phases() {
        let hub = ObserveHub::new();
        hub.heartbeat().cycle_done();
        let mut gauges = [0i64; GaugeId::COUNT];
        gauges[GaugeId::MailboxHighWater.index()] = 501;
        let shard = PeSnapshot::from_parts(
            [0; CounterId::COUNT],
            gauges,
            [HistSnapshot::default(); HistId::COUNT],
        );
        hub.publish_metrics(MetricsSnapshot {
            per_pe: vec![PeSnapshot::default(), shard],
        });
        let cfg = WatchdogConfig {
            mailbox_hw_limit: 500,
            ..Default::default()
        };
        match check_now(&hub, &cfg) {
            Health::Degraded(r) => {
                assert!(r.starts_with("runaway: pe 1"), "got: {r}");
            }
            Health::Ok => panic!("runaway high-water judged healthy"),
        }
    }
}
