//! The watchdog's *runaway* verdict, reached from a real collector run:
//! `GcDriver` writes each cycle's marking-backlog peak to the
//! `MailboxHighWater` gauge, the hub publishes the registry's snapshot,
//! and `judge` compares the gauge with its limit. Needs the recording
//! registry, so the file is empty in a default build.

#![cfg(feature = "telemetry")]

use dgr_gc::{GcConfig, GcDriver};
use dgr_observe::{judge, Health, ObserveHub, WatchdogConfig};
use dgr_telemetry::GaugeId;

#[test]
fn a_backlog_past_the_limit_is_a_runaway_and_one_below_it_is_not() {
    let src = "let rec sum = \\n -> if n == 0 then 0 else n + sum (n - 1) in sum 40";
    let sys = dgr_lang::build_system(src, Default::default()).expect("program compiles");
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: 40,
            ..Default::default()
        },
    );
    let hub = ObserveHub::new();
    gc.attach_heartbeat(hub.heartbeat_handle());
    gc.run();
    hub.publish_metrics(gc.sys.telemetry().snapshot());

    let peak = hub.metrics().merged().gauge(GaugeId::MailboxHighWater);
    let timeline_peak = gc.timeline().iter().map(|c| c.mark_backlog_hw).max();
    assert_eq!(Some(peak as u64), timeline_peak);
    assert!(peak > 1, "the marking wave backed up at least two deep");

    let limit = |mailbox_hw_limit| WatchdogConfig {
        mailbox_hw_limit,
        ..Default::default()
    };
    match judge(&hub, &limit(peak - 1)) {
        Health::Degraded(why) => assert!(why.starts_with("runaway: pe 0"), "got: {why}"),
        Health::Ok => panic!("a backlog of {peak} passed a limit of {}", peak - 1),
    }
    assert!(judge(&hub, &limit(peak)).is_ok());
}
