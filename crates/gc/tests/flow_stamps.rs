//! The collector's flow stamps pair up: under several scheduling policies
//! and programs, every `flow_recv` a `GcDriver` run records resolves
//! exactly one earlier `flow_send` with the same id, and no id is sent
//! twice — in `M_R`, interleaved with reduction tasks, and in the `M_T`
//! pass alike. `M_T` runs in the first cycle, and in every cycle of the
//! program whose discarded speculative branch closes a cycle of waits.

#![cfg(feature = "telemetry")]

use std::collections::HashMap;

use dgr_gc::{GcConfig, GcDriver};
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_sim::SchedPolicy;
use dgr_telemetry::{Event, EventKind, Phase};

#[test]
fn every_collector_delivery_resolves_one_earlier_send() {
    let policies = [
        SchedPolicy::RoundRobin,
        SchedPolicy::PriorityFirst,
        SchedPolicy::Random { marking_bias: 0.5 },
    ];
    let programs = [
        ("nfib 9", true),
        ("sum (range 1 60)", false),
        ("if 1 < 2 then nfib 7 else (let rec x = x + 1 in x)", true),
    ];
    for policy in policies {
        for (src, speculation) in programs {
            let cfg = SystemConfig {
                num_pes: 3,
                policy,
                speculation,
                ..Default::default()
            };
            let sys = dgr_lang::build_with_prelude(src, cfg).unwrap();
            let mut gc = GcDriver::new(
                sys,
                GcConfig {
                    period: 40,
                    mt_every: 1,
                    ..Default::default()
                },
            );
            gc.sys.demand_root();
            // Drained at every window's end, so no ring wraps.
            let mut events: Vec<Event> = Vec::new();
            let out = gc.run_more_with(|gc| events.extend(gc.sys.telemetry().drain_events()));
            events.extend(gc.sys.telemetry().drain_events());
            let case = format!("{src} under {policy:?}");
            assert!(matches!(out, RunOutcome::Value(_)), "{case}: {out:?}");
            assert_eq!(gc.sys.telemetry().dropped_events(), 0, "{case}");

            // id -> (lamport, cycle, phase) of its one send.
            let mut sends = HashMap::new();
            for e in events.iter().filter(|e| e.kind == EventKind::FlowSend) {
                let prior = sends.insert(e.value, (e.lamport, e.cycle, e.phase));
                assert!(prior.is_none(), "{case}: flow {} sent twice", e.value);
            }
            let mut resolved = HashMap::new();
            for e in events.iter().filter(|e| e.kind == EventKind::FlowRecv) {
                let &(lamport, cycle, phase) = sends
                    .get(&e.value)
                    .unwrap_or_else(|| panic!("{case}: flow {} has no send", e.value));
                assert!(
                    lamport < e.lamport,
                    "{case}: flow {} received first",
                    e.value
                );
                assert_eq!(
                    (cycle, phase),
                    (e.cycle, e.phase),
                    "{case}: flow {}",
                    e.value
                );
                assert!(
                    resolved.insert(e.value, phase).is_none(),
                    "{case}: flow {} received twice",
                    e.value
                );
            }
            let s = gc.stats();
            if src.contains("let rec") {
                assert!(gc.sys.stats.wait_cycles > 0, "{case}");
                assert!(s.cycles > 2 && s.mt_cycles == s.cycles, "{case}: {s:?}");
            }
            let mark_events = s.mark_events_total;
            assert_eq!(resolved.len() as u64, mark_events, "{case}");
            for phase in [Phase::Mt, Phase::Mr] {
                assert!(resolved.values().any(|&p| p == phase), "{case}: {phase:?}");
            }
        }
    }
}
