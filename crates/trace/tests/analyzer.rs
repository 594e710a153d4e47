//! End-to-end: events generated through the recording (`On`) telemetry
//! registry, rendered to both on-disk formats, parsed back and analyzed.
//! Naming the `On` instantiation leaves the workspace's telemetry feature
//! untouched.

type Registry = dgr_telemetry::Registry<dgr_telemetry::On>;
use dgr_telemetry::{events_jsonl, flight_json, Phase};
use dgr_trace::{analyze, critical_paths, match_flows, parse_events, Kind};

/// Drives a small two-cycle marking wave: PE 0 fans out to PEs 1..4,
/// each delivery triggers one forward to the next PE.
fn record_wave(reg: &Registry) {
    for cycle in 1..=2u32 {
        let phase = if cycle == 1 { Phase::Mt } else { Phase::Mr };
        let name = phase.name();
        for dst in 1..4u64 {
            let flow = u64::from(cycle) * 100 + dst;
            reg.flow_send(0, cycle, phase, name, flow);
        }
        for dst in 1..4u16 {
            let flow = u64::from(cycle) * 100 + u64::from(dst);
            reg.flow_recv(dst, cycle, phase, name, flow);
            // Each delivery forwards once, extending the causal chain.
            let fwd = flow + 10;
            reg.flow_send(dst, cycle, phase, name, fwd);
            reg.flow_recv(dst % 3 + 1, cycle, phase, name, fwd);
        }
    }
}

#[test]
fn jsonl_round_trip_preserves_every_flow_event() {
    let reg = Registry::with_pes(4);
    record_wave(&reg);
    let events = reg.drain_events();
    let parsed = parse_events(&events_jsonl(&events));
    assert_eq!(parsed.len(), events.len(), "every event parses back");
    for (orig, back) in events.iter().zip(&parsed) {
        assert_eq!(back.ts_us, orig.ts_us);
        assert_eq!(back.pe, orig.pe);
        assert_eq!(back.cycle, orig.cycle);
        assert_eq!(back.value, orig.value);
        assert_eq!(back.lamport, orig.lamport);
        assert_eq!(back.kind.name(), orig.kind.name());
    }
    let graph = match_flows(&parsed);
    assert_eq!(graph.edges.len(), 12, "6 flows per cycle, 2 cycles");
    assert_eq!(graph.orphan_sends, 0);
    assert_eq!(graph.orphan_recvs, 0);
}

#[test]
fn critical_path_span_never_exceeds_cycle_wall_clock() {
    let reg = Registry::with_pes(4);
    record_wave(&reg);
    let parsed = parse_events(&events_jsonl(&reg.drain_events()));
    let paths = critical_paths(&match_flows(&parsed));
    assert_eq!(paths.len(), 2, "one critical path per cycle");
    for p in &paths {
        assert!(p.hops >= 1, "cycle {} chains at least one hop", p.cycle);
        assert!(
            p.span_us <= p.wall_us,
            "cycle {}: summed span {}us exceeds wall-clock {}us",
            p.cycle,
            p.span_us,
            p.wall_us
        );
        let hop_sum: u64 = p.path.iter().map(|h| h.duration_us()).sum();
        assert_eq!(p.span_us, hop_sum, "span is the sum of its hops");
        // Hops telescope: each departs at or after its parent arrived.
        for pair in p.path.windows(2) {
            assert!(pair[0].recv_ts <= pair[1].send_ts, "hops overlap");
            assert_eq!(pair[0].recv_pe, pair[1].send_pe, "chain changes PE");
        }
    }
}

#[test]
fn flight_dump_parses_like_the_jsonl_it_embeds() {
    let reg = Registry::with_pes(4);
    record_wave(&reg);
    let events = reg.drain_events();
    let dump = flight_json(
        "invariant violation on PE 1: test",
        1,
        &events,
        0,
        &reg.snapshot(),
        &["pe=0 lane=Marking MarkMsg".to_string()],
    );
    let from_flight = parse_events(&dump);
    let from_jsonl = parse_events(&events_jsonl(&events));
    assert_eq!(
        from_flight, from_jsonl,
        "flight dump and jsonl parse to the same stream"
    );
    let run = analyze(&from_flight);
    assert_eq!(run.summary.flows, 12);
    assert!(run.summary.by_kind[Kind::FlowSend.name()] > 0);
}

#[test]
fn fanout_splits_mt_and_mr_phases() {
    let reg = Registry::with_pes(4);
    record_wave(&reg);
    let parsed = parse_events(&events_jsonl(&reg.drain_events()));
    let run = analyze(&parsed);
    // Cycle 1 traffic is tagged M_T, cycle 2 M_R; both phases show up
    // with the same shape: a root burst of 3 plus three single forwards.
    for phase in ["M_T", "M_R"] {
        let hist = run
            .fanout
            .per_phase
            .get(phase)
            .unwrap_or_else(|| panic!("{phase} histogrammed"));
        assert_eq!(hist.get(&3), Some(&1), "{phase}: one root burst of 3");
        assert_eq!(hist.get(&1), Some(&3), "{phase}: three single forwards");
    }
}
