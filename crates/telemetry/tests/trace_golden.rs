//! Golden-file pins for the exporters. The Chrome trace is loaded by
//! external tools (`chrome://tracing`, Perfetto) and the timeline JSON by
//! the perf-trajectory tooling, so their exact byte shape is contract:
//! any change here is a deliberate format revision, not an accident.

use dgr_telemetry::active::Registry;
use dgr_telemetry::{chrome_trace_json, timeline_json, CycleReport, Event, EventKind, Phase};

fn ev(ts_us: u64, pe: u16, kind: EventKind, name: &'static str, value: u64) -> Event {
    Event {
        ts_us,
        pe,
        cycle: 7,
        phase: Phase::Mt,
        kind,
        name,
        value,
        lamport: 0,
    }
}

#[test]
fn chrome_trace_golden() {
    let evs = [
        ev(3, 1, EventKind::Instant, "bsp_round", 12),
        ev(1, 0, EventKind::Begin, "M_T", 0),
        ev(5, 0, EventKind::End, "M_T", 0),
    ];
    let got = chrome_trace_json(&evs);
    let want = concat!(
        "{\"traceEvents\": [\n",
        "  {\"name\": \"M_T\", \"cat\": \"M_T\", \"ph\": \"B\", \"ts\": 1, ",
        "\"pid\": 0, \"tid\": 0, \"args\": {\"cycle\": 7, \"value\": 0}},\n",
        "  {\"name\": \"bsp_round\", \"cat\": \"M_T\", \"ph\": \"i\", \"ts\": 3, ",
        "\"pid\": 0, \"tid\": 1, \"s\": \"t\", \"args\": {\"cycle\": 7, \"value\": 12}},\n",
        "  {\"name\": \"M_T\", \"cat\": \"M_T\", \"ph\": \"E\", \"ts\": 5, ",
        "\"pid\": 0, \"tid\": 0, \"args\": {\"cycle\": 7, \"value\": 0}}\n",
        "]}\n",
    );
    assert_eq!(got, want);
}

/// Flow events render as `s`/`f` pairs linked by `(cat, id)` — the byte
/// shape Perfetto resolves arrows from.
#[test]
fn chrome_trace_flow_golden() {
    let mut send = ev(2, 0, EventKind::FlowSend, "M_R", 9);
    send.lamport = 1;
    let mut recv = ev(6, 1, EventKind::FlowRecv, "M_R", 9);
    recv.lamport = 2;
    let got = chrome_trace_json(&[send, recv]);
    let want = concat!(
        "{\"traceEvents\": [\n",
        "  {\"name\": \"M_R\", \"cat\": \"flow\", \"ph\": \"s\", \"ts\": 2, ",
        "\"pid\": 0, \"tid\": 0, \"id\": 9, \"args\": {\"cycle\": 7, \"value\": 9}},\n",
        "  {\"name\": \"M_R\", \"cat\": \"flow\", \"ph\": \"f\", \"ts\": 6, ",
        "\"pid\": 0, \"tid\": 1, \"bp\": \"e\", \"id\": 9, \"args\": {\"cycle\": 7, \"value\": 9}}\n",
        "]}\n",
    );
    assert_eq!(got, want);
}

/// Every `E` must close the most recent unclosed `B` with the same name
/// on the same track, and every `f` must resolve a previously-emitted
/// `s` with the same flow id — checked over a trace produced by real
/// (nested, multi-PE) span guards and flow events on the always-compiled
/// active registry.
#[test]
fn chrome_trace_begin_end_pairs_match() {
    let reg = Registry::new(3);
    {
        let _cycle = reg.span(0, 1, Phase::Gc, "cycle");
        {
            let _mr = reg.span(0, 1, Phase::Mr, "M_R");
            reg.instant(1, 1, Phase::Mr, "wave", 4);
            reg.flow_send(0, 1, Phase::Mr, "mark", 1);
            reg.flow_recv(1, 1, Phase::Mr, "mark", 1);
        }
        let _classify = reg.span(2, 1, Phase::Classify, "restructure");
    }
    let events = reg.drain_events();
    let trace = chrome_trace_json(&events);

    // Replay the trace records in order: one span stack per tid, one
    // outstanding-flow set for the whole trace.
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = std::collections::HashMap::new();
    let mut open_flows: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut records = 0;
    for line in trace.lines() {
        let Some(name) = field(line, "\"name\": \"", '"') else {
            continue;
        };
        records += 1;
        let tid: u64 = field(line, "\"tid\": ", ',').unwrap().parse().unwrap();
        let ph = field(line, "\"ph\": \"", '"').unwrap();
        match ph.as_str() {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => assert_eq!(
                stacks.entry(tid).or_default().pop().as_ref(),
                Some(&name),
                "E closes the innermost open B on its track"
            ),
            "i" => {}
            "s" => {
                let id = field(line, "\"id\": ", ',').unwrap();
                assert!(open_flows.insert(id), "flow ids are not reused");
            }
            "f" => {
                let id = field(line, "\"id\": ", ',').unwrap();
                assert!(open_flows.remove(&id), "f resolves a prior s");
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert_eq!(records, events.len(), "every event rendered");
    assert!(
        stacks.values().all(Vec::is_empty),
        "no span left open: {stacks:?}"
    );
    assert!(
        open_flows.is_empty(),
        "no flow left dangling: {open_flows:?}"
    );
}

fn field(line: &str, key: &str, term: char) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find(term).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

#[test]
fn timeline_json_golden() {
    let reports = [
        CycleReport {
            cycle: 1,
            ran_mt: true,
            mt_us: 10,
            mr_us: 20,
            marked_t: 2,
            marked_by_priority: [1, 0, 3],
            ..Default::default()
        },
        CycleReport {
            cycle: 2,
            ..Default::default()
        },
    ];
    let got = timeline_json(&reports);
    assert!(got.starts_with("[\n"), "array opening: {got:?}");
    assert!(got.trim_end().ends_with(']'), "array closing");
    assert_eq!(
        got.matches("{\"cycle\":").count(),
        2,
        "one object per cycle"
    );
    // The first record round-trips through the single-report renderer —
    // the schema is pinned field-by-field in the cycle module's tests.
    assert!(got.contains(&reports[0].render_json()));
    assert!(got.contains("\"marked_by_priority\": [1, 0, 3]"));
}
