//! Post-mortem flight recorder: dump the tail of the event ring, a
//! metrics snapshot and the in-flight message set to a JSON file when an
//! invariant check is about to panic.
//!
//! The dump takes plain slices and snapshots, so it works even when the
//! registry records nothing — the in-flight set comes from the simulator,
//! not from telemetry. The `events` array embeds one event object **per
//! line** in exactly the schema of [`events_jsonl`], so `dgr-trace` reads
//! a flight file with the same line parser it uses for event streams.

use std::fs;
use std::io;
use std::path::PathBuf;

use crate::ids::CounterId;
use crate::metrics::MetricsSnapshot;
use crate::ring::Event;
use crate::sched::SchedState;
use crate::trace::{events_jsonl, json_escape};

/// Environment variable naming the directory flight dumps land in
/// (current directory when unset).
pub const FLIGHT_DIR_ENV: &str = "DGR_FLIGHT_DIR";

/// Renders a flight dump as a JSON string.
///
/// `reason` is the panic message about to fire, `pe` the PE the
/// violation was observed on, `dropped` the number of events lost to
/// ring wraparound before the dump, and `in_flight` the debug rendering
/// of every undelivered message.
pub fn flight_json(
    reason: &str,
    pe: u16,
    events: &[Event],
    dropped: u64,
    snapshot: &MetricsSnapshot,
    in_flight: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"reason\": \"{}\",\n", json_escape(reason)));
    out.push_str(&format!("  \"pe\": {pe},\n"));
    out.push_str(&format!("  \"dropped_events\": {dropped},\n"));

    out.push_str("  \"counters\": [\n");
    for (i, shard) in snapshot.per_pe.iter().enumerate() {
        let fields: Vec<String> = CounterId::ALL
            .iter()
            .map(|&id| format!("\"{}\": {}", id.name(), shard.counter(id)))
            .collect();
        out.push_str(&format!(
            "    {{\"pe\": {}, {}}}{}\n",
            i,
            fields.join(", "),
            if i + 1 < snapshot.per_pe.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ],\n");

    // What each PE's scheduler was doing when the dump fired, with its
    // state clock — the first thing to read on a stall incident.
    out.push_str("  \"sched\": [\n");
    for (i, shard) in snapshot.per_pe.iter().enumerate() {
        let sched = shard.sched();
        let state = sched.current.map(|s| s.name()).unwrap_or("idle");
        let fields: Vec<String> = SchedState::ALL
            .iter()
            .map(|&s| format!("\"{}_ns\": {}", s.name(), sched.state_ns(s)))
            .collect();
        out.push_str(&format!(
            "    {{\"pe\": {}, \"state\": \"{}\", \"span_ns\": {}, {}}}{}\n",
            i,
            state,
            sched.span_ns,
            fields.join(", "),
            if i + 1 < snapshot.per_pe.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"in_flight\": [\n");
    for (i, m) in in_flight.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\"{}\n",
            json_escape(m),
            if i + 1 < in_flight.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");

    // One event object per line, jsonl schema, comma-terminated except
    // the last — `dgr-trace` strips the trailing comma per line.
    out.push_str("  \"events\": [\n");
    let jsonl = events_jsonl(events);
    let lines: Vec<&str> = jsonl.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            line,
            if i + 1 < lines.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Where a dump for `pe` goes: `$DGR_FLIGHT_DIR/flight-<pe>.json`, or
/// `./flight-<pe>.json` when the variable is unset.
pub fn flight_path(pe: u16) -> PathBuf {
    let dir = std::env::var(FLIGHT_DIR_ENV).unwrap_or_default();
    let mut p = if dir.is_empty() {
        PathBuf::new()
    } else {
        PathBuf::from(dir)
    };
    p.push(format!("flight-{pe}.json"));
    p
}

/// Renders and writes a flight dump, returning the path written.
///
/// Never panics: a dump is taken on the way into a panic, so IO errors
/// are returned for the caller to report (or ignore) rather than
/// masking the original failure.
pub fn write_flight(
    reason: &str,
    pe: u16,
    events: &[Event],
    dropped: u64,
    snapshot: &MetricsSnapshot,
    in_flight: &[String],
) -> io::Result<PathBuf> {
    let path = flight_path(pe);
    fs::write(
        &path,
        flight_json(reason, pe, events, dropped, snapshot, in_flight),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Phase;
    use crate::ring::EventKind;

    fn ev(ts: u64, kind: EventKind, flow: u64) -> Event {
        Event {
            ts_us: ts,
            pe: 0,
            cycle: 1,
            phase: Phase::Mr,
            kind,
            name: "M_R",
            value: flow,
            lamport: flow,
        }
    }

    #[test]
    fn flight_json_embeds_events_in_jsonl_schema() {
        let events = [ev(1, EventKind::FlowSend, 7), ev(2, EventKind::FlowRecv, 7)];
        let snap = MetricsSnapshot {
            per_pe: vec![Default::default(); 2],
        };
        let s = flight_json(
            "bad \"state\"",
            1,
            &events,
            3,
            &snap,
            &["Mark1 { v: 4 }".to_string()],
        );
        assert!(s.contains("\"reason\": \"bad \\\"state\\\"\""));
        assert!(s.contains("\"pe\": 1,"));
        assert!(s.contains("\"dropped_events\": 3"));
        assert!(s.contains("\"Mark1 { v: 4 }\""));
        // Embedded events match the jsonl line schema, one per line.
        let line = s
            .lines()
            .find(|l| l.contains("\"kind\": \"flow_send\""))
            .expect("send event embedded");
        let bare = line.trim().trim_end_matches(',');
        assert_eq!(
            bare,
            events_jsonl(&events[..1]).trim_end(),
            "a flight event line is a jsonl line"
        );
        // Every PE shard got a counters row.
        assert!(s.contains("{\"pe\": 0, "));
        assert!(s.contains("{\"pe\": 1, "));
    }

    #[test]
    fn flight_json_reports_last_known_scheduler_states() {
        let mut shard = crate::metrics::PeSnapshot::default();
        let mut sched = crate::sched::PeSchedSnapshot::default();
        sched.ns[SchedState::Park.index()] = 500;
        sched.current = Some(SchedState::Park);
        sched.span_ns = 500;
        shard.set_sched(sched);
        let snap = MetricsSnapshot {
            per_pe: vec![Default::default(), shard],
        };
        let s = flight_json("stall", 0, &[], 0, &snap, &[]);
        // PE 1 was parked when the dump fired; PE 0 never recorded.
        assert!(s.contains("\"state\": \"park\""), "got: {s}");
        assert!(s.contains("\"state\": \"idle\""));
        assert!(s.contains("\"park_ns\": 500"));
        assert!(s.contains("\"span_ns\": 500"));
        assert!(s.contains("\"work_ns\": 0"));
    }

    /// One test covers both the default path and the env override so
    /// the env mutation cannot race a parallel test reading it.
    #[test]
    fn write_flight_round_trips_to_disk() {
        assert_eq!(
            flight_path(4),
            PathBuf::from("flight-4.json"),
            "bare filename when the env var is unset"
        );
        let dir = std::env::temp_dir().join("dgr-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var(FLIGHT_DIR_ENV, &dir);
        let snap = MetricsSnapshot::default();
        let path = write_flight("r", 2, &[], 0, &snap, &[]).unwrap();
        std::env::remove_var(FLIGHT_DIR_ENV);
        assert!(path.ends_with("flight-2.json"));
        assert!(path.starts_with(&dir), "env dir is honored");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\n"));
        assert!(body.contains("\"in_flight\": ["));
        std::fs::remove_file(&path).ok();
    }
}
