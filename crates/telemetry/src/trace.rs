//! Exporters for drained events: JSONL and Chrome `trace_event`.
//!
//! JSON is rendered by hand — the workspace takes no serialization
//! dependency, and the formats here are small and fixed. The Chrome format
//! is the "JSON Object Format" understood by `chrome://tracing` and Perfetto:
//! a `traceEvents` array of `B`/`E`/`i` records, with the PE mapped to
//! the thread id so each PE renders as one flame-graph track.

use crate::ring::{Event, EventKind};

/// Escapes a string for inclusion in a JSON string literal (shared by
/// every hand-rolled JSON renderer in the workspace, `dgr-observe`'s
/// `/status` endpoint included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders events as JSON Lines: one event object per line, in input
/// order.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"ts_us\": {}, \"pe\": {}, \"cycle\": {}, \"phase\": \"{}\", \
             \"kind\": \"{}\", \"name\": \"{}\", \"value\": {}, \"lamport\": {}}}\n",
            e.ts_us,
            e.pe,
            e.cycle,
            e.phase.name(),
            e.kind.name(),
            json_escape(e.name),
            e.value,
            e.lamport,
        ));
    }
    out
}

/// Renders events in Chrome `trace_event` JSON Object Format.
///
/// Events are stably sorted by timestamp (the loader requires
/// monotonically non-decreasing `ts` per track; stability preserves
/// begin/end nesting at equal timestamps). Spans become `B`/`E` pairs and
/// instants become `i` records scoped to their thread; `pid` is 0 and
/// `tid` is the PE id. Flow sends/receives become `s`/`f` flow events
/// keyed by flow id, all under the single category `flow` (Perfetto links
/// the two ends by `(cat, id)`, so both must use the same category even
/// when the send and delivery happened in different phases); the `f` end
/// carries `"bp": "e"` so the arrow binds to the enclosing slice.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_us);
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, e) in sorted.iter().enumerate() {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::FlowSend => "s",
            EventKind::FlowRecv => "f",
        };
        let extra = match e.kind {
            EventKind::Instant => ", \"s\": \"t\"".to_string(),
            EventKind::FlowSend => format!(", \"id\": {}", e.value),
            EventKind::FlowRecv => format!(", \"bp\": \"e\", \"id\": {}", e.value),
            _ => String::new(),
        };
        let cat = match e.kind {
            EventKind::FlowSend | EventKind::FlowRecv => "flow",
            _ => e.phase.name(),
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \
             \"pid\": 0, \"tid\": {}{}, \"args\": {{\"cycle\": {}, \"value\": {}}}}}{}\n",
            json_escape(e.name),
            cat,
            ph,
            e.ts_us,
            e.pe,
            extra,
            e.cycle,
            e.value,
            if i + 1 < sorted.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Phase;

    fn ev(ts: u64, pe: u16, kind: EventKind, name: &'static str) -> Event {
        Event {
            ts_us: ts,
            pe,
            cycle: 3,
            phase: Phase::Mr,
            kind,
            name,
            value: 5,
            lamport: 0,
        }
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let evs = [
            ev(1, 0, EventKind::Begin, "M_R"),
            ev(2, 0, EventKind::End, "M_R"),
        ];
        let s = events_jsonl(&evs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with(
            "{\"ts_us\": 1, \"pe\": 0, \"cycle\": 3, \"phase\": \"M_R\", \
             \"kind\": \"begin\", \"name\": \"M_R\", \"value\": 5, \"lamport\": 0}"
        ));
    }

    #[test]
    fn chrome_trace_links_flow_ends_by_id_under_one_category() {
        let mut send = ev(2, 0, EventKind::FlowSend, "M_R");
        send.value = 41;
        send.lamport = 1;
        let mut recv = ev(5, 1, EventKind::FlowRecv, "M_R");
        recv.value = 41;
        recv.lamport = 2;
        let s = chrome_trace_json(&[send, recv]);
        assert!(s.contains("\"cat\": \"flow\", \"ph\": \"s\""));
        assert!(s.contains("\"cat\": \"flow\", \"ph\": \"f\""));
        assert!(
            s.contains("\"bp\": \"e\", \"id\": 41"),
            "f end binds enclosing"
        );
        assert_eq!(s.matches("\"id\": 41").count(), 2, "both ends share the id");
        assert!(
            !s.contains("\"cat\": \"M_R\""),
            "flows never use the phase cat"
        );
    }

    #[test]
    fn chrome_trace_sorts_by_ts_and_scopes_instants() {
        let evs = [
            ev(9, 1, EventKind::Instant, "late"),
            ev(1, 0, EventKind::Begin, "span"),
            ev(4, 0, EventKind::End, "span"),
        ];
        let s = chrome_trace_json(&evs);
        let b = s.find("\"ph\": \"B\"").unwrap();
        let e = s.find("\"ph\": \"E\"").unwrap();
        let i = s.find("\"ph\": \"i\"").unwrap();
        assert!(b < e && e < i, "records ordered by ts");
        assert!(s.contains("\"s\": \"t\""), "instants carry a scope");
        assert!(s.contains("\"tid\": 1"), "pe becomes the thread id");
    }

    #[test]
    fn escaping_is_applied() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
