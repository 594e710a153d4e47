//! dgr-trace: offline analyzer for dgr-telemetry event streams.
//!
//! Input is either the JSON Lines file a bench run writes
//! (`BENCH_telemetry_events.jsonl`) or a flight-recorder dump
//! (`flight-<pe>.json`), whose `events` array embeds one event per line
//! in the same schema. The parser is line-oriented and tolerant: it
//! picks out every line that looks like an event object and ignores the
//! surrounding JSON scaffolding, so both formats — and truncated files —
//! parse without a real JSON library.
//!
//! From the parsed stream the analyzer reconstructs the per-cycle
//! marking-wave DAG out of `flow_send`/`flow_recv` pairs (matched by
//! flow id), then derives:
//!
//! * [`critical_paths`] — the longest causal chain of message hops per
//!   cycle: summed in-flight time, hop count, and per-PE residency.
//!   Consecutive hops never overlap in time (a hop departs only after
//!   its causal parent arrived), so the summed span is at most the
//!   cycle's wall-clock extent.
//! * [`fanout`] — how many sends each delivery causally triggered,
//!   histogrammed per phase (`M_T` vs `M_R`), which shows the shape of
//!   the marking wave: wide and shallow or narrow and deep.
//! * [`summarize`] / [`diff_text`] — whole-run statistics and an A/B
//!   comparison between two runs.
//! * ledger folds — one loop rebuilds any `dgr_telemetry` [`Ledger`] from
//!   the instants a run emitted it as; the three reports below are that
//!   loop plus their text:
//!   * [`blame`] — speedup-gap attribution: the per-PE `sched_*` state
//!     clocks the work-stealing runtime emits, split into per-PE time
//!     breakdowns and a dominant gap cause (load imbalance, steal
//!     overhead, mailbox delay, parking, or true span limit).
//!   * [`lifecycle`] — vertex-lifecycle reconstruction: the per-cycle
//!     `lc_*` float/latency/message-cost ledgers the GC driver closes each
//!     cycle with, and the worst-floater list.
//!   * [`heap`] — heap-pressure reconstruction: the per-cycle `hp_*`
//!     live/peak/trigger-cause ledgers.

use std::collections::BTreeMap;

/// Event kinds, by the `kind` strings `dgr_telemetry` emits.
pub use dgr_telemetry::EventKind as Kind;
use dgr_telemetry::Ledger;

pub mod blame;
pub use blame::{attribution, blame, blame_text, Attribution, BlameReport, SpanSource};
pub mod heap;
pub use heap::{heap, heap_text, HeapReport};
pub mod lifecycle;
pub use lifecycle::{lifecycle, lifecycle_text, LifecycleReport};

/// One event parsed back from a JSON Lines stream or flight dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Microseconds since the registry was created.
    pub ts_us: u64,
    /// Emitting (for sends: stamping) PE.
    pub pe: u16,
    /// Marking cycle the event belongs to (0 outside a cycle).
    pub cycle: u32,
    /// Phase tag (`M_T`, `M_R`, `classify`, `mutate`, `gc`).
    pub phase: String,
    /// What happened.
    pub kind: Kind,
    /// Site label (e.g. `M_T`, `M_R`, `msg`, `cycle`).
    pub name: String,
    /// Payload; for flow events this is the flow id.
    pub value: u64,
    /// Lamport timestamp at the emitting site.
    pub lamport: u64,
}

/// Extracts an unsigned integer field `"key": 123` from a JSON-ish line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts a string field `"key": "val"` from a JSON-ish line. Handles
/// the escapes our writers produce (`\"`, `\\`); stops at the closing
/// quote.
fn json_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start().strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            other => out.push(other),
        }
    }
    None
}

/// Parses every event-shaped line in `text`, ignoring everything else.
///
/// A line qualifies if (after trimming whitespace and a trailing comma)
/// it is an object that carries `ts_us`, a known `kind`, and a `pe` —
/// exactly what both the JSONL writer and the flight recorder's embedded
/// `events` array produce. Malformed or foreign lines are skipped, so a
/// truncated dump still yields its intact prefix.
pub fn parse_events(text: &str) -> Vec<ParsedEvent> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ts_us\"") {
            continue;
        }
        let (Some(ts_us), Some(pe), Some(kind)) = (
            json_u64(line, "ts_us"),
            json_u64(line, "pe"),
            json_str(line, "kind").and_then(|k| Kind::parse(&k)),
        ) else {
            continue;
        };
        out.push(ParsedEvent {
            ts_us,
            pe: pe as u16,
            cycle: json_u64(line, "cycle").unwrap_or(0) as u32,
            phase: json_str(line, "phase").unwrap_or_default(),
            kind,
            name: json_str(line, "name").unwrap_or_default(),
            value: json_u64(line, "value").unwrap_or(0),
            lamport: json_u64(line, "lamport").unwrap_or(0),
        });
    }
    out
}

/// Rebuilds `key → ledger` from the instants a run emitted `L` as
/// (`Registry::emit`): every instant is offered to the ledger its
/// `(pe, cycle)` opens, which files it by name and combines repeats by
/// its own rule ([`Ledger::combine`]). Keys no instant of `L` touched
/// get no entry.
pub(crate) fn fold<L: Ledger>(events: &[ParsedEvent]) -> BTreeMap<u64, L> {
    let mut ledgers: BTreeMap<u64, L> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == Kind::Instant) {
        let (key, mut fresh) = L::open(e.pe, e.cycle);
        match ledgers.get_mut(&key) {
            Some(ledger) => {
                ledger.absorb(&e.name, e.value);
            }
            None => {
                if fresh.absorb(&e.name, e.value) {
                    ledgers.insert(key, fresh);
                }
            }
        }
    }
    ledgers
}

/// One resolved message hop: a `flow_send` matched to its `flow_recv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    /// Flow id shared by both endpoints.
    pub id: u64,
    /// Cycle stamped on the send.
    pub cycle: u32,
    /// Phase of the send (`M_T` or `M_R` for marking traffic).
    pub phase: String,
    /// Site label of the send.
    pub name: String,
    /// PE that stamped the send.
    pub send_pe: u16,
    /// Timestamp of the send.
    pub send_ts: u64,
    /// PE that resolved the flow.
    pub recv_pe: u16,
    /// Timestamp of the delivery.
    pub recv_ts: u64,
}

impl FlowEdge {
    /// In-flight time of this hop in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.recv_ts.saturating_sub(self.send_ts)
    }
}

/// The matched wave DAG plus the endpoints that failed to pair up.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    /// Send/recv pairs, in recv order.
    pub edges: Vec<FlowEdge>,
    /// Sends with no recorded delivery (still in flight at the dump, or
    /// the delivery fell off the ring).
    pub orphan_sends: usize,
    /// Deliveries whose send was overwritten in the bounded ring.
    pub orphan_recvs: usize,
}

/// Pairs `flow_send` with `flow_recv` events by flow id.
///
/// Two passes, because an event stream drained from per-PE rings is
/// concatenated per PE, not globally time-ordered — a delivery can
/// appear in the stream before its send.
pub fn match_flows(events: &[ParsedEvent]) -> FlowGraph {
    let mut sends: BTreeMap<u64, &ParsedEvent> = BTreeMap::new();
    for e in events {
        if e.kind == Kind::FlowSend {
            sends.insert(e.value, e);
        }
    }
    let mut edges = Vec::new();
    let mut orphan_recvs = 0usize;
    for e in events {
        if e.kind != Kind::FlowRecv {
            continue;
        }
        match sends.remove(&e.value) {
            Some(s) => edges.push(FlowEdge {
                id: e.value,
                cycle: s.cycle,
                phase: s.phase.clone(),
                name: s.name.clone(),
                send_pe: s.pe,
                send_ts: s.ts_us,
                recv_pe: e.pe,
                recv_ts: e.ts_us,
            }),
            None => orphan_recvs += 1,
        }
    }
    edges.sort_by_key(|e| (e.recv_ts, e.id));
    FlowGraph {
        orphan_sends: sends.len(),
        orphan_recvs,
        edges,
    }
}

/// The longest causal chain of hops within one cycle.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Cycle the chain belongs to.
    pub cycle: u32,
    /// Summed in-flight time along the chain, microseconds. Hops on a
    /// chain never overlap (each departs after its parent arrived), so
    /// this is bounded by [`CriticalPath::wall_us`].
    pub span_us: u64,
    /// Number of hops on the chain.
    pub hops: usize,
    /// The hops in causal order.
    pub path: Vec<FlowEdge>,
    /// Per-PE share of `span_us`, attributed to the receiving PE of
    /// each hop (where the wave spent its time arriving).
    pub residency: BTreeMap<u16, u64>,
    /// Wall-clock extent of the cycle's flow activity: last delivery
    /// minus first send.
    pub wall_us: u64,
}

/// Computes the critical path of every cycle in the wave DAG.
///
/// A hop's causal parent is the chain ending in the latest delivery on
/// the hop's sending PE at or before the hop departed, within the same
/// cycle — the delivery whose handler (transitively) emitted the send.
/// Chains therefore telescope in time and the summed span cannot exceed
/// the cycle's wall-clock extent.
pub fn critical_paths(graph: &FlowGraph) -> Vec<CriticalPath> {
    let mut by_cycle: BTreeMap<u32, Vec<&FlowEdge>> = BTreeMap::new();
    for e in &graph.edges {
        by_cycle.entry(e.cycle).or_default().push(e);
    }
    let mut out = Vec::new();
    for (cycle, edges) in by_cycle {
        // edges arrive sorted by recv_ts (match_flows sorts); chain[i]
        // is the best summed span of any causal chain ending at edge i.
        let n = edges.len();
        let mut chain = vec![0u64; n];
        let mut prev = vec![usize::MAX; n];
        for i in 0..n {
            let mut best = 0u64;
            for j in 0..i {
                if edges[j].recv_pe == edges[i].send_pe
                    && edges[j].recv_ts <= edges[i].send_ts
                    && chain[j] > best
                {
                    best = chain[j];
                    prev[i] = j;
                }
            }
            chain[i] = best + edges[i].duration_us();
        }
        let Some(end) = (0..n).max_by_key(|&i| (chain[i], edges[i].recv_ts)) else {
            continue;
        };
        let mut path = Vec::new();
        let mut at = end;
        loop {
            path.push(edges[at].clone());
            if prev[at] == usize::MAX {
                break;
            }
            at = prev[at];
        }
        path.reverse();
        let mut residency = BTreeMap::new();
        for hop in &path {
            *residency.entry(hop.recv_pe).or_insert(0) += hop.duration_us();
        }
        let wall_us = edges
            .iter()
            .map(|e| e.recv_ts)
            .max()
            .unwrap_or(0)
            .saturating_sub(edges.iter().map(|e| e.send_ts).min().unwrap_or(0));
        out.push(CriticalPath {
            cycle,
            span_us: chain[end],
            hops: path.len(),
            path,
            residency,
            wall_us,
        });
    }
    out
}

/// Fan-out shape of the marking wave.
#[derive(Debug, Clone, Default)]
pub struct FanoutReport {
    /// Phase name → (sends triggered by one delivery → occurrences).
    pub per_phase: BTreeMap<String, BTreeMap<usize, u64>>,
    /// Root groups: injection bursts with no causal parent delivery
    /// (e.g. the driver seeding PE 0).
    pub roots: u64,
}

impl FanoutReport {
    /// Mean fan-out for one phase, if it appeared at all.
    pub fn mean(&self, phase: &str) -> Option<f64> {
        let hist = self.per_phase.get(phase)?;
        let (mut total, mut groups) = (0u64, 0u64);
        for (&count, &occ) in hist {
            total += count as u64 * occ;
            groups += occ;
        }
        (groups > 0).then(|| total as f64 / groups as f64)
    }
}

/// Groups every `flow_send` under its causal parent `flow_recv` (the
/// latest delivery on the same PE, same cycle, at or before the send)
/// and histograms the group sizes per phase of the sends. Parentless
/// sends on a PE form that PE's root group for the cycle.
pub fn fanout(events: &[ParsedEvent]) -> FanoutReport {
    // Group key: Some(index of the parent recv event) or None+(pe,cycle)
    // for roots. Last delivery per (pe, cycle) is tracked while scanning
    // in timestamp order.
    let mut order: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, Kind::FlowSend | Kind::FlowRecv))
        .collect();
    order.sort_by_key(|e| e.ts_us);
    let mut last_recv: BTreeMap<(u16, u32), usize> = BTreeMap::new();
    // (group key, phase) → child count; roots keyed by pe with usize::MAX marker.
    let mut groups: BTreeMap<(usize, u16, String), usize> = BTreeMap::new();
    let mut root_keys: BTreeMap<(u16, u32), ()> = BTreeMap::new();
    for (i, e) in order.iter().enumerate() {
        match e.kind {
            Kind::FlowRecv => {
                last_recv.insert((e.pe, e.cycle), i);
            }
            Kind::FlowSend => {
                let parent = last_recv.get(&(e.pe, e.cycle)).copied();
                let key = match parent {
                    Some(p) => (p, e.pe, e.phase.clone()),
                    None => {
                        root_keys.insert((e.pe, e.cycle), ());
                        (usize::MAX - e.cycle as usize, e.pe, e.phase.clone())
                    }
                };
                *groups.entry(key).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    let mut report = FanoutReport {
        roots: root_keys.len() as u64,
        ..Default::default()
    };
    for ((_, _, phase), count) in groups {
        *report
            .per_phase
            .entry(phase)
            .or_default()
            .entry(count)
            .or_insert(0) += 1;
    }
    report
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Total parsed events.
    pub events: usize,
    /// Event count per kind name.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Event count per phase tag.
    pub by_phase: BTreeMap<String, u64>,
    /// Distinct PEs seen.
    pub pes: usize,
    /// Distinct cycles seen on flow events.
    pub cycles: usize,
    /// First and last timestamp, microseconds.
    pub ts_range: (u64, u64),
    /// Largest Lamport timestamp in the stream.
    pub max_lamport: u64,
    /// Matched flow edges.
    pub flows: usize,
    /// Sends with no delivery on record.
    pub orphan_sends: usize,
    /// Deliveries with no send on record.
    pub orphan_recvs: usize,
}

/// Summarizes a parsed stream (kinds, phases, PEs, flow matching).
pub fn summarize(events: &[ParsedEvent]) -> Summary {
    let graph = match_flows(events);
    let mut s = Summary {
        events: events.len(),
        flows: graph.edges.len(),
        orphan_sends: graph.orphan_sends,
        orphan_recvs: graph.orphan_recvs,
        ..Default::default()
    };
    let mut pes = BTreeMap::new();
    let mut cycles = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        *s.by_kind.entry(e.kind.name()).or_insert(0) += 1;
        *s.by_phase.entry(e.phase.clone()).or_insert(0) += 1;
        pes.insert(e.pe, ());
        if matches!(e.kind, Kind::FlowSend | Kind::FlowRecv) {
            cycles.insert(e.cycle, ());
        }
        s.max_lamport = s.max_lamport.max(e.lamport);
        s.ts_range = if i == 0 {
            (e.ts_us, e.ts_us)
        } else {
            (s.ts_range.0.min(e.ts_us), s.ts_range.1.max(e.ts_us))
        };
    }
    s.pes = pes.len();
    s.cycles = cycles.len();
    s
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders a [`Summary`] as a plain-text report.
pub fn summary_text(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "events: {} over {} PEs, {} cycles, ts {}..{} us, max lamport {}\n",
        s.events, s.pes, s.cycles, s.ts_range.0, s.ts_range.1, s.max_lamport
    ));
    for (kind, n) in &s.by_kind {
        out.push_str(&format!("  kind {kind:<10} {n}\n"));
    }
    for (phase, n) in &s.by_phase {
        out.push_str(&format!("  phase {phase:<9} {n}\n"));
    }
    out.push_str(&format!(
        "flows: {} matched, {} unresolved sends, {} orphan deliveries\n",
        s.flows, s.orphan_sends, s.orphan_recvs
    ));
    out
}

/// Renders per-cycle critical paths as a plain-text report.
pub fn critical_path_text(paths: &[CriticalPath], verbose: bool) -> String {
    let mut out = String::new();
    if paths.is_empty() {
        out.push_str("no flow edges — nothing to chain\n");
        return out;
    }
    out.push_str("cycle  span_us  wall_us  hops  residency (pe:us)\n");
    for p in paths {
        let res: Vec<String> = p
            .residency
            .iter()
            .map(|(pe, us)| format!("{pe}:{us}"))
            .collect();
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>7}  {:>4}  {}\n",
            p.cycle,
            p.span_us,
            p.wall_us,
            p.hops,
            res.join(" ")
        ));
        if verbose {
            for hop in &p.path {
                out.push_str(&format!(
                    "         {} pe{} -> pe{}  {}us  (flow {})\n",
                    hop.name,
                    hop.send_pe,
                    hop.recv_pe,
                    hop.duration_us(),
                    hop.id
                ));
            }
        }
    }
    out
}

/// Renders the fan-out histograms as a plain-text report.
pub fn fanout_text(r: &FanoutReport) -> String {
    let mut out = String::new();
    if r.per_phase.is_empty() {
        out.push_str("no flow sends — nothing to histogram\n");
        return out;
    }
    out.push_str(&format!("root injection groups: {}\n", r.roots));
    for (phase, hist) in &r.per_phase {
        let mean = r.mean(phase).unwrap_or(0.0);
        out.push_str(&format!("phase {phase} (mean fan-out {}):\n", f2(mean)));
        for (count, occ) in hist {
            out.push_str(&format!("  fan-out {count:>3}: {occ}\n"));
        }
    }
    out
}

/// One run, fully analyzed — the unit [`diff_text`] compares.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Whole-run statistics.
    pub summary: Summary,
    /// Per-cycle critical paths.
    pub paths: Vec<CriticalPath>,
    /// Fan-out shape.
    pub fanout: FanoutReport,
}

/// Analyzes a parsed stream end to end.
pub fn analyze(events: &[ParsedEvent]) -> RunStats {
    let graph = match_flows(events);
    RunStats {
        summary: summarize(events),
        paths: critical_paths(&graph),
        fanout: fanout(events),
    }
}

/// Mean of `of` over the paths (0 when there are none).
fn mean(paths: &[CriticalPath], of: fn(&CriticalPath) -> f64) -> f64 {
    if paths.is_empty() {
        return 0.0;
    }
    paths.iter().map(of).sum::<f64>() / paths.len() as f64
}

fn delta_line(label: &str, a: f64, b: f64) -> String {
    let pct = if a.abs() > f64::EPSILON {
        format!("{:+.1}%", (b - a) / a * 100.0)
    } else {
        "n/a".to_string()
    };
    format!("  {label:<24} {:>12} -> {:>12}  {pct}\n", f2(a), f2(b))
}

/// Renders an A/B comparison of two analyzed runs.
pub fn diff_text(label_a: &str, a: &RunStats, label_b: &str, b: &RunStats) -> String {
    let mut out = String::new();
    out.push_str(&format!("diff: {label_a} -> {label_b}\n"));
    let mut row = |label: &str, of: fn(&RunStats) -> f64| {
        out.push_str(&delta_line(label, of(a), of(b)));
    };
    row("events", |r| r.summary.events as f64);
    row("matched flows", |r| r.summary.flows as f64);
    row("cycles", |r| r.summary.cycles as f64);
    row("critical path span us", |r| {
        mean(&r.paths, |p| p.span_us as f64)
    });
    row("critical path hops", |r| mean(&r.paths, |p| p.hops as f64));
    for phase in ["M_T", "M_R"] {
        if a.fanout.per_phase.contains_key(phase) || b.fanout.per_phase.contains_key(phase) {
            out.push_str(&delta_line(
                &format!("{phase} mean fan-out"),
                a.fanout.mean(phase).unwrap_or(0.0),
                b.fanout.mean(phase).unwrap_or(0.0),
            ));
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instant as the parser would hand it over.
    pub(crate) fn instant(pe: u16, cycle: u32, name: &str, value: u64) -> ParsedEvent {
        ParsedEvent {
            ts_us: 0,
            pe,
            cycle,
            phase: "gc".to_string(),
            kind: Kind::Instant,
            name: name.to_string(),
            value,
            lamport: 0,
        }
    }

    /// The instants `Registry::emit(pe, cycle, ledger)` records, parsed.
    pub(crate) fn ledger_events<L: Ledger>(pe: u16, cycle: u32, ledger: &L) -> Vec<ParsedEvent> {
        let mut out = Vec::new();
        { *ledger }.wire(|name, value| out.push(instant(pe, cycle, name, *value)));
        out
    }

    #[test]
    fn fold_opens_a_ledger_only_for_its_own_instants() {
        use dgr_telemetry::{CycleHeap, CycleLifecycle};
        let row = CycleHeap {
            peak: 9,
            ..Default::default()
        };
        let mut events = ledger_events(0, 4, &row);
        events.push(instant(0, 5, "reclaimed", 3));
        let mut span = instant(0, 6, "cycle", 0);
        span.kind = Kind::Begin;
        events.push(span);
        let heaps: BTreeMap<u64, CycleHeap> = fold(&events);
        assert_eq!(heaps.keys().copied().collect::<Vec<_>>(), vec![4]);
        assert_eq!(heaps[&4], CycleHeap { cycle: 4, ..row });
        assert!(fold::<CycleLifecycle>(&events).is_empty());
    }

    fn ev(ts: u64, pe: u16, cycle: u32, phase: &str, kind: Kind, value: u64) -> ParsedEvent {
        ParsedEvent {
            ts_us: ts,
            pe,
            cycle,
            phase: phase.to_string(),
            kind,
            name: phase.to_string(),
            value,
            lamport: 0,
        }
    }

    #[test]
    fn parser_reads_jsonl_and_flight_lines_and_skips_noise() {
        let text = concat!(
            "{\"reason\": \"invariant violation\", \"pe\": 3,\n",
            "\"events\": [\n",
            "{\"ts_us\": 5, \"pe\": 1, \"cycle\": 2, \"phase\": \"M_R\", ",
            "\"kind\": \"flow_send\", \"name\": \"M_R\", \"value\": 9, \"lamport\": 4},\n",
            "{\"ts_us\": 8, \"pe\": 2, \"cycle\": 2, \"phase\": \"M_R\", ",
            "\"kind\": \"flow_recv\", \"name\": \"M_R\", \"value\": 9, \"lamport\": 5}\n",
            "],\n",
            "not json at all\n",
            "{\"ts_us\": 11, \"pe\": 0, \"cycle\": 0, \"phase\": \"gc\", ",
            "\"kind\": \"no_such_kind\", \"name\": \"x\", \"value\": 0, \"lamport\": 0}\n",
        );
        let events = parse_events(text);
        assert_eq!(events.len(), 2, "two well-formed events: {events:?}");
        assert_eq!(events[0].kind, Kind::FlowSend);
        assert_eq!(events[0].value, 9);
        assert_eq!(events[1].kind, Kind::FlowRecv);
        assert_eq!(events[1].lamport, 5);
        assert_eq!(events[1].pe, 2);
    }

    #[test]
    fn flows_match_by_id_and_count_orphans() {
        let events = vec![
            ev(1, 0, 1, "M_R", Kind::FlowSend, 10),
            ev(2, 0, 1, "M_R", Kind::FlowSend, 11),
            ev(4, 1, 1, "M_R", Kind::FlowRecv, 10),
            ev(5, 2, 1, "M_R", Kind::FlowRecv, 99), // send fell off the ring
        ];
        let g = match_flows(&events);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].id, 10);
        assert_eq!((g.edges[0].send_pe, g.edges[0].recv_pe), (0, 1));
        assert_eq!(g.orphan_sends, 1, "flow 11 never delivered");
        assert_eq!(g.orphan_recvs, 1, "flow 99 had no send");
    }

    #[test]
    fn critical_path_follows_the_longest_chain_and_telescopes() {
        // Chain: pe0 --(1..4)--> pe1 --(6..10)--> pe2, plus a fat but
        // isolated hop pe3 --(0..5)--> pe3 that no chain extends.
        let events = vec![
            ev(0, 3, 1, "M_R", Kind::FlowSend, 50),
            ev(1, 0, 1, "M_R", Kind::FlowSend, 1),
            ev(4, 1, 1, "M_R", Kind::FlowRecv, 1),
            ev(5, 3, 1, "M_R", Kind::FlowRecv, 50),
            ev(6, 1, 1, "M_R", Kind::FlowSend, 2),
            ev(10, 2, 1, "M_R", Kind::FlowRecv, 2),
        ];
        let paths = critical_paths(&match_flows(&events));
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.cycle, 1);
        assert_eq!(p.hops, 2, "the two chained hops beat the lone fat one");
        assert_eq!(p.span_us, (4 - 1) + (10 - 6));
        assert_eq!(p.path[0].id, 1);
        assert_eq!(p.path[1].id, 2);
        assert_eq!(p.wall_us, 10, "first send at 0, last recv at 10");
        assert!(p.span_us <= p.wall_us, "chains telescope inside the wall");
        assert_eq!(p.residency.get(&1), Some(&3));
        assert_eq!(p.residency.get(&2), Some(&4));
    }

    #[test]
    fn fanout_groups_sends_under_their_parent_delivery() {
        // pe0 injects two roots; the delivery on pe1 triggers three
        // sends; a later delivery on pe1 triggers one.
        let events = vec![
            ev(1, 0, 1, "M_T", Kind::FlowSend, 1),
            ev(2, 0, 1, "M_T", Kind::FlowSend, 2),
            ev(3, 1, 1, "M_T", Kind::FlowRecv, 1),
            ev(4, 1, 1, "M_T", Kind::FlowSend, 3),
            ev(5, 1, 1, "M_T", Kind::FlowSend, 4),
            ev(6, 1, 1, "M_T", Kind::FlowSend, 5),
            ev(7, 1, 1, "M_T", Kind::FlowRecv, 2),
            ev(8, 1, 1, "M_T", Kind::FlowSend, 6),
        ];
        let r = fanout(&events);
        assert_eq!(r.roots, 1, "one injection group on pe0");
        let hist = r.per_phase.get("M_T").expect("M_T histogrammed");
        assert_eq!(hist.get(&2), Some(&1), "the root burst of two");
        assert_eq!(hist.get(&3), Some(&1), "the three-send burst");
        assert_eq!(hist.get(&1), Some(&1), "the single-send burst");
        let mean = r.mean("M_T").expect("mean exists");
        assert!((mean - 2.0).abs() < 1e-9, "mean fan-out 2.0, got {mean}");
    }

    #[test]
    fn summary_and_diff_render() {
        let events = vec![
            ev(1, 0, 1, "M_R", Kind::FlowSend, 1),
            ev(4, 1, 1, "M_R", Kind::FlowRecv, 1),
            ev(5, 1, 1, "gc", Kind::Instant, 7),
        ];
        let s = summarize(&events);
        assert_eq!(s.events, 3);
        assert_eq!(s.flows, 1);
        assert_eq!(s.pes, 2);
        assert_eq!(s.cycles, 1);
        let text = summary_text(&s);
        assert!(text.contains("flows: 1 matched"), "{text}");
        let run = analyze(&events);
        let diff = diff_text("a", &run, "b", &run);
        assert!(
            diff.contains("+0.0%"),
            "identical runs diff to zero: {diff}"
        );
    }
}
