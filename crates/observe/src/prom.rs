//! Prometheus text exposition (format version 0.0.4) of the telemetry
//! snapshot plus the hub's own liveness state.
//!
//! Rendering is fully deterministic: metric families are emitted in the
//! fixed order of the closed `CounterId`/`GaugeId`/`HistId` enums, PEs
//! in shard order, buckets in edge order — two renders of the same
//! snapshot are byte-identical, which the golden scrape test pins.
//! Every name is `dgr_`-prefixed snake case, so the exposition passes
//! the Prometheus name charset (`[a-zA-Z_:][a-zA-Z0-9_:]*`) by
//! construction; a test lints this anyway.

use std::fmt::Write as _;

use dgr_telemetry::metrics::{bucket_upper_edge, HistSnapshot, MetricsSnapshot, HIST_BUCKETS};
use dgr_telemetry::{CounterId, GaugeId, HistId, SchedState};

use crate::hub::ObserveHub;

/// The quantiles exported per histogram family.
pub const QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

/// `Content-Type` of the exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the per-PE counters, gauges and (merged) histograms of a
/// snapshot. Exposed separately from [`render`] so tests can scrape a
/// hand-built snapshot without a hub.
pub fn render_snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for id in CounterId::ALL {
        let name = format!("dgr_{}_total", id.name());
        family(&mut out, &name, counter_help(id), "counter");
        for (pe, shard) in snap.per_pe.iter().enumerate() {
            let _ = writeln!(out, "{name}{{pe=\"{pe}\"}} {}", shard.counter(id));
        }
    }
    for id in GaugeId::ALL {
        let name = format!("dgr_{}", id.name());
        family(&mut out, &name, gauge_help(id), "gauge");
        for (pe, shard) in snap.per_pe.iter().enumerate() {
            let _ = writeln!(out, "{name}{{pe=\"{pe}\"}} {}", shard.gauge(id));
        }
    }
    let merged = snap.merged();
    for id in HistId::ALL {
        let name = format!("dgr_{}", id.name());
        let h = merged.hist(id);
        family(&mut out, &name, hist_help(id), "histogram");
        let mut cum = 0u64;
        for i in 0..HIST_BUCKETS {
            cum += h.buckets[i];
            let le = if i == HIST_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper_edge(i).to_string()
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        render_quantiles(&mut out, &name, h);
    }
    render_sched(&mut out, snap);
    out
}

/// Renders the scheduler-observatory families: per-(PE, state) clock
/// nanoseconds, per-PE episode spans, utilization, and steal rate.
fn render_sched(out: &mut String, snap: &MetricsSnapshot) {
    family(
        out,
        "dgr_sched_state_ns_total",
        "Nanoseconds the PE's scheduler spent in each state",
        "counter",
    );
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        for s in SchedState::ALL {
            let _ = writeln!(
                out,
                "dgr_sched_state_ns_total{{pe=\"{pe}\",state=\"{}\"}} {}",
                s.name(),
                shard.sched().state_ns(s)
            );
        }
    }
    family(
        out,
        "dgr_sched_span_ns",
        "Wall nanoseconds of the PE's scheduler episode (first enter to last transition)",
        "gauge",
    );
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let _ = writeln!(
            out,
            "dgr_sched_span_ns{{pe=\"{pe}\"}} {}",
            shard.sched().span_ns
        );
    }
    family(
        out,
        "dgr_pe_utilization",
        "Fraction of the PE's accounted scheduler time spent executing tasks",
        "gauge",
    );
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let _ = writeln!(
            out,
            "dgr_pe_utilization{{pe=\"{pe}\"}} {:.6}",
            shard.sched().utilization()
        );
    }
    family(
        out,
        "dgr_steal_rate",
        "Successful steals per second of the PE's scheduler episode",
        "gauge",
    );
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let span_s = shard.sched().span_ns as f64 / 1e9;
        let rate = if span_s > 0.0 {
            shard.counter(CounterId::Steals) as f64 / span_s
        } else {
            0.0
        };
        let _ = writeln!(out, "dgr_steal_rate{{pe=\"{pe}\"}} {rate:.3}");
    }
}

/// Renders the vertex-lifecycle families published by the GC driver:
/// reclamation-latency histogram, float census, and per-reclaim message
/// cost against the Section 4 bound.
fn render_lifecycle(out: &mut String, hub: &ObserveHub) {
    let lc = hub.lifecycle();
    let name = "dgr_gc_reclaim_latency_cycles";
    family(
        out,
        name,
        "Cycles from a vertex's first dead census to its reclamation (exact stamps only)",
        "histogram",
    );
    let mut cum = 0u64;
    for i in 0..HIST_BUCKETS {
        cum += lc.latency[i];
        let le = if i == HIST_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            bucket_upper_edge(i).to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_sum {}", lc.latency_sum);
    let _ = writeln!(out, "{name}_count {}", lc.exact);

    family(
        out,
        "dgr_gc_float_count",
        "Vertices dead but not yet reclaimed after the last closed cycle",
        "gauge",
    );
    let _ = writeln!(out, "dgr_gc_float_count {}", lc.float_now);

    family(
        out,
        "dgr_gc_msgs_per_reclaimed",
        "Marking messages per reclaimed vertex, split by marking tree",
        "gauge",
    );
    let (mt, mr) = lc.msgs_per_reclaimed();
    let _ = writeln!(out, "dgr_gc_msgs_per_reclaimed{{kind=\"mt\"}} {mt:.3}");
    let _ = writeln!(out, "dgr_gc_msgs_per_reclaimed{{kind=\"mr\"}} {mr:.3}");

    family(
        out,
        "dgr_gc_marking_efficiency",
        "Observed marking messages over the Section 4 bound (<= 1 is within budget)",
        "gauge",
    );
    let _ = writeln!(out, "dgr_gc_marking_efficiency {:.4}", lc.efficiency());
}

/// Renders the heap-observatory families published by the system: per-PE
/// live/peak byte clocks, allocation meters, the allocation-size
/// histogram, and the trigger-cause tallies.
fn render_heap(out: &mut String, hub: &ObserveHub) {
    let hp = hub.heap();
    family(
        out,
        "dgr_heap_live_bytes",
        "Bytes of live graph vertices allocated while the PE owned them",
        "gauge",
    );
    for (pe, p) in hp.per_pe.iter().enumerate() {
        let _ = writeln!(out, "dgr_heap_live_bytes{{pe=\"{pe}\"}} {}", p.live);
    }
    family(
        out,
        "dgr_heap_peak_bytes",
        "Largest live-byte waterline the PE has reached this episode",
        "gauge",
    );
    for (pe, p) in hp.per_pe.iter().enumerate() {
        let _ = writeln!(out, "dgr_heap_peak_bytes{{pe=\"{pe}\"}} {}", p.peak);
    }
    family(
        out,
        "dgr_heap_alloc_bytes_total",
        "Bytes ever allocated on the PE (cumulative, never decreases)",
        "counter",
    );
    for (pe, p) in hp.per_pe.iter().enumerate() {
        let _ = writeln!(
            out,
            "dgr_heap_alloc_bytes_total{{pe=\"{pe}\"}} {}",
            p.alloc_bytes
        );
    }
    let name = "dgr_heap_size_bytes";
    family(
        out,
        name,
        "Bytes per vertex allocation (merged over PEs)",
        "histogram",
    );
    let mut cum = 0u64;
    for i in 0..HIST_BUCKETS {
        cum += hp.size[i];
        let le = if i == HIST_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            bucket_upper_edge(i).to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_sum {}", hp.size_sum);
    let _ = writeln!(out, "{name}_count {}", hp.size_count);
    let h = HistSnapshot {
        buckets: hp.size,
        count: hp.size_count,
        sum: hp.size_sum,
        max: hp.size_max,
    };
    render_quantiles(out, name, &h);

    family(
        out,
        "dgr_gc_trigger_total",
        "Marking cycles started, by what fired the trigger",
        "counter",
    );
    for (cause, v) in hp.triggers() {
        let _ = writeln!(out, "dgr_gc_trigger_total{{cause=\"{cause}\"}} {v}");
    }
}

fn render_quantiles(out: &mut String, name: &str, h: &HistSnapshot) {
    let qname = format!("{name}_quantile");
    family(
        out,
        &qname,
        "Power-of-two bucket quantile estimate (error bounded by the bucket edges)",
        "gauge",
    );
    for (label, q) in QUANTILES {
        let _ = writeln!(out, "{qname}{{q=\"{label}\"}} {}", h.quantile(q));
    }
}

/// Renders the full `/metrics` exposition for a hub: the published
/// snapshot, the census, GC progress, heartbeat state, and the plane's
/// own meta-metrics.
pub fn render(hub: &ObserveHub) -> String {
    let snap = hub.metrics();
    let mut out = render_snapshot(&snap);

    let census = hub.census();
    family(
        &mut out,
        "dgr_task_census",
        "Pending request tasks by Figure 3-3 class, from the latest completed cycle",
        "gauge",
    );
    for (class, v) in [
        ("vital", census.vital),
        ("eager", census.eager),
        ("reserve", census.reserve),
        ("irrelevant", census.irrelevant),
        ("dangling", census.dangling),
    ] {
        let _ = writeln!(out, "dgr_task_census{{class=\"{class}\"}} {v}");
    }

    let gc = hub.gc();
    for (name, help, v) in [
        (
            "dgr_gc_cycles_total",
            "Completed mark-and-restructure cycles",
            u64::from(gc.cycles),
        ),
        (
            "dgr_gc_cycles_aborted_total",
            "Cycles abandoned on the phase budget",
            u64::from(gc.aborted_cycles),
        ),
        (
            "dgr_gc_reclaimed_total",
            "Garbage vertices returned to the free list",
            gc.reclaimed_total as u64,
        ),
        (
            "dgr_gc_expunged_total",
            "Irrelevant tasks expunged from the pools",
            gc.expunged_total as u64,
        ),
        (
            "dgr_gc_relaned_total",
            "Pending tasks moved between priority lanes",
            gc.relaned_total as u64,
        ),
        (
            "dgr_gc_deadlocked_total",
            "Deadlocked vertices reported",
            gc.deadlocks_total as u64,
        ),
    ] {
        family(&mut out, name, help, "counter");
        let _ = writeln!(out, "{name} {v}");
    }

    render_lifecycle(&mut out, hub);
    render_heap(&mut out, hub);

    let hb = hub.heartbeat();
    family(
        &mut out,
        "dgr_heartbeat_cycle",
        "GC cycle most recently begun by an attached driver",
        "gauge",
    );
    let _ = writeln!(out, "dgr_heartbeat_cycle {}", hb.cycle());
    family(
        &mut out,
        "dgr_heartbeat_phase_active",
        "1 while a marking phase is in force, 0 when idle",
        "gauge",
    );
    let _ = writeln!(
        out,
        "dgr_heartbeat_phase_active {}",
        u8::from(hb.phase().is_some())
    );
    family(
        &mut out,
        "dgr_heartbeat_phase_age_seconds",
        "Seconds the current phase has been in force",
        "gauge",
    );
    let _ = writeln!(
        out,
        "dgr_heartbeat_phase_age_seconds {:.6}",
        hb.phase_age_us() as f64 / 1e6
    );
    family(
        &mut out,
        "dgr_heartbeat_progress_total",
        "Deliveries reported by attached drivers",
        "counter",
    );
    let _ = writeln!(out, "dgr_heartbeat_progress_total {}", hb.progress_total());

    family(
        &mut out,
        "dgr_watchdog_healthy",
        "1 while the watchdog judges the system healthy",
        "gauge",
    );
    let _ = writeln!(
        out,
        "dgr_watchdog_healthy {}",
        u8::from(hub.health().is_ok())
    );
    family(
        &mut out,
        "dgr_watchdog_incidents_total",
        "Healthy-to-degraded transitions observed by the watchdog",
        "counter",
    );
    let _ = writeln!(out, "dgr_watchdog_incidents_total {}", hub.incidents());
    family(
        &mut out,
        "dgr_scrapes_total",
        "HTTP requests served by the exporter",
        "counter",
    );
    let _ = writeln!(out, "dgr_scrapes_total {}", hub.scrapes());
    family(
        &mut out,
        "dgr_uptime_seconds",
        "Seconds since the observability hub was created",
        "gauge",
    );
    let _ = writeln!(out, "dgr_uptime_seconds {:.3}", hub.uptime_s());
    out
}

fn counter_help(id: CounterId) -> &'static str {
    match id {
        CounterId::Tasks => "Messages handled by the threaded runtime (any kind)",
        CounterId::MarkEvents => "Marking-lane deliveries (mark + return tasks)",
        CounterId::RedEvents => "Reduction-lane deliveries",
        CounterId::SendsLocal => "Sends whose destination PE is the sending PE",
        CounterId::SendsRemote => "Sends that cross a PE boundary",
        CounterId::Batches => "Cross-PE batches flushed by the threaded runtime",
        CounterId::Parks => "Times a worker found its mailbox empty and parked",
        CounterId::Reclaimed => "Garbage vertices reclaimed by restructuring",
        CounterId::Expunged => "Irrelevant tasks expunged by restructuring",
        CounterId::Relaned => "Pending tasks moved to a different priority lane",
        CounterId::Steals => "Successful steal operations by the work-stealing runtime",
        CounterId::StealFails => "Steal attempts that found the victim empty or lost the race",
        CounterId::StolenFrom => "Successful steal operations with this PE as the victim",
        CounterId::StolenTasks => "Tasks taken from this PE's deque by thieves",
        CounterId::StealMisses => "Failed steal attempts against this PE as the victim",
    }
}

fn gauge_help(id: GaugeId) -> &'static str {
    match id {
        GaugeId::MailboxHighWater => "Largest mailbox depth observed on the PE",
        GaugeId::DequeDepth => "Tasks in the PE's work-stealing deque right now",
        GaugeId::DequeHighWater => "Largest deque depth observed on the PE",
        GaugeId::SpillHighWater => "Largest private spill-stack depth observed on the PE",
    }
}

fn hist_help(id: HistId) -> &'static str {
    match id {
        HistId::BatchSize => "Messages per cross-PE batch (merged over PEs)",
        HistId::CycleUs => "Wall microseconds per completed marking cycle (merged over PEs)",
        HistId::StealBatch => "Tasks transferred per successful steal_half (merged over PEs)",
        HistId::DequeDepthPeak => "Per-pass deque-depth high-water per worker (merged over PEs)",
        HistId::ParkWakeUs => "Microseconds from a timed park to waking (merged over PEs)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type Registry = dgr_telemetry::Registry<dgr_telemetry::On>;

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let reg = Registry::with_pes(1);
        for v in [1u64, 1, 5, 300] {
            reg.pe(0).observe(HistId::BatchSize, v);
        }
        let text = render_snapshot(&reg.snapshot());
        let inf: u64 = text
            .lines()
            .find(|l| l.starts_with("dgr_batch_size_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("+Inf bucket present");
        assert_eq!(inf, 4, "+Inf bucket holds every observation");
        assert!(text.contains("dgr_batch_size_count 4"));
        assert!(text.contains("dgr_batch_size_sum 307"));
        assert!(text.contains("dgr_batch_size_quantile{q=\"0.5\"}"));
    }

    #[test]
    fn sched_families_report_clock_and_rates() {
        let reg = Registry::with_pes(2);
        reg.sched_enter(1, SchedState::Work);
        std::thread::sleep(std::time::Duration::from_millis(2));
        reg.sched_finish(1);
        reg.pe(1).inc(CounterId::Steals);
        let text = render_snapshot(&reg.snapshot());
        let work_ns: u64 = text
            .lines()
            .find(|l| l.starts_with("dgr_sched_state_ns_total{pe=\"1\",state=\"work\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("work state sample present");
        assert!(work_ns >= 2_000_000, "got {work_ns}");
        assert!(text.contains("dgr_pe_utilization{pe=\"1\"} 1.000000"));
        assert!(text.contains("dgr_pe_utilization{pe=\"0\"} 0.000000"));
        assert!(text.contains("dgr_steal_rate{pe=\"0\"} 0.000"));
        let rate: f64 = text
            .lines()
            .find(|l| l.starts_with("dgr_steal_rate{pe=\"1\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("steal rate sample present");
        assert!(rate > 0.0, "one steal over a positive span");
    }

    #[test]
    fn rendering_is_deterministic() {
        let reg = Registry::with_pes(3);
        reg.pe(0).inc(CounterId::Tasks);
        reg.pe(2).gauge_set(GaugeId::DequeDepth, 9);
        let snap = reg.snapshot();
        assert_eq!(render_snapshot(&snap), render_snapshot(&snap));
    }
}
