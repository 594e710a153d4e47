//! Golden scrape: pins the shape of the `/metrics` exposition.
//!
//! Three contracts, all feature-independent (the exposition renders the
//! always-compiled concrete snapshot types):
//!
//! * **Determinism** — two renders of the same hub state are identical
//!   once the two wall-clock gauges (uptime, phase age) are masked.
//! * **Name lint** — every family and sample name matches the
//!   Prometheus charset `[a-zA-Z_:][a-zA-Z0-9_:]*`, every label name
//!   matches `[a-zA-Z_][a-zA-Z0-9_]*`, and every sample belongs to a
//!   family declared by a preceding `# TYPE` line.
//! * **Structure** — families appear in the fixed enum order, counters
//!   end in `_total`, histograms carry `_bucket`/`_sum`/`_count` plus
//!   the three quantile gauges.

use dgr_gc::{GcStats, TaskCensus};
use dgr_observe::{render, ObserveHub};
type Registry = dgr_telemetry::Registry<dgr_telemetry::On>;
use dgr_telemetry::{
    CounterId, GaugeId, HeapSnapshot, HistId, LifecycleSnapshot, PeHeap, Phase, SchedState,
};

/// A hub with every section populated: a 2-PE snapshot with counter,
/// gauge and histogram traffic, scheduler state clocks and steal-victim
/// counters, a census, GC progress, and a heartbeat mid-phase.
fn populated_hub() -> ObserveHub {
    let reg = Registry::with_pes(2);
    reg.pe(0).inc(CounterId::Tasks);
    reg.pe(0).add(CounterId::MarkEvents, 41);
    reg.pe(1).inc(CounterId::SendsRemote);
    reg.pe(0).gauge_set(GaugeId::DequeDepth, 3);
    reg.pe(1).gauge_set(GaugeId::MailboxHighWater, 17);
    for v in [1u64, 2, 8, 300] {
        reg.pe(0).observe(HistId::BatchSize, v);
        reg.pe(1).observe(HistId::CycleUs, v * 10);
    }
    // Steal outcomes bucketed by victim, plus the observatory histograms.
    reg.pe(0).add(CounterId::Steals, 5);
    reg.pe(1).inc(CounterId::StolenFrom);
    reg.pe(1).add(CounterId::StolenTasks, 9);
    reg.pe(1).add(CounterId::StealMisses, 2);
    reg.pe(0).gauge_set(GaugeId::SpillHighWater, 7);
    reg.pe(0).observe(HistId::StealBatch, 9);
    reg.pe(0).observe(HistId::DequeDepthPeak, 33);
    reg.pe(0).observe(HistId::ParkWakeUs, 120);
    // A finished all-Work episode on PE 0: utilization renders 1.000000.
    reg.sched_enter(0, SchedState::Work);
    std::thread::sleep(std::time::Duration::from_millis(1));
    reg.sched_finish(0);
    let hub = ObserveHub::new();
    hub.publish_metrics(reg.snapshot());
    hub.publish_census(TaskCensus {
        vital: 4,
        eager: 3,
        reserve: 2,
        irrelevant: 1,
        dangling: 0,
    });
    hub.publish_gc(GcStats {
        cycles: 12,
        reclaimed_total: 340,
        ..Default::default()
    });
    // A lifecycle snapshot with every family non-trivial: 4 reclaims
    // (3 exact at latency 2), 2 floaters, 40 messages against a bound
    // of 50.
    let mut lc = LifecycleSnapshot {
        latency_sum: 6,
        latency_max: 2,
        reclaimed: 4,
        exact: 3,
        float_now: 2,
        msgs_mt: 10,
        msgs_mr: 30,
        bound: 50,
        cycles: 5,
        ..Default::default()
    };
    lc.latency[2] = 3;
    lc.float_age[0] = 2;
    hub.publish_lifecycle(lc);
    // A heap snapshot with every family non-trivial: two PEs holding
    // live bytes, four 32-byte allocations (one freed exactly), and
    // cycles under both trigger causes.
    let mut hp = HeapSnapshot {
        live: 96,
        peak: 128,
        alloc_bytes: 128,
        freed_bytes: 32,
        allocs: 4,
        frees: 1,
        exact_frees: 1,
        exact_bytes: 32,
        size_count: 4,
        size_sum: 128,
        size_max: 32,
        trigger_period: 2,
        trigger_heap: 3,
        cycles: 5,
        ..Default::default()
    };
    hp.size[6] = 4; // 32 lands in the 32..=63 bucket
    hp.per_pe = vec![
        PeHeap {
            live: 64,
            peak: 96,
            alloc_bytes: 96,
            free_bytes: 32,
            allocs: 3,
            frees: 1,
        },
        PeHeap {
            live: 32,
            peak: 32,
            alloc_bytes: 32,
            free_bytes: 0,
            allocs: 1,
            frees: 0,
        },
    ];
    hub.publish_heap(hp);
    hub.heartbeat().begin_phase(12, Phase::Mr);
    hub.heartbeat().progress(99);
    hub
}

/// Strips the two samples whose value is a wall-clock reading and so
/// legitimately differs between renders.
fn mask_clock_lines(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.starts_with("dgr_uptime_seconds ")
                && !l.starts_with("dgr_heartbeat_phase_age_seconds ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rendering_the_same_hub_twice_is_byte_identical() {
    let hub = populated_hub();
    let (a, b) = (render(&hub), render(&hub));
    assert_eq!(mask_clock_lines(&a), mask_clock_lines(&b));
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The family a sample belongs to: histogram series drop their
/// `_bucket`/`_sum`/`_count` suffix, everything else is its own family.
fn family_of(sample: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            return base;
        }
    }
    sample
}

#[test]
fn every_name_passes_the_prometheus_charset_lint() {
    let hub = populated_hub();
    let text = render(&hub);
    let mut declared = std::collections::BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.split_whitespace();
            let (keyword, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword in: {line}"
            );
            assert!(is_valid_metric_name(name), "bad family name: {name}");
            if keyword == "TYPE" {
                assert!(
                    declared.insert(name.to_string()),
                    "family {name} declared twice"
                );
            }
            continue;
        }
        // A sample: `name value` or `name{label="v",...} value`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let sample = &line[..name_end];
        assert!(is_valid_metric_name(sample), "bad sample name: {sample}");
        assert!(
            declared.contains(family_of(sample)) || declared.contains(sample),
            "sample {sample} has no preceding # TYPE declaration"
        );
        if let Some(open) = line.find('{') {
            let close = line.rfind('}').expect("unterminated label set");
            for pair in line[open + 1..close].split(',') {
                let (label, value) = pair.split_once('=').expect("label without =");
                assert!(is_valid_label_name(label), "bad label name: {label}");
                assert!(
                    value.starts_with('"') && value.ends_with('"'),
                    "unquoted label value in: {line}"
                );
            }
        }
    }
    assert!(!declared.is_empty(), "exposition declared no families");
}

#[test]
fn families_follow_the_fixed_enum_order() {
    let hub = populated_hub();
    let text = render(&hub);
    // One representative per section, in the order render() emits them.
    let landmarks = [
        "# TYPE dgr_tasks_total counter",
        "# TYPE dgr_relaned_total counter",
        "# TYPE dgr_stolen_from_total counter",
        "# TYPE dgr_stolen_tasks_total counter",
        "# TYPE dgr_steal_misses_total counter",
        "# TYPE dgr_mailbox_high_water gauge",
        "# TYPE dgr_spill_high_water gauge",
        "# TYPE dgr_batch_size histogram",
        "# TYPE dgr_batch_size_quantile gauge",
        "# TYPE dgr_cycle_us histogram",
        "# TYPE dgr_steal_batch histogram",
        "# TYPE dgr_deque_depth_peak histogram",
        "# TYPE dgr_park_wake_us histogram",
        "# TYPE dgr_sched_state_ns_total counter",
        "# TYPE dgr_sched_span_ns gauge",
        "# TYPE dgr_pe_utilization gauge",
        "# TYPE dgr_steal_rate gauge",
        "# TYPE dgr_task_census gauge",
        "# TYPE dgr_gc_cycles_total counter",
        "# TYPE dgr_gc_reclaim_latency_cycles histogram",
        "# TYPE dgr_gc_float_count gauge",
        "# TYPE dgr_gc_msgs_per_reclaimed gauge",
        "# TYPE dgr_gc_marking_efficiency gauge",
        "# TYPE dgr_heap_live_bytes gauge",
        "# TYPE dgr_heap_peak_bytes gauge",
        "# TYPE dgr_heap_alloc_bytes_total counter",
        "# TYPE dgr_heap_size_bytes histogram",
        "# TYPE dgr_heap_size_bytes_quantile gauge",
        "# TYPE dgr_gc_trigger_total counter",
        "# TYPE dgr_heartbeat_cycle gauge",
        "# TYPE dgr_watchdog_healthy gauge",
        "# TYPE dgr_scrapes_total counter",
        "# TYPE dgr_uptime_seconds gauge",
    ];
    let mut last = 0;
    for mark in landmarks {
        let at = text.find(mark).unwrap_or_else(|| panic!("missing: {mark}"));
        assert!(at >= last, "{mark} out of order");
        last = at;
    }
}

#[test]
fn samples_carry_the_published_values() {
    let hub = populated_hub();
    let text = render(&hub);
    assert!(text.contains("dgr_tasks_total{pe=\"0\"} 1\n"));
    assert!(text.contains("dgr_mark_events_total{pe=\"0\"} 41\n"));
    assert!(text.contains("dgr_sends_remote_total{pe=\"1\"} 1\n"));
    assert!(text.contains("dgr_deque_depth{pe=\"0\"} 3\n"));
    assert!(text.contains("dgr_mailbox_high_water{pe=\"1\"} 17\n"));
    assert!(text.contains("dgr_batch_size_count 4\n"));
    assert!(text.contains("dgr_batch_size_sum 311\n"));
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            text.contains(&format!("dgr_batch_size_quantile{{q=\"{q}\"}}")),
            "missing batch_size quantile {q}"
        );
        assert!(
            text.contains(&format!("dgr_cycle_us_quantile{{q=\"{q}\"}}")),
            "missing cycle_us quantile {q}"
        );
    }
    assert!(text.contains("dgr_steals_total{pe=\"0\"} 5\n"));
    assert!(text.contains("dgr_stolen_from_total{pe=\"1\"} 1\n"));
    assert!(text.contains("dgr_stolen_tasks_total{pe=\"1\"} 9\n"));
    assert!(text.contains("dgr_steal_misses_total{pe=\"1\"} 2\n"));
    assert!(text.contains("dgr_spill_high_water{pe=\"0\"} 7\n"));
    assert!(text.contains("dgr_steal_batch_count 1\n"));
    assert!(text.contains("dgr_steal_batch_sum 9\n"));
    assert!(text.contains("dgr_deque_depth_peak_sum 33\n"));
    assert!(text.contains("dgr_park_wake_us_sum 120\n"));
    // PE 0 ran a finished, all-Work scheduler episode; PE 1 never
    // entered the scheduler and reports a zeroed clock.
    assert!(text.contains("dgr_sched_state_ns_total{pe=\"0\",state=\"work\"}"));
    assert!(text.contains("dgr_sched_state_ns_total{pe=\"1\",state=\"work\"} 0\n"));
    assert!(text.contains("dgr_sched_span_ns{pe=\"0\"}"));
    assert!(text.contains("dgr_sched_span_ns{pe=\"1\"} 0\n"));
    assert!(text.contains("dgr_pe_utilization{pe=\"0\"} 1.000000\n"));
    assert!(text.contains("dgr_pe_utilization{pe=\"1\"} 0.000000\n"));
    assert!(text.contains("dgr_steal_rate{pe=\"1\"} 0.000\n"));
    assert!(text.contains("dgr_task_census{class=\"vital\"} 4\n"));
    assert!(text.contains("dgr_gc_cycles_total 12\n"));
    assert!(text.contains("dgr_gc_reclaimed_total 340\n"));
    assert!(text.contains("dgr_gc_reclaim_latency_cycles_bucket{le=\"3\"} 3\n"));
    assert!(text.contains("dgr_gc_reclaim_latency_cycles_bucket{le=\"+Inf\"} 3\n"));
    assert!(text.contains("dgr_gc_reclaim_latency_cycles_sum 6\n"));
    assert!(text.contains("dgr_gc_reclaim_latency_cycles_count 3\n"));
    assert!(text.contains("dgr_gc_float_count 2\n"));
    assert!(text.contains("dgr_gc_msgs_per_reclaimed{kind=\"mt\"} 2.500\n"));
    assert!(text.contains("dgr_gc_msgs_per_reclaimed{kind=\"mr\"} 7.500\n"));
    assert!(text.contains("dgr_gc_marking_efficiency 0.8000\n"));
    assert!(text.contains("dgr_heap_live_bytes{pe=\"0\"} 64\n"));
    assert!(text.contains("dgr_heap_live_bytes{pe=\"1\"} 32\n"));
    assert!(text.contains("dgr_heap_peak_bytes{pe=\"0\"} 96\n"));
    assert!(text.contains("dgr_heap_alloc_bytes_total{pe=\"1\"} 32\n"));
    assert!(text.contains("dgr_heap_size_bytes_bucket{le=\"63\"} 4\n"));
    assert!(text.contains("dgr_heap_size_bytes_bucket{le=\"+Inf\"} 4\n"));
    assert!(text.contains("dgr_heap_size_bytes_sum 128\n"));
    assert!(text.contains("dgr_heap_size_bytes_count 4\n"));
    // Interpolated within the 32..=63 bucket: 32 + round(31 * 0.5).
    assert!(text.contains("dgr_heap_size_bytes_quantile{q=\"0.5\"} 48\n"));
    assert!(text.contains("dgr_gc_trigger_total{cause=\"period\"} 2\n"));
    assert!(text.contains("dgr_gc_trigger_total{cause=\"heap\"} 3\n"));
    assert!(text.contains("dgr_heartbeat_cycle 12\n"));
    assert!(text.contains("dgr_heartbeat_phase_active 1\n"));
    assert!(text.contains("dgr_heartbeat_progress_total 99\n"));
    assert!(text.contains("dgr_watchdog_healthy 1\n"));
    assert!(text.contains("dgr_watchdog_incidents_total 0\n"));
}

#[test]
fn counter_families_end_in_total() {
    let hub = populated_hub();
    let text = render(&hub);
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if kind == "counter" {
                assert!(name.ends_with("_total"), "counter {name} not *_total");
            } else {
                assert!(!name.ends_with("_total"), "{kind} {name} claims *_total");
            }
        }
    }
}
