//! The registry: every experiment `dgr-report` runs. Each module's `run`
//! is one report of `EXPERIMENTS.md`.

use crate::Experiment;

mod cooperation;
mod footprint;
mod gclat;
mod heap;
mod irrelevant;
mod marking;
mod memory;
mod ordering;
mod pause;
mod priority;
mod rc_vs_marking;
mod scalability;
mod soak;
mod taxonomy;
mod telemetry;
mod utilization;

/// Every experiment. Each but `soak`, whose counts depend on how many
/// iterations its time box holds, has a committed
/// `baselines/BENCH_<name>.json` taken in the feature state it names,
/// with no flags; CI gates each against it.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("marking", marking::run),
    Experiment::new("cooperation", cooperation::run),
    Experiment::new("priority", priority::run),
    Experiment::new("taxonomy", taxonomy::run),
    Experiment::new("ordering", ordering::run),
    Experiment::new("pause", pause::run),
    Experiment::new("rc_vs_marking", rc_vs_marking::run),
    Experiment::new("irrelevant", irrelevant::run),
    Experiment::new("footprint", footprint::run),
    Experiment::new("memory", memory::run),
    // T5c's threaded passes: how many duplicate visits a claim winner
    // settles, and how many tasks cross PEs, move with the schedule.
    Experiment {
        switches: SMALL,
        volatile: &["envelopes", "settled"],
        ..Experiment::new("scalability", scalability::run)
    },
    // The phase clocks, and the threaded pass's runtime counters: how
    // many batches a worker drained, how often it parked and where its
    // spawns went move with the schedule. Its task count, the GC cycles'
    // message counts and the batch-size histogram's row set do not.
    Experiment {
        switches: SMALL,
        telemetry: true,
        volatile: &[
            "mt_us",
            "mr_us",
            "settle_us",
            "classify_us",
            "total_us",
            "batches",
            "parks",
            "spawns_local",
            "spawns_remote",
        ],
        ..Experiment::new("telemetry", telemetry::run)
    },
    // Steals and parks move with the schedule; the span estimate is a
    // wall time.
    Experiment {
        switches: SMALL,
        telemetry: true,
        volatile: &["steals", "parks", "span_est_us"],
        ..Experiment::new("utilization", utilization::run)
    },
    Experiment {
        switches: SMALL,
        telemetry: true,
        ..Experiment::new("gclat", gclat::run)
    },
    Experiment {
        switches: SMALL,
        telemetry: true,
        ..Experiment::new("heap", heap::run)
    },
    Experiment {
        switches: &["--small", "--inject-stall"],
        valued: &["--seconds", "--addr"],
        telemetry: true,
        ..Experiment::new("soak", soak::run)
    },
];

/// The CI-sized workloads.
const SMALL: &[&str] = &["--small"];
