//! Runs `dgr-report` end to end, each run in a fresh temporary directory
//! (never in the repository, whose root holds the regenerated files).

use std::path::{Path, PathBuf};
use std::process::Command;

use dgr_bench::{gate, EXPERIMENTS};

const REPORT: &str = env!("CARGO_BIN_EXE_dgr-report");

/// A fresh directory for one report run, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dgr_bench_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        Scratch(dir)
    }

    /// Runs `dgr-report` with `args` here; returns its stdout.
    fn run(&self, args: &[&str]) -> String {
        let out = Command::new(REPORT)
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("report runs");
        assert!(
            out.status.success(),
            "dgr-report {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 output")
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.0.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    }

    fn has(&self, file: &str) -> bool {
        self.0.join(file).exists()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Rows of every table in a report's stdout: the lines between a
/// table's dashed rule and the next blank line.
fn printed_rows(stdout: &str) -> usize {
    let mut rows = 0;
    let mut in_table = false;
    for line in stdout.lines() {
        if line.is_empty() {
            in_table = false;
        } else if in_table {
            rows += 1;
        } else if line.chars().all(|c| c == '-') {
            in_table = true;
        }
    }
    rows
}

#[test]
fn marking_json_passes_the_gate_against_the_committed_baseline() {
    let dir = Scratch::new("marking");
    let stdout = dir.run(&["marking", "--json"]);
    let fresh = gate::parse(&dir.read("BENCH_marking.json")).expect("gated records");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_marking.json");
    let baseline = gate::parse(&std::fs::read_to_string(baseline).expect("baseline"))
        .expect("baseline records");
    let verdict = gate::diff(&baseline, &fresh, &[]);
    assert_eq!(verdict.failures, 0, "{}", verdict.text);
    let records = dir.read("BENCH_marking.json").matches("\n  {").count();
    assert_eq!(records, printed_rows(&stdout), "one record per printed row");
}

/// T4b's rows, recorded from the binary that still ran the compressed
/// protocol: its message columns are the counts `footprint` now
/// takes from the marked graph, and each remote mark is half a full
/// remote pair (a mark and its return).
#[test]
fn footprint_counts_the_compressed_messages_the_protocol_sent() {
    let dir = Scratch::new("footprint");
    dir.run(&["footprint", "--json"]);
    let json = dir.read("BENCH_footprint.json");
    let rows: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"compressed_remote\""))
        .collect();
    let want = [
        (4, 28247, 170006, 128146, 64073, 64074),
        (16, 28247, 170006, 159528, 79764, 79765),
    ];
    assert_eq!(rows.len(), want.len(), "{json}");
    for (row, (pes, marked, msgs, full_remote, remote, acks)) in rows.iter().zip(want) {
        let expected = format!(
            "{{\"pes\": {pes}, \"marked\": {marked}, \"full_msgs\": {msgs}, \
             \"full_remote\": {full_remote}, \"compressed_remote\": {remote}, \
             \"compressed_acks\": {acks}}}"
        );
        assert_eq!(row.trim().trim_end_matches(','), expected);
        assert_eq!(full_remote, 2 * remote);
    }
}

#[test]
fn ordering_writes_one_record_per_printed_row_and_only_under_json() {
    let dir = Scratch::new("ordering");
    dir.run(&["ordering"]);
    assert!(!dir.has("BENCH_ordering.json"), "no --json, no file");
    let stdout = dir.run(&["ordering", "--json"]);
    let json = dir.read("BENCH_ordering.json");
    let rows = printed_rows(&stdout);
    assert_eq!(rows, 2, "{stdout}");
    assert_eq!(json.matches("\n  {").count(), rows, "{json}");
    assert!(
        json.contains("\"order\": \"M_T then M_R (paper)\""),
        "{json}"
    );
}

/// An unknown experiment, a flag the experiment does not declare, and a
/// value its flag cannot parse: each prints the usage and exits 2.
#[test]
fn an_unparsable_value_is_usage_and_exit_2_not_a_panic() {
    let dir = Scratch::new("bad_command_lines");
    let table: [(&[&str], &str); 5] = [
        (&["soak", "--seconds", "x"], "usage: dgr-report soak"),
        (
            &["soak", "--json", "--minutes", "1"],
            "usage: dgr-report soak",
        ),
        (&["marking", "--small"], "usage: dgr-report marking"),
        (&["markin", "--json"], "dgr-report marking [--json]"),
        (&[], "dgr-report gate <baseline.json>"),
    ];
    for (args, usage) in table {
        let out = Command::new(REPORT)
            .args(args)
            .current_dir(&dir.0)
            .output()
            .expect("report runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!dir.has("BENCH_soak.json") && !dir.has("BENCH_marking.json"));
    }
}

/// Every experiment but the time-boxed `soak` has a committed baseline,
/// every baseline an experiment, and `list` names the experiments gated
/// in this build's feature state.
#[test]
fn every_experiment_but_soak_has_a_baseline() {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    let mut files: Vec<String> = std::fs::read_dir(&baselines)
        .expect("baselines/")
        .map(|f| f.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with("BENCH_"))
        .collect();
    files.sort();
    let mut want: Vec<String> = (EXPERIMENTS.iter())
        .filter(|e| e.name != "soak")
        .map(|e| format!("BENCH_{}.json", e.name))
        .collect();
    want.sort();
    assert_eq!(files, want);
    let listed = Scratch::new("list").run(&["list"]);
    let gated_here = (EXPERIMENTS.iter())
        .filter(|e| e.telemetry == dgr_telemetry::TELEMETRY_ENABLED)
        .map(|e| format!("{}\n", e.name));
    assert_eq!(listed, gated_here.collect::<String>());
}

/// The `scalability` experiment's T5a and T5b rows, computed through the library
/// the report calls: `mark1` under `SchedPolicy::Rounds` with the
/// default (modulo) placement. The round counts are those the report
/// printed when a separate round-synchronous loop produced them.
#[test]
fn scalability_round_counts_are_pinned() {
    use dgr_core::driver::{run_mark1, MarkRunConfig};
    use dgr_sim::SchedPolicy;
    use dgr_workloads::graphs::{binary_tree_dfs, chain};

    let rounds = |mut g: dgr_graph::GraphStore, num_pes| {
        let cfg = MarkRunConfig {
            num_pes,
            policy: SchedPolicy::Rounds,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        (stats.events, stats.rounds)
    };
    let t5a = [
        (1, 131_070),
        (2, 65_537),
        (4, 32_903),
        (8, 18_384),
        (16, 10_287),
        (32, 5_604),
        (64, 3_121),
    ];
    for (pes, want) in t5a {
        let got = rounds(binary_tree_dfs(15), pes);
        assert_eq!(got, (131_070, want), "T5a, {pes} PEs");
    }
    for pes in [1, 8, 64] {
        let got = rounds(chain(8192), pes);
        assert_eq!(got, (16_384, 16_384), "T5b, {pes} PEs");
    }
}
