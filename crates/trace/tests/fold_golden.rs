//! Golden: `dgr-trace heap | lifecycle | blame` over event streams
//! recorded before the ledger formats moved behind `dgr-telemetry` must
//! print exactly what the hand-written folds printed then.
//!
//! The fixtures under `tests/fixtures/` come from the commit before that
//! move, built with `--features telemetry`: the instant lines of
//! `report_gclat --small` and `report_heap --small` (spans and flow events
//! dropped — neither fold reads them, and the full streams are tens of
//! megabytes), and the whole `tree_d14` 4-PE stream of
//! `report_utilization --small`. Each `.txt` beside a stream is that
//! commit's `dgr-trace <subcommand>` output for it.

use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn assert_golden(subcommand: &str, stream: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_dgr-trace"))
        .args([subcommand, &fixture(stream)])
        .output()
        .expect("dgr-trace runs");
    assert!(
        out.status.success(),
        "dgr-trace {subcommand} {stream} failed"
    );
    let want = std::fs::read_to_string(fixture(golden)).expect("golden exists");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 report"),
        want,
        "dgr-trace {subcommand} {stream} drifted from {golden}"
    );
}

#[test]
fn heap_fold_prints_the_recorded_tables() {
    assert_golden("heap", "heap_small.instants.jsonl", "heap_small.heap.txt");
    assert_golden("heap", "gclat_small.instants.jsonl", "gclat_small.heap.txt");
}

#[test]
fn lifecycle_fold_prints_the_recorded_tables() {
    assert_golden(
        "lifecycle",
        "gclat_small.instants.jsonl",
        "gclat_small.lifecycle.txt",
    );
    assert_golden(
        "lifecycle",
        "heap_small.instants.jsonl",
        "heap_small.lifecycle.txt",
    );
}

#[test]
fn blame_fold_prints_the_recorded_attribution() {
    assert_golden(
        "blame",
        "utilization_tree_d14_p4.jsonl",
        "utilization_tree_d14_p4.blame.txt",
    );
}
