//! `scripts/pairs.sh` over two hand-written logs, with `N = 0` so nothing
//! runs: one series the change wins, one too noisy to call.

use std::process::Command;

/// Each end-to-end metric's verdict, the last column of its table row.
fn verdicts(log: &str) -> Vec<(String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("bash")
        .arg(format!("{root}/scripts/pairs.sh"))
        .args(["/bin/true", "/bin/true", "mark_tree", "29", "5", "0"])
        .arg(format!("{root}/scripts/testdata/{log}"))
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("no run reported a failed operation"),
        "{stdout}"
    );
    (stdout.lines())
        .filter(|l| l.contains('/') && !l.contains(':'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0].to_string(), f[f.len() - 1].to_string())
        })
        .collect()
}

#[test]
fn pairs_gives_each_metric_a_verdict() {
    let want = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
        (rows.iter())
            .map(|(m, v)| (m.to_string(), v.to_string()))
            .collect()
    };
    assert_eq!(
        verdicts("pairs-gain.log"),
        want(&[
            ("heap_peak_vertices", "held"),
            ("mark_msgs_per_s_1pe", "gain"),
            ("mark_msgs_per_s_2pe", "held"),
        ])
    );
    assert_eq!(
        verdicts("pairs-unresolved.log"),
        want(&[
            ("heap_peak_vertices", "worse"),
            ("mark_msgs_per_s_1pe", "unresolved"),
            ("mark_msgs_per_s_2pe", "gain"),
        ])
    );
}
