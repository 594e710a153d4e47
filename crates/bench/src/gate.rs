//! The CI gate over `BENCH_*.json` (the `bench_gate` binary).
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [--max FIELD=N]...
//! bench_gate <fresh.json> --max FIELD=N [--max FIELD=N]...
//! ```
//!
//! A gated record is a line that carries `benchmark`, `messages` and
//! `wall_us`; it is keyed by `(benchmark, vertices, pes)`, and its family
//! is that key without the PE count.
//!
//! With two files, every baseline record must be present in the fresh
//! file with the same message count — counts are deterministic (fixed
//! seeds, fixed schedules), so any difference is a behaviour change.
//! `wall_us` is printed beside its baseline and never gated: a shared
//! runner's clock cannot tell a regression from a noisy neighbour
//! (`benchmark/` gates timings on paired runs).
//!
//! Each `--max FIELD=N` is a ceiling: among the records that carry
//! FIELD, the worst cell of each family must read at most N, and at
//! least one record must carry it (recording-only fields are absent
//! from a telemetry-off build). CI holds `mean_latency_cycles` (GC
//! cycles from first census to reclaim) and `peak_live_bytes` (the
//! graph's byte clock) this way — simulator clocks that repeat exactly
//! on any host.

/// One gated record of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `benchmark/v<vertices>/pe<pes>`: what a baseline and a fresh
    /// record are matched by.
    key: String,
    /// The key without its PE count: records in one family differ only
    /// in PE count.
    family: String,
    pes: u64,
    messages: u64,
    /// Printed beside its baseline, never gated.
    wall_us: f64,
    line: String,
}

impl Record {
    /// The number in field `name`, if the record carries one.
    fn number(&self, name: &str) -> Option<f64> {
        field(&self.line, name)?.parse().ok()
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The gated records of a `BENCH_*.json` text; lines that are not one
/// are skipped.
///
/// # Errors
///
/// Fails if the text holds no gated record.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        let (Some(bench), Some(messages), Some(wall_us)) = (
            field(line, "benchmark").filter(|_| line.starts_with('{')),
            field(line, "messages").and_then(|v| v.parse().ok()),
            field(line, "wall_us").and_then(|v| v.parse().ok()),
        ) else {
            continue;
        };
        let vertices = field(line, "vertices").unwrap_or("?");
        let pes = field(line, "pes").and_then(|v| v.parse().ok()).unwrap_or(0);
        out.push(Record {
            key: format!("{bench}/v{vertices}/pe{pes}"),
            family: format!("{bench}/v{vertices}"),
            pes,
            messages,
            wall_us,
            line: line.to_string(),
        });
    }
    if out.is_empty() {
        return Err("no benchmark records found".to_string());
    }
    Ok(out)
}

/// What a gate printed, and how many of its checks failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// The report, one line per record or family.
    pub text: String,
    /// Failed checks: missing records, count mismatches, broken ceilings.
    pub failures: u32,
}

impl Verdict {
    fn say(&mut self, line: String) {
        self.text.push_str(&line);
        self.text.push('\n');
    }

    fn fail(&mut self, line: String) {
        self.failures += 1;
        self.say(line);
    }

    fn absorb(&mut self, other: Verdict) {
        self.text.push_str(&other.text);
        self.failures += other.failures;
    }
}

/// Every baseline record must be in `fresh` with the same message count.
pub fn diff(baseline: &[Record], fresh: &[Record]) -> Verdict {
    let mut v = Verdict::default();
    v.say(format!(
        "{:<44} {:>12} {:>12} {:>8}  status",
        "benchmark", "base us", "fresh us", "delta"
    ));
    for base in baseline {
        let Some(new) = fresh.iter().find(|r| r.key == base.key) else {
            v.fail(format!(
                "{:<44} {:>12} {:>12} {:>8}  MISSING",
                base.key, base.wall_us, "-", "-"
            ));
            continue;
        };
        let delta_pct = if base.wall_us > 0.0 {
            (new.wall_us - base.wall_us) / base.wall_us * 100.0
        } else {
            0.0
        };
        let line = format!(
            "{:<44} {:>12.1} {:>12.1} {:>+7.1}%",
            base.key, base.wall_us, new.wall_us, delta_pct
        );
        if new.messages == base.messages {
            v.say(format!("{line}  ok"));
        } else {
            v.fail(format!(
                "{line}  COUNT {} != {}",
                new.messages, base.messages
            ));
        }
    }
    for new in fresh {
        if !baseline.iter().any(|r| r.key == new.key) {
            v.say(format!(
                "{:<44} {:>12} {:>12.1} {:>8}  NEW (not gated)",
                new.key, "-", new.wall_us, "-"
            ));
        }
    }
    v
}

/// A `--max FIELD=N` ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct Ceiling {
    field: String,
    /// The most the worst cell of a family may read.
    max: f64,
}

impl Ceiling {
    /// Parses `FIELD=N`.
    ///
    /// # Errors
    ///
    /// Fails on a missing `=`, an empty field or a value that is not a
    /// finite number.
    pub fn parse(spec: &str) -> Result<Ceiling, String> {
        let (field, max) = spec
            .split_once('=')
            .filter(|(f, _)| !f.is_empty())
            .ok_or(format!("--max takes FIELD=N, got {spec:?}"))?;
        let max = (max.parse::<f64>().ok())
            .filter(|m| m.is_finite())
            .ok_or(format!("--max {spec}: {max:?} is not a number"))?;
        Ok(Ceiling {
            field: field.to_string(),
            max,
        })
    }
}

/// The worst cell of each family that carries `c.field` must read at
/// most `c.max`; no record carrying it at all is a failure too.
pub fn ceiling(fresh: &[Record], c: &Ceiling) -> Verdict {
    let mut worst: Vec<(&Record, f64)> = Vec::new();
    for r in fresh {
        let Some(x) = r.number(&c.field) else {
            continue;
        };
        match worst.iter_mut().find(|(w, _)| w.family == r.family) {
            Some(slot) if x > slot.1 => *slot = (r, x),
            Some(_) => {}
            None => worst.push((r, x)),
        }
    }
    let mut v = Verdict::default();
    if worst.is_empty() {
        v.fail(format!(
            "--max {}: no record carries {} (telemetry-off build?)",
            c.field, c.field
        ));
        return v;
    }
    v.say(format!(
        "\n{} ceiling: worst cell per family <= {}",
        c.field, c.max
    ));
    v.say(format!(
        "{:<36} {:>8} {:>14}  status",
        "family", "pes", "worst"
    ));
    for (r, x) in worst {
        let line = format!("{:<36} {:>8} {x:>14.2}", r.family, r.pes);
        if x > c.max {
            v.fail(format!("{line}  TOO HIGH"));
        } else {
            v.say(format!("{line}  ok"));
        }
    }
    v
}

/// The `bench_gate` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `[baseline, fresh]` or `[fresh]`.
    files: Vec<String>,
    ceilings: Vec<Ceiling>,
}

/// Parses the `bench_gate` arguments (program name excluded).
///
/// # Errors
///
/// Fails on an unknown flag, a missing or unparsable `--max` value, or
/// a file count that is neither two nor one with a ceiling.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut files, mut ceilings) = (Vec::new(), Vec::new());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--max" {
            let spec = it.next().ok_or("--max takes FIELD=N")?;
            ceilings.push(Ceiling::parse(&spec)?);
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {a}"));
        } else {
            files.push(a);
        }
    }
    match files.len() {
        2 => Ok(Args { files, ceilings }),
        1 if !ceilings.is_empty() => Ok(Args { files, ceilings }),
        _ => Err("give <baseline> <fresh>, or <fresh> with at least one --max".to_string()),
    }
}

/// Runs every gate `args` asks for. The last file is the fresh one.
///
/// # Errors
///
/// Fails if a file cannot be read or holds no gated record.
pub fn run(args: &Args) -> Result<Verdict, String> {
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let records = args.files.iter().map(read).collect::<Result<Vec<_>, _>>()?;
    let fresh = records.last().expect("parse_args keeps one or two files");
    let mut v = Verdict::default();
    if let [baseline, _] = &records[..] {
        v.say(format!(
            "bench gate: {} vs baseline {}",
            args.files[1], args.files[0]
        ));
        v.absorb(diff(baseline, fresh));
    }
    for c in &args.ceilings {
        v.absorb(ceiling(fresh, c));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(lines: &[&str]) -> Vec<Record> {
        parse(&format!("[\n{}\n]\n", lines.join(",\n"))).unwrap()
    }

    const BASE: [&str; 3] = [
        r#"  {"benchmark": "tree", "vertices": 7, "pes": 1, "messages": 12, "wall_us": 10.0}"#,
        r#"  {"benchmark": "tree", "vertices": 7, "pes": 2, "messages": 12, "wall_us": 6.0}"#,
        r#"  {"benchmark": "chain", "vertices": 9, "pes": 1, "messages": 16, "wall_us": 4.0}"#,
    ];

    #[test]
    fn parse_keys_records_and_skips_the_rest() {
        let r = records(&[BASE[0], r#"  {"policy": "fifo", "messages": 3}"#, BASE[2]]);
        assert_eq!(r.len(), 2);
        assert_eq!(
            (r[0].key.as_str(), r[0].family.as_str()),
            ("tree/v7/pe1", "tree/v7")
        );
        assert_eq!((r[1].messages, r[1].wall_us), (16, 4.0));
        assert!(parse("[\n]\n").is_err(), "no records is an error");
    }

    #[test]
    fn diff_flags_a_missing_record_and_a_count_mismatch() {
        let base = records(&BASE);
        assert_eq!(diff(&base, &base).failures, 0);
        let missing = diff(&base, &records(&BASE[..2]));
        assert_eq!(missing.failures, 1);
        assert!(missing.text.contains("chain/v9/pe1") && missing.text.contains("MISSING"));
        let miscounted = BASE[1].replace("\"messages\": 12", "\"messages\": 13");
        let v = diff(&base, &records(&[BASE[0], &miscounted, BASE[2]]));
        assert_eq!(v.failures, 1);
        assert!(v.text.contains("COUNT 13 != 12"));
        let extra = diff(&base[..1], &base);
        assert_eq!(
            extra.failures, 0,
            "a record the baseline lacks is not gated"
        );
        assert!(extra.text.contains("NEW (not gated)"));
    }

    #[test]
    fn diff_never_gates_wall_time() {
        let slow: Vec<String> = BASE.iter().map(|l| l.replace(".0}", "000.0}")).collect();
        let slow: Vec<&str> = slow.iter().map(String::as_str).collect();
        let v = diff(&records(&BASE), &records(&slow));
        assert_eq!(v.failures, 0, "{}", v.text);
    }

    #[test]
    fn ceiling_holds_the_worst_cell_of_each_family() {
        let with = |lat: [&str; 3]| {
            let lines: Vec<String> = (BASE.iter().zip(lat))
                .map(|(l, x)| l.replace('}', &format!(", \"lat\": {x}}}")))
                .collect();
            records(&lines.iter().map(String::as_str).collect::<Vec<_>>())
        };
        let max = |m: f64| Ceiling {
            field: "lat".into(),
            max: m,
        };
        // tree's worst is its 2-PE cell (3.5), chain's its only one.
        let r = with(["1.0", "3.5", "2.0"]);
        assert_eq!(ceiling(&r, &max(3.5)).failures, 0);
        let v = ceiling(&r, &max(3.0));
        assert_eq!(v.failures, 1, "one family over, counted once");
        assert!(v.text.contains("tree/v7") && v.text.contains("3.50  TOO HIGH"));
        assert_eq!(ceiling(&r, &max(1.0)).failures, 2);
        // Families group by key, not by adjacency.
        let interleaved = [r[0].clone(), r[2].clone(), r[1].clone()];
        assert_eq!(ceiling(&interleaved, &max(3.0)).failures, 1);
    }

    #[test]
    fn ceiling_fails_when_no_record_carries_the_field() {
        let c = Ceiling::parse("peak_live_bytes=65536").unwrap();
        let v = ceiling(&records(&BASE), &c);
        assert_eq!(v.failures, 1);
        assert!(v.text.contains("no record carries peak_live_bytes"));
    }

    #[test]
    fn arguments_are_strict() {
        let parse = |line: &[&str]| parse_args(line.iter().map(|s| s.to_string()));
        let a = parse(&["f.json", "--max", "peak_live_bytes=65536", "--max", "x=2.5"]).unwrap();
        assert_eq!(a.files, ["f.json"]);
        assert_eq!(a.ceilings[0].max, 65536.0);
        assert_eq!(a.ceilings[1].field, "x");
        assert!(parse(&["b.json", "f.json"]).unwrap().ceilings.is_empty());
        for bad in [
            &["f.json", "--max", "peak_live_bytes=64k"][..],
            &["f.json", "--max", "peak_live_bytes=inf"],
            &["f.json", "--max", "=3"],
            &["f.json", "--max", "peak_live_bytes"],
            &["f.json", "--max"],
            &["f.json", "--max-peak-bytes", "65536"],
            &["f.json"],
            &["a.json", "b.json", "c.json"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(parse(&["f.json", "--max", "p=64k"])
            .unwrap_err()
            .contains("64k"));
    }
}
