//! The CI gate over `BENCH_*.json` (`dgr-report gate`).
//!
//! ```text
//! dgr-report gate <baseline.json> <fresh.json> [--max FIELD=N]...
//! dgr-report gate <fresh.json> --max FIELD=N [--max FIELD=N]...
//! ```
//!
//! Every line of such a file that is not an array bracket is a record,
//! one flat object ([`dgr_trace::read_object`]). A record's family is
//! `benchmark/v<vertices>`: the records of one family differ only in PE
//! count.
//!
//! With two files, the fresh records must match the baseline's one for
//! one, in order, and each pair must agree exactly on every integer and
//! string column, keys and key order included: the counts come from fixed
//! seeds and deterministic schedules, so any difference is a behaviour
//! change. Floats (wall times, ratios) are not compared, nor are the
//! columns the experiment declares volatile
//! ([`Experiment::volatile`](crate::Experiment::volatile)). `wall_us` is
//! printed beside its baseline and never gated: a shared runner's clock
//! cannot tell a regression from a noisy neighbour (`benchmark/` gates
//! timings on paired runs).
//!
//! Each `--max FIELD=N` is a ceiling: among the records that carry
//! FIELD, the worst cell of each family must read at most N, and at
//! least one record must carry it (recording-only fields are absent
//! from a telemetry-off build). CI holds `mean_latency_cycles` (GC
//! cycles from first census to reclaim) and `peak_live_bytes` (the
//! graph's byte clock) this way — simulator clocks that repeat exactly
//! on any host.

use dgr_trace::{field, read_object, JsonValue};

/// One record of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `benchmark/v<vertices>`.
    family: String,
    pes: u64,
    fields: Vec<(String, JsonValue)>,
}

impl Record {
    /// The number in field `name`, if the record carries one.
    fn number(&self, name: &str) -> Option<f64> {
        field(&self.fields, name)?.number()
    }

    /// The columns [`diff`] compares, as `key=value`: integers and
    /// strings, less the `volatile` ones.
    fn gated(&self, volatile: &[&str]) -> Vec<String> {
        (self.fields.iter())
            .filter(|(k, v)| !matches!(v, JsonValue::Float(_)) && !volatile.contains(&k.as_str()))
            .map(|(k, v)| format!("{k}={}", v.json()))
            .collect()
    }

    /// How the gate names the record: its family and PE count, or its
    /// first column when it has no `benchmark`.
    fn label(&self) -> String {
        match (field(&self.fields, "benchmark"), self.fields.first()) {
            (Some(_), _) => format!("{}/pe{}", self.family, self.pes),
            (None, first) => first.map_or(String::new(), |(k, v)| format!("{k}={}", v.json())),
        }
    }
}

/// The records of a `BENCH_*.json` text.
///
/// # Errors
///
/// Fails on a line that is neither an array bracket nor a flat object,
/// and if the text holds no record.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if matches!(line.trim(), "" | "[" | "]") {
            continue;
        }
        let fields = read_object(line).ok_or(format!("line {}: not a flat object", n + 1))?;
        let text = |key| match field(&fields, key) {
            Some(JsonValue::Str(s)) => s.clone(),
            Some(v) => v.json(),
            None => "?".to_string(),
        };
        out.push(Record {
            family: format!("{}/v{}", text("benchmark"), text("vertices")),
            pes: field(&fields, "pes")
                .and_then(JsonValue::number)
                .unwrap_or(0.0) as u64,
            fields,
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

/// The fresh records must match the baseline's one for one, in order, on
/// every column but floats and `volatile` ones.
pub fn diff(baseline: &[Record], fresh: &[Record], volatile: &[&str]) -> Verdict {
    let mut v = Verdict::default();
    let mut rows = Vec::new();
    for i in 0..baseline.len().max(fresh.len()) {
        let (base, new) = (baseline.get(i), fresh.get(i));
        let status = match (base, new) {
            (Some(base), Some(new)) => {
                let (want, got) = (base.gated(volatile), new.gated(volatile));
                let show = |col: Option<&String>| col.map_or("-", String::as_str).to_string();
                match (0..want.len().max(got.len())).find(|&c| want.get(c) != got.get(c)) {
                    None => "ok".to_string(),
                    Some(c) => format!("{} != {}", show(got.get(c)), show(want.get(c))),
                }
            }
            (Some(_), None) => "MISSING".to_string(),
            _ => "EXTRA".to_string(),
        };
        v.failures += u32::from(status != "ok");
        let mut row =
            crate::record! { "record" => base.or(new).map_or(String::new(), Record::label) };
        let wall = |r: Option<&Record>| r.and_then(|r| r.number("wall_us"));
        if let (Some(b), Some(f)) = (wall(base), wall(new)) {
            let delta = if b > 0.0 { (f - b) / b * 100.0 } else { 0.0 };
            row.extend(crate::record! { "base_us" => b, "fresh_us" => f, "delta_pct" => delta });
        }
        row.push(("status", status.into()));
        rows.push(row);
    }
    v.text = crate::table_text(
        "every integer and string column but the volatile ones",
        &rows,
    );
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
    let rows: Vec<_> = (worst.into_iter())
        .map(|(r, x)| {
            v.failures += u32::from(x > c.max);
            let status = if x > c.max { "TOO HIGH" } else { "ok" };
            crate::record! { "family" => r.family.as_str(), "pes" => r.pes, "worst" => x, "status" => status }
        })
        .collect();
    let title = format!("{} ceiling: worst cell per family <= {}", c.field, c.max);
    v.text = crate::table_text(&title, &rows);
    v
}

/// The `dgr-report gate` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `[baseline, fresh]` or `[fresh]`.
    files: Vec<String>,
    ceilings: Vec<Ceiling>,
}

/// Parses the `dgr-report gate` arguments (`gate` excluded).
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

/// Runs every gate `args` asks for. The last file is the fresh one; a
/// baseline's file name, `BENCH_<name>.json`, names the experiment whose
/// volatile columns are not compared.
///
/// # Errors
///
/// Fails if a file cannot be read or holds no record.
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
        let volatile = (args.files[0].rsplit(['/', '\\']).next())
            .and_then(|f| f.strip_prefix("BENCH_")?.strip_suffix(".json"))
            .and_then(crate::Experiment::find)
            .map_or(&[][..], |e| e.volatile);
        v.absorb(diff(baseline, fresh, volatile));
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
        assert_eq!(r.len(), 3);
        assert_eq!((r[0].family.as_str(), r[0].pes), ("tree/v7", 1));
        assert_eq!(r[0].label(), "tree/v7/pe1");
        assert_eq!(r[1].label(), "policy=\"fifo\"");
        assert_eq!(r[2].number("wall_us"), Some(4.0));
        assert!(parse("[\n]\n").is_err(), "no records is an error");
        assert!(
            parse("[\n  {\"a\": [1]}\n]\n").is_err(),
            "a nested value is an error"
        );
    }

    /// `BASE` with `edit` applied to line `at`.
    fn edited(at: usize, edit: impl Fn(&str) -> String) -> Vec<Record> {
        let lines: Vec<String> = (BASE.iter().enumerate())
            .map(|(i, l)| if i == at { edit(l) } else { l.to_string() })
            .collect();
        records(&lines.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn diff_flags_a_missing_record_and_a_count_mismatch() {
        let base = records(&BASE);
        assert_eq!(diff(&base, &base, &[]).failures, 0);
        let missing = diff(&base, &records(&BASE[..2]), &[]);
        assert_eq!(missing.failures, 1);
        assert!(missing.text.contains("chain/v9/pe1") && missing.text.contains("MISSING"));
        let miscounted = edited(1, |l| l.replace("\"messages\": 12", "\"messages\": 13"));
        let v = diff(&base, &miscounted, &[]);
        assert_eq!(v.failures, 1);
        assert!(v.text.contains("messages=13 != messages=12"), "{}", v.text);
        let extra = diff(&base[..1], &base, &[]);
        assert_eq!(extra.failures, 2, "a record the baseline lacks fails");
        assert!(extra.text.contains("EXTRA"));
    }

    #[test]
    fn diff_fails_a_changed_string_swapped_rows_and_changed_columns() {
        let base = records(&BASE);
        let v = diff(&base, &edited(2, |l| l.replace("chain", "chained")), &[]);
        assert_eq!(v.failures, 1);
        assert!(
            v.text
                .contains("benchmark=\"chained\" != benchmark=\"chain\""),
            "{}",
            v.text
        );
        let swapped = records(&[BASE[1], BASE[0], BASE[2]]);
        assert_eq!(diff(&base, &swapped, &[]).failures, 2);
        let renamed = diff(&base, &edited(0, |l| l.replace("messages", "events")), &[]);
        assert_eq!(renamed.failures, 1);
        assert!(
            renamed.text.contains("events=12 != messages=12"),
            "{}",
            renamed.text
        );
        let dropped = edited(0, |l| l.replace(", \"messages\": 12", ""));
        assert_eq!(diff(&base, &dropped, &[]).failures, 1);
    }

    #[test]
    fn diff_never_gates_wall_time() {
        let slow: Vec<String> = BASE.iter().map(|l| l.replace(".0}", "000.0}")).collect();
        let slow: Vec<&str> = slow.iter().map(String::as_str).collect();
        let v = diff(&records(&BASE), &records(&slow), &[]);
        assert_eq!(v.failures, 0, "{}", v.text);
    }

    #[test]
    fn diff_skips_floats_and_volatile_columns() {
        let with = |ratio: &str, steals: u64| {
            edited(0, |l| {
                l.replace(
                    '}',
                    &format!(", \"ratio\": {ratio}, \"steals\": {steals}}}"),
                )
            })
        };
        let base = with("1.5", 3);
        assert_eq!(diff(&base, &with("2.5", 3), &[]).failures, 0, "a float");
        assert_eq!(diff(&base, &with("null", 3), &[]).failures, 0, "a null");
        assert_eq!(diff(&base, &with("1.5", 4), &[]).failures, 1);
        assert_eq!(diff(&base, &with("1.5", 4), &["steals"]).failures, 0);
    }

    #[test]
    fn a_label_survives_json_text_and_the_reader() {
        let label = "a, b} \"c\"\nd";
        let text = crate::json_text(&[crate::record! { "label" => label, "messages" => 7u64 }]);
        let r = parse(&text).expect("one record");
        assert_eq!(r.len(), 1);
        assert_eq!(field(&r[0].fields, "label"), Some(&JsonValue::from(label)));
        assert_eq!(diff(&r, &r, &[]).failures, 0);
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
