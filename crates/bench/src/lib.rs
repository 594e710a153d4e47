//! The evaluation harness.
//!
//! Each experiment in `EXPERIMENTS.md` is regenerated by one entry of
//! [`EXPERIMENTS`], run as `dgr-report <name>`. Every one of them goes
//! through a [`Report`]: it parses the strict command line, prints each
//! table and, under `--json`, writes the same rows to `BENCH_<name>.json`.
//! A measured cell is written once, as a [`JsonRecord`] built with
//! [`record!`]: its keys are both the printed column headers and the JSON
//! keys. [`gate`] is the CI gate over those files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
pub mod gate;

pub use dgr_trace::JsonValue;
pub use experiments::EXPERIMENTS;

use std::time::Instant;

/// Runs `f`, returning its result and the elapsed wall time in
/// milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// An experiment's command line, parsed strictly against the `switches`
/// (bare flags such as `--small`, `--json`) and `valued` flags (such as
/// `--seconds N`) it accepts, as `(flag, value)` pairs. Anything else — an
/// unknown flag, a stray positional, a value flag at the end of the line —
/// is an error.
fn parse_flags(
    mut args: impl Iterator<Item = String>,
    switches: &[&str],
    valued: &[&str],
) -> Result<Vec<(String, Option<String>)>, String> {
    let mut given = Vec::new();
    while let Some(a) = args.next() {
        if switches.contains(&a.as_str()) {
            given.push((a, None));
        } else if valued.contains(&a.as_str()) {
            let v = args.next().ok_or(format!("{a} takes a value"))?;
            given.push((a, Some(v)));
        } else {
            return Err(format!("unknown argument {a}"));
        }
    }
    Ok(given)
}

/// How a value reads in a table: floats with two decimals.
fn cell(value: &JsonValue) -> String {
    match value {
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Float(x) => format!("{x:.2}"),
        JsonValue::Str(s) => s.clone(),
    }
}

/// One measured cell: ordered `key: value` pairs. The keys are the
/// column headers of the table it is printed in and the keys of its
/// `BENCH_<name>.json` object.
pub type JsonRecord = Vec<(&'static str, JsonValue)>;

/// Builds a [`JsonRecord`]: `record! { "pes" => pes, "wall_us" => us }`,
/// each value converted with [`JsonValue::from`].
#[macro_export]
macro_rules! record {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::JsonValue::from($value))),*]
    };
}

/// Renders `rows` as a titled fixed-width table. The columns are the
/// union of the rows' keys in first-seen order; a row without a key
/// shows `-` in that column.
pub fn table_text(title: &str, rows: &[JsonRecord]) -> String {
    let mut keys: Vec<&str> = Vec::new();
    for &(key, _) in rows.iter().flatten() {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    // The header is the grid's first line, so it sizes the columns too.
    let mut grid: Vec<Vec<String>> = vec![keys.iter().map(|k| k.to_string()).collect()];
    grid.extend(rows.iter().map(|row| {
        let cell = |key| row.iter().find(|(k, _)| *k == key).map(|(_, v)| cell(v));
        keys.iter()
            .map(|&k| cell(k).unwrap_or("-".into()))
            .collect()
    }));
    let widths: Vec<usize> = (0..keys.len())
        .map(|i| {
            grid.iter()
                .map(|row| row[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let lines: Vec<String> = grid
        .iter()
        .map(|row| {
            let padded: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            padded.join("  ") + "\n"
        })
        .collect();
    let rule = "-".repeat(lines[0].len() - 1);
    format!(
        "\n== {title} ==\n{}{rule}\n{}",
        lines[0],
        lines[1..].concat()
    )
}

/// Renders records as a JSON array of objects, one object per line —
/// the `BENCH_*.json` format [`gate`] reads.
pub fn json_text(records: &[JsonRecord]) -> String {
    let objects: Vec<String> = records
        .iter()
        .map(|rec| {
            let fields: Vec<String> = rec
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", v.json()))
                .collect();
            format!("  {{{}}}", fields.join(", "))
        })
        .collect();
    let mut body = objects.join(",\n");
    if !body.is_empty() {
        body.push('\n');
    }
    format!("[\n{body}]\n")
}

/// One experiment of [`EXPERIMENTS`]: its command line, what its gate
/// leaves out, and its body.
#[derive(Debug)]
pub struct Experiment {
    /// What `dgr-report` runs it by; its output is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The bare flags it takes besides `--json` (such as `--small`).
    pub switches: &'static [&'static str],
    /// The flags it takes a value with (such as `--seconds N`).
    pub valued: &'static [&'static str],
    /// Whether its baseline is taken, and CI gates it, in a
    /// `--features telemetry` build: the recording is its instrument.
    pub telemetry: bool,
    /// The integer and string columns the gate skips: those that read the
    /// clock or the host, or move with the threaded runtime's schedule.
    pub volatile: &'static [&'static str],
    /// The experiment itself: prints its tables into the report.
    pub run: fn(&mut Report),
}

impl Experiment {
    /// A flagless experiment, gated on every integer and string column in
    /// a default build.
    const fn new(name: &'static str, run: fn(&mut Report)) -> Experiment {
        Experiment {
            name,
            switches: &[],
            valued: &[],
            telemetry: false,
            volatile: &[],
            run,
        }
    }

    /// The experiment called `name`, if there is one.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// Its command line: `dgr-report <name> [flags] [--json]`.
    pub fn usage(&self) -> String {
        let flags: Vec<String> = (self.switches.iter().map(|s| format!(" [{s}]")))
            .chain(self.valued.iter().map(|v| format!(" [{v} VALUE]")))
            .collect();
        format!("dgr-report {}{} [--json]", self.name, flags.concat())
    }
}

/// One experiment's run: its command line, the rows of every table it
/// printed, and its output files.
#[derive(Debug)]
pub struct Report {
    exp: &'static Experiment,
    flags: Vec<(String, Option<String>)>,
    records: Vec<JsonRecord>,
}

impl Report {
    /// Parses `args`, the command line after the experiment's name,
    /// strictly: its switches, valued flags and `--json`. Anything else
    /// prints the usage and exits with status 2. Under `--json`,
    /// [`finish`](Report::finish) writes `BENCH_<name>.json` into the
    /// current directory.
    pub fn new(exp: &'static Experiment, args: impl Iterator<Item = String>) -> Report {
        let switches: Vec<&str> = exp.switches.iter().copied().chain(["--json"]).collect();
        let mut report = Report {
            exp,
            flags: Vec::new(),
            records: Vec::new(),
        };
        report.flags = parse_flags(args, &switches, exp.valued)
            .unwrap_or_else(|bad| report.exit_with_usage(&bad));
        report
    }

    fn exit_with_usage(&self, bad: &str) -> ! {
        eprintln!(
            "dgr-report {}: {bad}\nusage: {}",
            self.exp.name,
            self.exp.usage()
        );
        std::process::exit(2);
    }

    /// Whether `flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value passed with `flag`, if it was (the last one wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rfind(|(f, _)| f == flag)?.1.as_deref()
    }

    /// The value passed with `flag`, parsed as a `T`. A value that does
    /// not parse prints the usage and exits with status 2, as an unknown
    /// flag does.
    pub fn value_as<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.value(flag)?;
        Some(
            (v.parse())
                .unwrap_or_else(|_| self.exit_with_usage(&format!("{flag} cannot take {v:?}"))),
        )
    }

    /// Prints `rows` as a table ([`table_text`]) and keeps them for
    /// `BENCH_<name>.json`.
    pub fn table(&mut self, title: &str, rows: Vec<JsonRecord>) {
        print!("{}", table_text(title, &rows));
        self.records.extend(rows);
    }

    /// Writes a file (an event stream, `BENCH_<name>.json`) into the
    /// current directory.
    ///
    /// # Panics
    ///
    /// Panics with the path if the file cannot be written — a run that
    /// silently drops its output is worse than a crash.
    pub fn side_file(&self, path: &str, contents: &str) {
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path} ({} bytes)", contents.len());
    }

    /// Under `--json`, writes every table row printed so far to
    /// `BENCH_<name>.json`, one record per row.
    pub fn finish(self) {
        if self.has("--json") {
            let path = format!("BENCH_{}.json", self.exp.name);
            println!();
            self.side_file(&path, &json_text(&self.records));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, ms) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn flags_accept_only_what_the_binary_declares() {
        let parse = |line: &[&str]| {
            parse_flags(
                line.iter().map(|s| s.to_string()),
                &["--small", "--json"],
                &["--seconds"],
            )
        };
        let f = Report {
            exp: &EXPERIMENTS[0],
            flags: parse(&["--json", "--seconds", "5", "--seconds", "7"]).unwrap(),
            records: Vec::new(),
        };
        assert!(f.has("--json") && !f.has("--small"));
        assert_eq!(f.value("--seconds"), Some("7"), "last one wins");
        assert_eq!(f.value("--json"), None);
        assert_eq!(parse(&[]).unwrap(), []);
        assert!(parse(&["--smal"]).unwrap_err().contains("--smal"));
        assert!(parse(&["extra"]).is_err(), "no positionals");
        assert!(parse(&["--seconds"]).unwrap_err().contains("takes a value"));
    }

    #[test]
    fn table_prints_without_panicking() {
        print!(
            "{}",
            table_text("demo", &[record! { "a" => 1u64, "long-header" => 2u64 }])
        );
        print!("{}", table_text("empty", &[]));
    }

    #[test]
    fn table_text_unions_keys_in_first_seen_order() {
        let got = table_text(
            "mixed",
            &[
                record! { "pes" => 1u16, "wall_us" => 12.345 },
                record! { "pes" => 16u16, "label" => "long label" },
                record! { "wall_us" => 3.0, "pes" => 2u16 },
            ],
        );
        assert_eq!(
            got,
            "\n== mixed ==\n\
             pes  wall_us       label\n\
             ------------------------\n  \
             1    12.35           -\n \
             16        -  long label\n  \
             2     3.00           -\n"
        );
    }

    #[test]
    fn json_records_render_and_escape() {
        let got = json_text(&[
            vec![
                ("benchmark", JsonValue::Str("a \"quoted\"\n".into())),
                ("vertices", JsonValue::Int(65535)),
                ("wall_us", JsonValue::Float(12.349)),
            ],
            vec![("pes", JsonValue::Int(4))],
        ]);
        assert_eq!(
            got,
            "[\n  {\"benchmark\": \"a \\\"quoted\\\"\\u000a\", \"vertices\": 65535, \
             \"wall_us\": 12.3},\n  {\"pes\": 4}\n]\n"
        );
    }
}
