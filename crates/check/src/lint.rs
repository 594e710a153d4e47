//! Repo-specific source lints, run in CI alongside the model checker.
//!
//! Eleven source rules, scoped to `crates/*/src` and the root `src/`, and
//! one manifest rule over the root and `crates/*` `Cargo.toml` files:
//!
//! 1. **mark-word ordering** — a line touching the packed `(epoch, color)`
//!    mark word (`r_words`, the lock-free probe target the per-vertex
//!    records generalized) must not use `Ordering::Relaxed`: the
//!    release/acquire pairing on the mark word is what publishes a
//!    vertex's marked state to other workers.
//! 2. **markword-array ordering** — same rule for the atomic fields of
//!    the per-vertex records (`state_word` / `par_word` in `dgr-graph`'s
//!    `markword` module; a test pins that the module still names them):
//!    every access must use a sanctioned ordering (Acquire, Release,
//!    AcqRel, or SeqCst), never Relaxed — on the field's line or on the
//!    rest of its statement, where rustfmt puts the call of a chain it
//!    splits after the field. A Relaxed probe could observe a
//!    claimed color without the claim's preceding writes; a Relaxed
//!    drain could read a stale parent and misroute the return wave.
//! 3. **mark-state confinement** — direct mark-slot mutation
//!    (`mark_mut` / `slot_mut` / `mark_at_mut`) is allowed only in the
//!    graph crate itself, the handler/cooperation/threaded
//!    modules of `dgr-core` (the sequential and threaded handler
//!    implementations), and the fault injector of this crate (whose job
//!    is to play a buggy implementation). Test modules are exempt.
//! 4. **deque confinement** — constructing a `StealDeque` is allowed only
//!    inside `crates/sim/src`: the work-stealing runtime owns the deques
//!    (one per PE, owner-push/owner-pop, thieves steal through the
//!    runtime). Other crates spawn through `SpawnScope`, so no code path
//!    outside the runtime can push a task that termination detection
//!    does not know about.
//! 5. **no `unsafe`** — the workspace forbids `unsafe` outside `vendor/`;
//!    this catches it even where a crate forgot its `forbid` attribute.
//! 6. **facade bypass** — the modules model-checked through the
//!    `dgr-atomic` facade (`deque`, `mailbox`, `quiesce`, `markword`)
//!    must not touch `std::sync::atomic` directly: a raw atomic there is
//!    invisible to `dgr-check -- atomics`, so its orderings are unverified
//!    by construction. Production code still gets std atomics — via the
//!    `StdAtomics` monomorphization, which the zero-cost test pins.
//! 7. **ordering comment** — in those modules (plus the runtime wiring in
//!    `sim/src/steal.rs`), every non-`Relaxed` ordering must carry an
//!    `// ordering:` comment on the same or one of the two preceding
//!    lines, stating what the edge publishes or acquires. The SeqCst
//!    audit that introduced the facade justified every survivor; this
//!    rule keeps future edits honest. Test modules are exempt.
//! 8. **std-only dependencies** — a `[dependencies]` (or
//!    `[build-dependencies]`) table may name only `dgr-*` crates and
//!    `rand`: every other external crate resolves to a hand-written stub
//!    under `vendor/`, and a stub in the production graph is code the
//!    whole workspace compiles and nobody reviews as its own.
//!    `[dev-dependencies]` are exempt (`proptest`).
//! 9. **ids have writers** — every variant of the closed id enums
//!    (`CounterId`, `GaugeId`, `HistId`, the simulator's `Lane`, the byte
//!    journal's `HeapDelta`) must be *produced* somewhere: named in
//!    expression position — a match-arm pattern (`E::V … =>`) reads, it
//!    does not write — by non-test source outside the enum's own
//!    declaration and `impl` block and outside `crates/telemetry` and
//!    `crates/observe`, which carry and render ids but originate none. A
//!    metric nobody bumps renders as a constant zero and a lane nobody
//!    sends on is a queue every pick still scans; both have shipped.
//! 10. **switch once** — no file under `crates/telemetry/src` but its
//!     `lib.rs` may name the `telemetry` feature: `lib.rs` turns it into
//!     the `Build` alias every facade type defaults to, and a second
//!     reader is a second implementation that compiles in one feature
//!     state only.
//! 11. **one marking loop** — non-test code may call `handle_mark` only
//!     in `dgr-core`'s handler, cooperating primitives and
//!     `driver::run_pass` (the one simulator marking loop, round-synchronous
//!     passes included; its hook is where a caller mutates between
//!     events), the reduction system's own delivery loop and the model
//!     checker's world. A pass anywhere else, a new `crates/core/src`
//!     file included, is a hand-copied loop that drifts.
//! 12. **one message record** — non-test code outside `crates/telemetry/src`
//!     may stamp a flow (`flow_send` / `flow_recv`) only in `dgr-core`'s
//!     `msg.rs`, whose `MarkRecord` is the one record of a marking
//!     message's send and delivery for every simulator loop, and may not
//!     name `Build::keep` / `Build::with` or a switch's `Keep` type: state
//!     kept or read per message under one feature state only is a second
//!     record.
//!
//! The needles below are spelled with `concat!` so the lint does not flag
//! its own source.

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub text: String,
}

const MARK_WORD: &str = concat!("r_w", "ords");
const MARKWORD_ARRAYS: [&str; 2] = [concat!("state_", "word"), concat!("par_", "word")];
const RELAXED: &str = concat!("Rel", "axed");
const DEQUE_NEW: &str = concat!("StealDeque::", "new(");
const MUT_NEEDLES: [&str; 3] = [
    concat!("mark_m", "ut("),
    concat!("slot_m", "ut("),
    concat!("mark_at_m", "ut("),
];
const UNSAFE_NEEDLES: [&str; 4] = [
    concat!("uns", "afe {"),
    concat!("uns", "afe fn"),
    concat!("uns", "afe impl"),
    concat!("uns", "afe trait"),
];
const STD_ATOMIC: &str = concat!("std::sync::", "atomic");
const ORDERING_STRONG: [&str; 4] = [
    concat!("Ordering::", "Acquire"),
    concat!("Ordering::", "Release"),
    concat!("Ordering::", "AcqRel"),
    concat!("Ordering::", "SeqCst"),
];
const ORDERING_COMMENT: &str = concat!("// ord", "ering:");
const TELEMETRY_FEATURE: &str = concat!("feature = ", "\"telemetry\"");
const HANDLE_MARK: &str = concat!("handle_", "mark(");
const RECORD_NEEDLES: [&str; 5] = [
    concat!("flow_", "send("),
    concat!("flow_", "recv("),
    concat!("Build::", "keep"),
    concat!("Build::", "with"),
    concat!("::Ke", "ep<"),
];

/// Rule 11's exemptions: the handler, the cooperating primitives and the
/// simulator marking loop, and the two other loops that deliver marks.
fn may_deliver_marks(rel: &str) -> bool {
    let core = rel.strip_prefix("crates/core/src/");
    core.is_some_and(|f| ["handler.rs", "coop.rs", "driver.rs"].contains(&f))
        || rel == "crates/reduction/src/system.rs"
        || rel == "crates/check/src/world.rs"
}

/// Rule 12's exemptions: the telemetry crate and the record's own file.
fn may_record_messages(rel: &str) -> bool {
    rel.starts_with("crates/telemetry/src/") || rel == "crates/core/src/msg.rs"
}

/// Rule 10's scope and its one exemption.
fn reads_the_switch_twice(rel: &str) -> bool {
    rel.starts_with("crates/telemetry/src/") && rel != "crates/telemetry/src/lib.rs"
}

/// The substrate modules that are generic over the atomics facade and
/// model-checked by `atomics` — raw std atomics are banned here.
const SHIMMED: [&str; 4] = [
    "crates/sim/src/deque.rs",
    "crates/sim/src/mailbox.rs",
    "crates/sim/src/quiesce.rs",
    "crates/graph/src/markword.rs",
];

/// Rule 9's subjects: each closed id enum and the file declaring it.
const PRODUCED_ENUMS: [(&str, &str); 5] = [
    ("CounterId", "crates/telemetry/src/ids.rs"),
    ("GaugeId", "crates/telemetry/src/ids.rs"),
    ("HistId", "crates/telemetry/src/ids.rs"),
    ("Lane", "crates/sim/src/msg.rs"),
    ("HeapDelta", "crates/graph/src/store.rs"),
];

/// The crates that carry and render ids (name tables, shards, the
/// exposition, the watchdog) and never originate one.
const ID_CARRIERS: [&str; 2] = ["crates/telemetry/", "crates/observe/"];

/// Where every surviving non-Relaxed ordering must be annotated.
fn ordering_commented_scope(rel: &str) -> bool {
    SHIMMED.contains(&rel) || rel == "crates/sim/src/steal.rs"
}

/// Files (repo-relative, `/`-separated) allowed to mutate mark slots
/// directly. `crates/graph/src/` is prefix-matched: the graph crate owns
/// the slots.
const MUT_ALLOWLIST: [&str; 4] = [
    "crates/core/src/handler.rs",
    "crates/core/src/coop.rs",
    "crates/core/src/threaded.rs",
    "crates/check/src/faults.rs",
];

fn allowed_mut(rel: &str) -> bool {
    rel.starts_with("crates/graph/src/") || MUT_ALLOWLIST.contains(&rel)
}

fn allowed_deque(rel: &str) -> bool {
    // The runtime owns the deques; the weak-memory checker's scenario
    // harness legitimately constructs them to model-check that ownership.
    rel.starts_with("crates/sim/src/") || rel == "crates/check/src/atomics/harness.rs"
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The `src` directories the rules apply to, under `root`.
fn src_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path().join("src");
            if p.is_dir() {
                dirs.push(p);
            }
        }
    }
    dirs
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Rule 8 over one manifest: the names a production dependency table
/// introduces, either as keys (`foo = …`, `foo.workspace = true`) or as
/// sub-table headers (`[dependencies.foo]`).
fn lint_manifest(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    // `[workspace.dependencies]` is the path catalog the tables draw
    // from, not a dependency table, and `[dev-dependencies]` is exempt.
    let production = |table: &str| table == "dependencies" || table == "build-dependencies";
    let mut in_production = false;
    for (i, l) in text.lines().enumerate() {
        let t = l.trim();
        let name = if let Some(header) = t.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_production = production(header);
            match header.rsplit_once('.') {
                Some((table, name)) if production(table) => name,
                _ => continue,
            }
        } else if in_production && !t.is_empty() && !t.starts_with('#') {
            t.split(['.', '=', ' ']).next().unwrap_or(t)
        } else {
            continue;
        };
        if !name.starts_with("dgr-") && name != "rand" {
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "std-only-deps",
                text: t.to_string(),
            });
        }
    }
}

/// Brace depth change over one line (comment lines count for nothing).
fn brace_delta(l: &str) -> i32 {
    if l.trim().starts_with("//") {
        return 0;
    }
    l.matches('{').count() as i32 - l.matches('}').count() as i32
}

/// The line range of the brace block opened by the first line that starts
/// with `header` (empty if there is none).
fn block(lines: &[&str], header: &str) -> std::ops::Range<usize> {
    let Some(start) = lines.iter().position(|l| l.starts_with(header)) else {
        return 0..0;
    };
    let mut depth = 0;
    for (i, l) in lines.iter().enumerate().skip(start) {
        depth += brace_delta(l);
        if depth == 0 {
            return start..i + 1;
        }
    }
    start..lines.len()
}

/// The variants an enum declares in `body` (its [`block`]), with their
/// line indexes: the capitalized identifiers at brace depth one.
fn enum_variants(lines: &[&str], body: std::ops::Range<usize>) -> Vec<(usize, String)> {
    let mut depth = 0;
    let mut variants = Vec::new();
    for i in body {
        let t = lines[i].trim();
        if depth == 1 && t.starts_with(char::is_uppercase) {
            let end = t.find(|c: char| !c.is_alphanumeric()).unwrap_or(t.len());
            variants.push((i, t[..end].to_string()));
        }
        depth += brace_delta(lines[i]);
    }
    variants
}

/// Whether line `l` names `needle` (`Enum::Variant`) in expression
/// position: as a whole path, and not as the pattern of a match arm.
fn produces(l: &str, needle: &str) -> bool {
    !l.trim().starts_with("//")
        && l.match_indices(needle).any(|(at, _)| {
            let rest = &l[at + needle.len()..];
            !rest.starts_with(char::is_alphanumeric) && !rest.contains("=>")
        })
}

/// A file's lines before its trailing test module, cut where
/// `scripts/lines.sh` cuts: at the last `#[cfg(test)]` line followed by a
/// `mod` line. A `#[cfg(test)]` item above it hides nothing below.
fn before_test_module(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let module = lines
        .windows(2)
        .rposition(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "));
    lines.truncate(module.unwrap_or(lines.len()));
    lines
}

/// Rule 9 over the collected sources (`(repo-relative path, text)`).
fn lint_produced(sources: &[(String, String)], findings: &mut Vec<Finding>) {
    let bodies: Vec<(&String, Vec<&str>)> = sources
        .iter()
        .filter(|(rel, _)| !ID_CARRIERS.iter().any(|c| rel.starts_with(c)))
        .map(|(rel, text)| (rel, before_test_module(text)))
        .collect();
    for (name, home) in PRODUCED_ENUMS {
        let Some((_, text)) = sources.iter().find(|(rel, _)| rel == home) else {
            continue;
        };
        let home_lines: Vec<&str> = text.lines().collect();
        let decl = block(&home_lines, &format!("pub enum {name} {{"));
        let own_impl = block(&home_lines, &format!("impl {name} {{"));
        for (line, variant) in enum_variants(&home_lines, decl.clone()) {
            let needle = format!("{name}::{variant}");
            let produced = bodies.iter().any(|(rel, lines)| {
                lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *rel != home || !(decl.contains(i) || own_impl.contains(i)))
                    .any(|(_, l)| produces(l, &needle))
            });
            if !produced {
                findings.push(Finding {
                    file: home.to_string(),
                    line: line + 1,
                    rule: "ids-have-writers",
                    text: needle,
                });
            }
        }
    }
}

/// Runs all rules over the repository rooted at `root`: manifest findings
/// first, then source findings, each sorted by file and line.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    for d in src_dirs(root) {
        collect_rs(&d, &mut files);
        manifests.push(d.with_file_name("Cargo.toml"));
    }
    files.sort();
    manifests.sort();

    let mut findings = Vec::new();
    for path in manifests {
        if let Ok(text) = fs::read_to_string(&path) {
            lint_manifest(&rel_path(root, &path), &text, &mut findings);
        }
    }
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|p| Some((rel_path(root, p), fs::read_to_string(p).ok()?)))
        .collect();
    for (rel, text) in &sources {
        let mut in_tests = false;
        let lines: Vec<&str> = text.lines().collect();
        for (i, &l) in lines.iter().enumerate() {
            let t = l.trim();
            // Everything from the test module on is exempt from the
            // confinement rule (tests legitimately hand-construct states).
            if t == "#[cfg(test)]" || t.starts_with("mod tests") {
                in_tests = true;
            }
            if t.starts_with("//") {
                continue;
            }
            let mut flag = |rule| {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule,
                    text: t.to_string(),
                })
            };
            if l.contains(MARK_WORD) && l.contains(RELAXED) {
                flag("mark-word-relaxed");
            }
            // rustfmt splits a long chain after the field, so the
            // ordering may sit on a later line of the same statement.
            let statement = || {
                let end = (i..lines.len().min(i + 3))
                    .find(|&j| lines[j].trim_end().ends_with(';'))
                    .unwrap_or(i);
                lines[i..=end].iter().any(|l| l.contains(RELAXED))
            };
            if MARKWORD_ARRAYS.iter().any(|n| l.contains(n)) && statement() {
                flag("markword-array-relaxed");
            }
            if !in_tests && !allowed_deque(rel) && l.contains(DEQUE_NEW) {
                flag("deque-confinement");
            }
            if !in_tests && !allowed_mut(rel) && MUT_NEEDLES.iter().any(|n| l.contains(n)) {
                flag("mark-state-confinement");
            }
            if UNSAFE_NEEDLES.iter().any(|n| l.contains(n)) {
                flag("no-unsafe");
            }
            if !in_tests && !may_deliver_marks(rel) && l.contains(HANDLE_MARK) {
                flag("one-marking-loop");
            }
            if !in_tests
                && !may_record_messages(rel)
                && RECORD_NEEDLES.iter().any(|n| l.contains(n))
            {
                flag("one-message-record");
            }
            if reads_the_switch_twice(rel) && l.contains(TELEMETRY_FEATURE) {
                flag("telemetry-switch-once");
            }
            if !in_tests && SHIMMED.contains(&rel.as_str()) && l.contains(STD_ATOMIC) {
                flag("facade-bypass");
            }
            if !in_tests
                && ordering_commented_scope(rel)
                && ORDERING_STRONG.iter().any(|n| l.contains(n))
            {
                // The annotation may sit on the same line or anywhere in
                // the contiguous run of non-blank lines above (rustfmt
                // splits builder chains, and the justification comments
                // span several lines); a blank line ends the statement's
                // neighborhood. Capped at 12 lines so a far-away comment
                // can't blanket a whole function.
                let annotated = (i.saturating_sub(12)..=i)
                    .rev()
                    .take_while(|&j| j == i || !lines[j].trim().is_empty())
                    .any(|j| lines[j].contains(ORDERING_COMMENT));
                if !annotated {
                    flag("ordering-comment");
                }
            }
        }
    }
    lint_produced(&sources, &mut findings);
    findings
}

/// The repository root, resolved from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the repo root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_is_lint_clean() {
        let findings = run(&repo_root());
        assert!(findings.is_empty(), "repo lint findings: {:#?}", findings);
    }

    #[test]
    fn rules_fire_on_bad_code() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture");
        let src = dir.join("crates").join("evil").join("src");
        fs::create_dir_all(&src).unwrap();
        let bad = format!(
            "fn f() {{\n    x.{}y, Ordering::{});\n    g.{}v, s).mt_cnt += 1;\n    \
             self.recs[i].{}.load(Ordering::{});\n    \
             self.recs[i].{}.store(p, Ordering::{});\n    let q = {}64);\n    \
             let w = r\n        .{}\n        .load(Ordering::{});\n}}\n",
            MARK_WORD,
            RELAXED,
            MUT_NEEDLES[0],
            MARKWORD_ARRAYS[0],
            RELAXED,
            MARKWORD_ARRAYS[1],
            RELAXED,
            DEQUE_NEW,
            MARKWORD_ARRAYS[0],
            RELAXED,
        );
        fs::write(src.join("evil.rs"), bad).unwrap();
        fs::write(
            src.with_file_name("Cargo.toml"),
            "[dependencies]\ndgr-graph.workspace = true\nrand = \"0.8\"\n\
             anyhow.workspace = true\n\n[dependencies.libc]\nversion = \"0.2\"\n\n\
             [dev-dependencies]\nproptest.workspace = true\n",
        )
        .unwrap();
        let findings = run(&dir);
        let deps: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "std-only-deps")
            .map(|f| f.line)
            .collect();
        assert_eq!(deps, [4, 6], "anyhow and libc, not proptest");
        assert!(findings.iter().any(|f| f.rule == "mark-word-relaxed"));
        assert!(findings.iter().any(|f| f.rule == "mark-state-confinement"));
        let arrays: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "markword-array-relaxed")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            arrays,
            [4, 5, 8],
            "the state word, the parent word, and a chain rustfmt split"
        );
        assert!(findings.iter().any(|f| f.rule == "deque-confinement"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_markword_needles_name_the_records_fields() {
        let path = repo_root().join("crates/graph/src/markword.rs");
        let text = fs::read_to_string(&path).expect("the markword module");
        for needle in MARKWORD_ARRAYS {
            let accesses = text
                .lines()
                .filter(|l| l.contains(needle) && ORDERING_STRONG.iter().any(|o| l.contains(o)))
                .count();
            assert!(
                accesses > 0,
                "no ordered access names `{needle}`: rule 2 checks nothing"
            );
        }
    }

    #[test]
    fn an_id_nothing_produces_is_reported() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-ids");
        let write = |krate: &str, file: &str, text: &str| {
            let src = dir.join("crates").join(krate).join("src");
            fs::create_dir_all(&src).unwrap();
            fs::write(src.join(file), text).unwrap();
        };
        // `Orphan` is declared, tabled and rendered, matched on by a
        // consumer and bumped by a test — and produced by nothing.
        write(
            "telemetry",
            "ids.rs",
            "pub enum CounterId {\n    /// Bumped below.\n    Used,\n    Orphan,\n}\n\n\
             impl CounterId {\n    pub const ALL: [CounterId; 2] = [CounterId::Used, CounterId::Orphan];\n}\n",
        );
        write(
            "observe",
            "prom.rs",
            "fn f() { help(CounterId::Orphan); }\n",
        );
        write(
            "sim",
            "msg.rs",
            "pub enum Lane {\n    Marking,\n    Reduction(Priority),\n    Idle,\n}\n\n\
             impl Lane {\n    pub const ALL: [Lane; 3] = [Lane::Marking, Lane::Reduction(V), Lane::Idle];\n}\n",
        );
        write(
            "graph",
            "store.rs",
            "pub enum HeapDelta {\n    Alloc {\n        id: VertexId,\n    },\n}\n\
             fn charge() { journal.push(HeapDelta::Alloc { id }); }\n",
        );
        write(
            "user",
            "lib.rs",
            "fn f(shard: &Shard, lane: Lane) {\n    shard.inc(CounterId::Used);\n    \
             // shard.inc(CounterId::Orphan);\n    send(Lane::Marking);\n    \
             send(Lane::Reduction(p));\n    match lane {\n        Lane::Idle => {}\n        \
             _ => match id { CounterId::Orphan => 1, _ => 0 },\n    }\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { shard.inc(CounterId::Orphan); send(Lane::Idle); }\n}\n",
        );
        let got: Vec<_> = run(&dir)
            .into_iter()
            .map(|f| (f.rule, f.file, f.line, f.text))
            .collect();
        let ids = "crates/telemetry/src/ids.rs".to_string();
        let msg = "crates/sim/src/msg.rs".to_string();
        assert_eq!(
            got,
            [
                ("ids-have-writers", ids, 4, "CounterId::Orphan".to_string()),
                ("ids-have-writers", msg, 4, "Lane::Idle".to_string()),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_test_only_field_hides_no_producer() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-cfg-field");
        let src = |krate: &str| {
            let src = dir.join("crates").join(krate).join("src");
            fs::create_dir_all(&src).unwrap();
            src
        };
        let ids = "pub enum CounterId {\n    Used,\n}\n";
        fs::write(src("telemetry").join("ids.rs"), ids).unwrap();
        // The one producer sits below a `#[cfg(test)]` field: the file is
        // cut at its test module, where `scripts/lines.sh` cuts it.
        let driver = "pub struct Driver {\n    #[cfg(test)]\n    probe: u32,\n}\n\n\
                      fn f(shard: &Shard) {\n    shard.inc(CounterId::Used);\n}\n\n\
                      #[cfg(test)]\nmod tests {}\n";
        fs::write(src("gc").join("driver.rs"), driver).unwrap();
        assert_eq!(run(&dir), []);
        // Produced only inside the test module: reported.
        let driver = driver.replace("    shard.inc(CounterId::Used);\n", "");
        let driver = driver.replace(
            "mod tests {}",
            "mod tests {\n    fn t() { shard.inc(CounterId::Used); }\n}",
        );
        fs::write(src("gc").join("driver.rs"), driver).unwrap();
        let got: Vec<_> = run(&dir)
            .into_iter()
            .map(|f| (f.rule, f.line, f.text))
            .collect();
        assert_eq!(
            got,
            [("ids-have-writers", 2, "CounterId::Used".to_string())]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_telemetry_switch_is_reported() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-switch");
        let src = dir.join("crates").join("telemetry").join("src");
        fs::create_dir_all(&src).unwrap();
        let switch = format!(
            "#[cfg(not({TELEMETRY_FEATURE}))]\nmod {};\n",
            concat!("no", "op")
        );
        fs::write(src.join("lib.rs"), &switch).unwrap();
        fs::write(src.join("active.rs"), format!("//! doc\n{switch}")).unwrap();
        let got: Vec<_> = run(&dir)
            .into_iter()
            .map(|f| (f.rule, f.file, f.line))
            .collect();
        let active = "crates/telemetry/src/active.rs".to_string();
        assert_eq!(got, [("telemetry-switch-once", active, 2)], "lib.rs may");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_marking_loop_outside_the_drivers_is_reported() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-loop");
        let call = format!("fn f() {{\n    {HANDLE_MARK}&mut s, g, m, &mut send);\n}}\n");
        for (krate, file) in [
            ("core", "driver.rs"),
            ("core", "rounds.rs"),
            ("reduction", "system.rs"),
            ("check", "world.rs"),
            ("baseline", "noncoop.rs"),
        ] {
            let src = dir.join("crates").join(krate).join("src");
            fs::create_dir_all(&src).unwrap();
            let tests = format!("#[cfg(test)]\nmod tests {{\n{call}}}\n");
            fs::write(src.join(file), format!("{call}{tests}")).unwrap();
        }
        let got: Vec<_> = run(&dir)
            .into_iter()
            .map(|f| (f.rule, f.file, f.line))
            .collect();
        let noncoop = "crates/baseline/src/noncoop.rs".to_string();
        let rounds = "crates/core/src/rounds.rs".to_string();
        assert_eq!(
            got,
            [
                ("one-marking-loop", noncoop, 2),
                ("one-marking-loop", rounds, 2)
            ],
            "tests may; in dgr-core only handler, coop and driver may"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_message_record_outside_the_record_is_reported() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-record");
        let calls = format!(
            "fn f() {{\n    t.{}0, 0, p, n, 1);\n    t.{}0, 0, p, n, 1);\n    \
             let k = {}(|| 1);\n    {}(&k, 0, |x| *x);\n    \
             let q: VecDeque<(<Build as Switch>{}u64>, M)>;\n}}\n",
            RECORD_NEEDLES[0],
            RECORD_NEEDLES[1],
            RECORD_NEEDLES[2],
            RECORD_NEEDLES[3],
            RECORD_NEEDLES[4]
        );
        for (krate, file) in [
            ("core", "msg.rs"),
            ("core", "driver.rs"),
            ("telemetry", "active.rs"),
            ("reduction", "system.rs"),
        ] {
            let src = dir.join("crates").join(krate).join("src");
            fs::create_dir_all(&src).unwrap();
            let tests = format!("#[cfg(test)]\nmod tests {{\n{calls}}}\n");
            fs::write(src.join(file), format!("{calls}{tests}")).unwrap();
        }
        let got: Vec<_> = run(&dir)
            .into_iter()
            .map(|f| (f.rule, f.file, f.line))
            .collect();
        let driver = "crates/core/src/driver.rs".to_string();
        let system = "crates/reduction/src/system.rs".to_string();
        let want: Vec<_> = [driver, system]
            .into_iter()
            .flat_map(|f| (2..=6).map(move |l| ("one-message-record", f.clone(), l)))
            .collect();
        assert_eq!(got, want, "tests, telemetry and the record's file may");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomics_rules_fire_in_shimmed_modules() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-atomics");
        let src = dir.join("crates").join("sim").join("src");
        fs::create_dir_all(&src).unwrap();
        // A raw std atomic and an unannotated strong ordering, placed in
        // a shimmed module path; an annotated one must NOT fire.
        let bad = format!(
            "use {}::AtomicU64;\nfn f(x: &AtomicU64) {{\n    x.load({});\n    \
             {} top publishes stolen cells\n    x.store(1, {});\n}}\n",
            STD_ATOMIC, ORDERING_STRONG[3], ORDERING_COMMENT, ORDERING_STRONG[1]
        );
        fs::write(src.join("deque.rs"), bad).unwrap();
        let findings = run(&dir);
        assert!(findings.iter().any(|f| f.rule == "facade-bypass"));
        let oc: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "ordering-comment")
            .collect();
        assert_eq!(oc.len(), 1, "only the unannotated ordering fires: {oc:#?}");
        assert_eq!(oc[0].line, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
