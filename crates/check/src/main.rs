//! `dgr-check` — bounded model checking of the marking protocol.
//!
//! ```text
//! dgr-check [all|corpus|faults|lint|atomics]
//!           [--max-states N] [--write-traces FILE]
//!           [--max-execs N] [--pct-millis MS] [--write-schedules FILE]
//! ```
//!
//! * `corpus` — exhaustively explore every delivery interleaving of each
//!   corpus scenario under each interleaving mode; any invariant or
//!   end-state violation (or a truncated search) fails the run.
//! * `faults` — inject each protocol fault and demand the explorer finds a
//!   violation, replays it, and (with `--write-traces`) saves the traces.
//! * `lint` — run the repo-specific source lints.
//! * `atomics` — weak-memory model checking of the lock-free substrate:
//!   litmus self-tests, the clean shim scenario corpus (bounded-exhaustive
//!   DFS with a PCT fallback of `--pct-millis` per scenario), and the
//!   seeded-ordering-mutation table (every mutation must be caught,
//!   minimized, and replayed; `--write-schedules` saves the schedules).
//! * `all` (default) — everything above.
//!
//! Exit code 0 = everything green; 1 = violation found, fault or mutation
//! undetected, clean search truncated, or lint finding.

use std::process::ExitCode;

use dgr_atomic::Ordering;
use dgr_check::atomics::{self, litmus, Opts};
use dgr_check::explore::{explore, Bounds};
use dgr_check::faults::{self, Fault};
use dgr_check::scenario;
use dgr_check::trace;
use dgr_check::world::Mode;

/// Interleaving modes every clean scenario is explored under: the
/// any-order superset (covers every mailbox discipline and scheduler
/// policy) plus per-PE FIFO mailboxes at three PE counts.
const MODES: [Mode; 4] = [
    Mode {
        any_order: true,
        num_pes: 2,
    },
    Mode {
        any_order: false,
        num_pes: 1,
    },
    Mode {
        any_order: false,
        num_pes: 2,
    },
    Mode {
        any_order: false,
        num_pes: 4,
    },
];

/// Faults are hunted under the any-order superset: maximal adversarial
/// power, and the minimal counterexample is the clearest.
const FAULT_MODE: Mode = Mode {
    any_order: true,
    num_pes: 2,
};

struct Args {
    cmd: String,
    bounds: Bounds,
    write_traces: Option<String>,
    opts: Opts,
    write_schedules: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut cmd = String::from("all");
    let mut bounds = Bounds::default();
    let mut write_traces = None;
    let mut opts = Opts::default();
    let mut write_schedules = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "all" | "corpus" | "faults" | "lint" | "atomics" => cmd = a,
            "--max-states" => {
                let v = it.next().ok_or("--max-states needs a value")?;
                bounds.max_states = v.parse().map_err(|_| format!("bad --max-states {v:?}"))?;
            }
            "--write-traces" => {
                write_traces = Some(it.next().ok_or("--write-traces needs a path")?);
            }
            "--max-execs" => {
                let v = it.next().ok_or("--max-execs needs a value")?;
                opts.max_execs = v.parse().map_err(|_| format!("bad --max-execs {v:?}"))?;
            }
            "--pct-millis" => {
                let v = it.next().ok_or("--pct-millis needs a value")?;
                opts.pct_millis = v.parse().map_err(|_| format!("bad --pct-millis {v:?}"))?;
            }
            "--write-schedules" => {
                write_schedules = Some(it.next().ok_or("--write-schedules needs a path")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        cmd,
        bounds,
        write_traces,
        opts,
        write_schedules,
    })
}

fn run_corpus(bounds: &Bounds) -> bool {
    println!("== corpus: exhaustive interleaving search (clean runs) ==");
    println!(
        "{:<28} {:<12} {:>9} {:>11} {:>6} {:>7}  verdict",
        "scenario", "mode", "states", "transitions", "depth", "quiesc"
    );
    let mut ok = true;
    for sc in scenario::corpus() {
        for mode in MODES {
            let r = explore(sc, mode, Fault::None, bounds);
            let verdict = if let Some(cx) = &r.violation {
                ok = false;
                format!("VIOLATION\n{}", cx.script())
            } else if r.truncated {
                ok = false;
                format!("TRUNCATED at {} states (raise --max-states)", r.states)
            } else {
                String::from("ok")
            };
            println!(
                "{:<28} {:<12} {:>9} {:>11} {:>6} {:>7}  {verdict}",
                r.scenario,
                mode.to_string(),
                r.states,
                r.transitions,
                r.depth,
                r.quiescent
            );
        }
    }
    ok
}

fn run_faults(bounds: &Bounds, write_traces: Option<&str>) -> bool {
    println!("== oracle mutation tests: every injected fault must be caught ==");
    let mut ok = true;
    let mut traces = String::new();
    for fault in Fault::INJECTED {
        let sc = scenario::by_name(fault.scenario()).expect("fault maps to a corpus scenario");
        let r = explore(sc, FAULT_MODE, fault, bounds);
        match r.violation {
            Some(cx) => {
                let replayed = trace::replay(&cx);
                let status = match &replayed {
                    Ok(()) => "detected, trace replays",
                    Err(_) => "detected, REPLAY FAILED",
                };
                if replayed.is_err() {
                    ok = false;
                }
                println!(
                    "{:<21} in {:<24} {} ({} events)",
                    fault.name(),
                    cx.scenario,
                    status,
                    cx.events.len()
                );
                print!("{}", cx.script());
                if let Err(e) = replayed {
                    println!("  replay error: {e}");
                }
                traces.push_str(&cx.script());
                traces.push('\n');
            }
            None => {
                ok = false;
                println!(
                    "{:<21} in {:<24} NOT DETECTED ({} states explored{})",
                    fault.name(),
                    sc.name,
                    r.states,
                    if r.truncated { ", truncated" } else { "" }
                );
            }
        }
    }

    println!("== transport robustness: one-shot FIFO reorder must stay clean ==");
    for sc in scenario::corpus() {
        for mode in MODES.iter().filter(|m| !m.any_order) {
            let r = explore(sc, *mode, Fault::ReorderDeliver, bounds);
            let verdict = if let Some(cx) = &r.violation {
                ok = false;
                format!("VIOLATION (protocol leans on FIFO order)\n{}", cx.script())
            } else if r.truncated {
                ok = false;
                format!("TRUNCATED at {} states (raise --max-states)", r.states)
            } else {
                String::from("ok")
            };
            println!(
                "{:<18} in {:<24} {:<12} {:>9} states  {verdict}",
                Fault::ReorderDeliver.name(),
                r.scenario,
                mode.to_string(),
                r.states
            );
        }
    }

    let ord = faults::pass_ordering();
    println!(
        "{:<18} in {:<24} {} (correct order: {} false flags, faulty order: {})",
        "swap-pass-order",
        "fig3-1-deadlock",
        if ord.detected() {
            "detected"
        } else {
            "NOT DETECTED"
        },
        ord.correct_false_flags,
        ord.wrong_false_flags
    );
    if !ord.detected() {
        ok = false;
    }

    if let Some(path) = write_traces {
        if let Err(e) = std::fs::write(path, &traces) {
            println!("failed to write traces to {path}: {e}");
            ok = false;
        } else {
            println!("counterexample traces written to {path}");
        }
    }
    ok
}

fn run_atomics(opts: &Opts, write_schedules: Option<&str>) -> bool {
    let mut ok = true;

    println!("== atomics: litmus self-tests of the memory model ==");
    let (sb_rlx, _) = litmus::store_buffer(Ordering::Relaxed, 100_000);
    let (sb_sc, _) = litmus::store_buffer(Ordering::SeqCst, 100_000);
    let (mp_rlx, _) = litmus::message_pass(Ordering::Relaxed, Ordering::Relaxed, 100_000);
    let (mp_ra, _) = litmus::message_pass(Ordering::Release, Ordering::Acquire, 100_000);
    let litmus_ok = sb_rlx.contains(&(0, 0))
        && !sb_sc.contains(&(0, 0))
        && mp_rlx.contains(&0)
        && !mp_ra.contains(&0);
    println!(
        "SB/Relaxed {sb_rlx:?}  SB/SeqCst {sb_sc:?}  MP/Relaxed {mp_rlx:?}  MP/RelAcq {mp_ra:?}  \
         => {}",
        if litmus_ok { "ok" } else { "MODEL BROKEN" }
    );
    ok &= litmus_ok;

    println!("== atomics: clean shim corpus (bounded DFS, PCT fallback) ==");
    for sc in atomics::SCENARIOS {
        match atomics::check_clean(sc, opts) {
            Ok(o) => {
                let how = match o {
                    atomics::CleanOutcome::Exhausted { .. } => "exhausted",
                    atomics::CleanOutcome::Sampled { .. } => "sampled",
                };
                println!("{:<24} {:>9} exec(s)  {how:<9}  ok", sc.name, o.execs());
            }
            Err(cx) => {
                ok = false;
                println!("{:<24} VIOLATION (substrate bug)", sc.name);
                print!("{}", cx.script());
            }
        }
    }

    println!("== atomics: every seeded ordering mutation must be caught ==");
    let mut schedules = String::new();
    for m in atomics::MUTATIONS {
        match atomics::check_mutation(m, opts) {
            Ok(cx) => {
                println!(
                    "{:<28} caught after {:>7} exec(s), {:>2} forced pick(s): {}",
                    m.site.name(),
                    cx.execs,
                    cx.picks.len(),
                    cx.failure
                );
                schedules.push_str(&cx.script());
                schedules.push('\n');
            }
            Err(e) => {
                ok = false;
                println!("{:<28} NOT DETECTED: {e}", m.site.name());
            }
        }
    }

    if let Some(path) = write_schedules {
        if let Err(e) = std::fs::write(path, &schedules) {
            println!("failed to write schedules to {path}: {e}");
            ok = false;
        } else {
            println!("minimized schedules written to {path}");
        }
    }
    ok
}

fn run_lint() -> bool {
    println!("== repo lint pass ==");
    let findings = dgr_check::lint::run(&dgr_check::lint::repo_root());
    for f in &findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.text);
    }
    if findings.is_empty() {
        println!("clean");
        true
    } else {
        println!("{} finding(s)", findings.len());
        false
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dgr-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    if args.cmd == "all" || args.cmd == "corpus" {
        ok &= run_corpus(&args.bounds);
    }
    if args.cmd == "all" || args.cmd == "faults" {
        ok &= run_faults(&args.bounds, args.write_traces.as_deref());
    }
    if args.cmd == "all" || args.cmd == "lint" {
        ok &= run_lint();
    }
    if args.cmd == "all" || args.cmd == "atomics" {
        ok &= run_atomics(&args.opts, args.write_schedules.as_deref());
    }
    if ok {
        println!("dgr-check: all green");
        ExitCode::SUCCESS
    } else {
        println!("dgr-check: FAILURES (see above)");
        ExitCode::FAILURE
    }
}
