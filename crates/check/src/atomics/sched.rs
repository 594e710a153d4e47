//! The controlled scheduler: virtual threads on a token-passing mutex,
//! every nondeterministic decision funneled through one recorded choice
//! stream.
//!
//! Scenario code runs on real OS threads, but only the thread holding the
//! **token** may perform a shim operation; finishing an operation picks
//! the next token holder. Two kinds of choice points exist:
//!
//! * **thread choices** — which runnable virtual thread runs next. The
//!   default (index 0) keeps the current thread running; alternatives are
//!   the other runnable threads. Switching away from a still-runnable
//!   thread is a *preemption*, and depth-first exploration bounds the
//!   number of preemptions per execution (classic context-bounding: the
//!   seeded ordering bugs here all need ≤ 2);
//! * **read choices** — which message a weak-memory load observes
//!   (index 0 = newest, the SC-like default; see
//!   [`Memory`](super::memory::Memory)).
//!
//! Every choice is recorded as `(picked, alternatives)`. Re-running with
//! a recorded prefix **forced** reproduces the execution deterministically
//! — that is the replay format — and advancing the deepest prefix digit
//! with an untried alternative enumerates the whole bounded tree
//! (lexicographic DFS, no repeats). When the bounded-exhaustive budget is
//! too small, a randomized PCT-style fallback assigns each thread a
//! random priority, demotes the running thread at a few random change
//! points, and picks the highest-priority runnable thread — still
//! recording choices, so anything it finds replays and minimizes exactly
//! like a DFS counterexample.
//!
//! Minimization reruns the failing choice string under progressively
//! shorter forced prefixes (the suffix falls back to the SC-like
//! defaults) and keeps the shortest prefix that still fails — the result
//! is a schedule with the fewest forced deviations from sequential
//! execution, which is what `trace::ScheduleCx` renders.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use dgr_atomic::{Ordering, Site};

use super::memory::{LocKind, Memory, ReadChooser};

/// Marker payload for unwinding a virtual thread out of an aborted
/// execution (not a real panic).
struct AbortedExec;

/// Silences the default panic printer for [`AbortedExec`] unwinds —
/// they fire on every aborted execution, and an exploration aborts
/// thousands. Real panics still reach the previous hook.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<AbortedExec>() {
                prev(info);
            }
        }));
    });
}

/// What a recorded choice decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// Which virtual thread runs next.
    Thread,
    /// Which message a load of this location observed.
    Read(usize),
}

/// One recorded nondeterministic decision.
#[derive(Debug, Clone)]
pub struct ChoiceRec {
    /// Index taken (0 = the SC-like / run-on default).
    pub picked: usize,
    /// How many alternatives existed.
    pub alts: usize,
    /// What was decided.
    pub kind: ChoiceKind,
}

/// Exploration strategy for choices beyond the forced prefix.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Defaults (index 0) — the DFS leaves, and the replay mode.
    Dfs,
    /// Randomized priority scheduling from this seed.
    Pct {
        /// xorshift64* seed (vary per attempt).
        seed: u64,
    },
}

/// Per-execution configuration.
#[derive(Debug, Clone)]
pub struct ExecCfg {
    /// The seeded mutation active in this execution, if any.
    pub mutation: Option<Site>,
    /// Max preemptions DFS may force (PCT ignores this).
    pub preemption_bound: usize,
    /// Hard step budget — exceeding it fails the execution loudly.
    pub max_steps: usize,
    /// Choice strategy beyond the forced prefix.
    pub strategy: Strategy,
}

impl Default for ExecCfg {
    fn default() -> Self {
        ExecCfg {
            mutation: None,
            preemption_bound: 2,
            max_steps: 20_000,
            strategy: Strategy::Dfs,
        }
    }
}

/// Everything one finished execution reports back.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// First failure observed (race, scenario assertion, deadlock, step
    /// budget), or `None` for a clean execution.
    pub failure: Option<String>,
    /// The full recorded choice stream (the replay key).
    pub choices: Vec<ChoiceRec>,
    /// Human-readable step log.
    pub oplog: Vec<String>,
    /// Preemptions the schedule used.
    pub preemptions: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VState {
    Ready,
    BlockedOn(usize),
    Finished,
}

struct Chooser {
    forced: Vec<usize>,
    pos: usize,
    recorded: Vec<ChoiceRec>,
    strategy: Strategy,
    rng: u64,
}

impl Chooser {
    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic per seed, no global entropy.
        let mut x = self.rng.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Picks one of `n` alternatives (`default_pick` applies beyond the
    /// forced prefix in DFS mode).
    fn choose(&mut self, n: usize, default_pick: usize, kind: ChoiceKind) -> usize {
        debug_assert!(n > 0);
        let picked = if self.pos < self.forced.len() {
            // A forced digit can exceed `n` only when minimization probes
            // a prefix against a diverged execution; clamping keeps the
            // probe running (its outcome simply won't be adopted).
            self.forced[self.pos].min(n - 1)
        } else {
            match self.strategy {
                Strategy::Dfs => default_pick.min(n - 1),
                Strategy::Pct { .. } => match kind {
                    // Thread picks under PCT are priority-driven by the
                    // caller, which passes them via `default_pick`.
                    ChoiceKind::Thread => default_pick.min(n - 1),
                    ChoiceKind::Read(_) => (self.next_rand() % n as u64) as usize,
                },
            }
        };
        self.pos += 1;
        self.recorded.push(ChoiceRec {
            picked,
            alts: n,
            kind,
        });
        picked
    }
}

impl ReadChooser for Chooser {
    fn choose_read(&mut self, loc: usize, n: usize) -> usize {
        self.choose(n, 0, ChoiceKind::Read(loc))
    }
}

/// Why the scheduler is picking a new thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PickReason {
    /// After an ordinary operation: staying on the current thread is the
    /// default, leaving is a preemption.
    AfterOp,
    /// An explicit yield: the point is to run *someone else*.
    Yield,
    /// The current thread blocked or finished: it is not a candidate.
    Gone,
}

struct Inner {
    mem: Memory,
    chooser: Chooser,
    threads: Vec<VState>,
    current: usize,
    mutation: Option<Site>,
    preemption_bound: usize,
    preemptions: usize,
    steps: usize,
    max_steps: usize,
    failure: Option<String>,
    abort: bool,
    oplog: Vec<String>,
    /// PCT state: per-thread priorities and remaining change points
    /// (step indices at which the running thread is demoted).
    pct_prio: Vec<u64>,
    pct_changes: Vec<usize>,
    pct: bool,
}

/// The shared scheduler + memory of one execution. Shim atomic types talk
/// to this through the thread-local context in `atomics::shim`.
pub struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn new(cfg: &ExecCfg, forced: Vec<usize>) -> Arc<Self> {
        let (pct, seed) = match cfg.strategy {
            Strategy::Dfs => (false, 1),
            Strategy::Pct { seed } => (true, seed),
        };
        let mut chooser = Chooser {
            forced,
            pos: 0,
            recorded: Vec::new(),
            strategy: cfg.strategy.clone(),
            rng: seed,
        };
        let mut pct_changes = Vec::new();
        let mut pct_prio = Vec::new();
        if pct {
            // d − 1 = 2 change points over an assumed ~200-step run; the
            // exact horizon matters little, variety across seeds does.
            for _ in 0..2 {
                pct_changes.push((chooser.next_rand() % 200) as usize);
            }
            pct_prio.push(chooser.next_rand());
        }
        let mut mem = Memory::default();
        mem.ensure_thread(0);
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                mem,
                chooser,
                threads: vec![VState::Ready],
                current: 0,
                mutation: cfg.mutation,
                preemption_bound: cfg.preemption_bound,
                preemptions: 0,
                steps: 0,
                max_steps: cfg.max_steps,
                failure: None,
                abort: false,
                oplog: Vec::new(),
                pct_prio,
                pct_changes,
                pct,
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The mutation active in this execution (read by `ShimAtomics`).
    pub fn mutation(&self) -> Option<Site> {
        self.lock().mutation
    }

    /// Allocates a model location. Scenario setup runs on the root thread
    /// before any spawn, so allocation order is deterministic.
    pub fn alloc_loc(&self, kind: LocKind, init: u64) -> usize {
        self.lock().mem.alloc(kind, init)
    }

    /// Waits for the token (or unwinds if the execution aborted).
    fn enter(&self, me: usize) -> MutexGuard<'_, Inner> {
        let mut g = self.lock();
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(AbortedExec);
            }
            if g.current == me {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn fail_locked(&self, g: &mut Inner, msg: String) {
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        g.abort = true;
        self.cv.notify_all();
    }

    /// Records a scenario-level failure and unwinds the calling thread.
    pub fn fail(&self, me: usize, msg: String) -> ! {
        let mut g = self.enter(me);
        let msg = format!("t{me}: {msg}");
        self.fail_locked(&mut g, msg);
        drop(g);
        panic::panic_any(AbortedExec);
    }

    fn bump_step(&self, g: &mut Inner) -> bool {
        g.steps += 1;
        if g.steps > g.max_steps {
            self.fail_locked(
                g,
                format!("step budget exceeded ({} shim operations)", g.max_steps),
            );
            return false;
        }
        true
    }

    /// Picks the next token holder; `me` is the thread giving it up.
    fn pick_next(&self, g: &mut Inner, me: usize, why: PickReason) {
        // Unblock any join whose target has finished.
        for t in 0..g.threads.len() {
            if let VState::BlockedOn(j) = g.threads[t] {
                if g.threads[j] == VState::Finished {
                    g.threads[t] = VState::Ready;
                }
            }
        }
        let runnable: Vec<usize> = (0..g.threads.len())
            .filter(|&t| g.threads[t] == VState::Ready)
            .collect();
        if runnable.is_empty() {
            if g.threads.iter().any(|&s| s != VState::Finished) {
                self.fail_locked(g, "deadlock: unfinished threads, none runnable".into());
            }
            g.current = usize::MAX; // execution over
            self.cv.notify_all();
            return;
        }
        let me_runnable = g.threads.get(me) == Some(&VState::Ready);
        // Build the ordered alternative list: default first.
        let mut alts: Vec<usize> = Vec::with_capacity(runnable.len());
        match why {
            PickReason::AfterOp if me_runnable => {
                if g.preemptions >= g.preemption_bound && !g.pct {
                    alts.push(me); // bound exhausted: run on
                } else {
                    alts.push(me);
                    alts.extend(runnable.iter().copied().filter(|&t| t != me));
                }
            }
            PickReason::Yield if me_runnable => {
                // The point of a yield is to let someone else run.
                alts.extend(runnable.iter().copied().filter(|&t| t != me));
                if alts.is_empty() {
                    alts.push(me);
                }
            }
            _ => alts.extend(runnable.iter().copied()),
        }
        let default_pick = if g.pct {
            // Highest-priority runnable thread, with demotions at the
            // pre-drawn change points.
            if g.pct_changes.first().is_some_and(|&s| g.steps >= s) {
                g.pct_changes.remove(0);
                if let Some(p) = g.pct_prio.get_mut(me) {
                    *p = 0;
                }
            }
            alts.iter()
                .enumerate()
                .max_by_key(|(_, &t)| g.pct_prio.get(t).copied().unwrap_or(0))
                .map(|(i, _)| i)
                .unwrap_or(0)
        } else {
            0
        };
        let pick = g
            .chooser
            .choose(alts.len(), default_pick, ChoiceKind::Thread);
        let next = alts[pick];
        if next != me {
            if me_runnable && why == PickReason::AfterOp {
                g.preemptions += 1;
                let line = format!("-- t{me} => t{next} (preempt)");
                g.oplog.push(line);
            } else {
                g.oplog.push(format!("-- t{me} => t{next}"));
            }
        }
        g.current = next;
        self.cv.notify_all();
    }

    /// One complete shim operation: wait for the token, run `body`
    /// against the memory, log, reschedule.
    fn op<R>(
        &self,
        me: usize,
        body: impl FnOnce(&mut Memory, &mut Chooser) -> Result<(R, String), String>,
        why: PickReason,
    ) -> R {
        let mut g = self.enter(me);
        if !self.bump_step(&mut g) {
            drop(g);
            panic::panic_any(AbortedExec);
        }
        let inner = &mut *g;
        match body(&mut inner.mem, &mut inner.chooser) {
            Ok((r, line)) => {
                if !line.is_empty() {
                    inner.oplog.push(format!("t{me} {line}"));
                }
                self.pick_next(&mut g, me, why);
                drop(g);
                r
            }
            Err(msg) => {
                let msg = format!("t{me}: {msg}");
                self.fail_locked(&mut g, msg);
                drop(g);
                panic::panic_any(AbortedExec);
            }
        }
    }

    fn ord_name(ord: Ordering) -> &'static str {
        match ord {
            Ordering::Relaxed => "Relaxed",
            Ordering::Acquire => "Acquire",
            Ordering::Release => "Release",
            Ordering::AcqRel => "AcqRel",
            Ordering::SeqCst => "SeqCst",
            _ => "?",
        }
    }

    /// Atomic load through the model.
    pub fn atomic_load(&self, me: usize, loc: usize, ord: Ordering) -> u64 {
        self.op(
            me,
            |mem, ch| {
                let v = mem.load(me, loc, ord, ch);
                let name = &mem.locs[loc].name;
                Ok((v, format!("{name}.load({}) = {v}", Self::ord_name(ord))))
            },
            PickReason::AfterOp,
        )
    }

    /// Atomic store through the model.
    pub fn atomic_store(&self, me: usize, loc: usize, val: u64, ord: Ordering) {
        self.op(
            me,
            |mem, _| {
                mem.store(me, loc, val, ord);
                let name = &mem.locs[loc].name;
                Ok(((), format!("{name}.store({val}, {})", Self::ord_name(ord))))
            },
            PickReason::AfterOp,
        )
    }

    /// Atomic fetch-and-apply (`f` must be total — always stores).
    pub fn atomic_fetch(
        &self,
        me: usize,
        loc: usize,
        ord: Ordering,
        label: &str,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        self.op(
            me,
            |mem, _| {
                let old = mem.rmw(me, loc, ord, |v| Some(f(v)));
                let name = &mem.locs[loc].name;
                Ok((
                    old,
                    format!("{name}.{label}({}) = {old}", Self::ord_name(ord)),
                ))
            },
            PickReason::AfterOp,
        )
    }

    /// Atomic compare-exchange (strong; weak maps here too — spurious
    /// failure is not modeled, which only removes retry interleavings).
    pub fn atomic_cas(
        &self,
        me: usize,
        loc: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.op(
            me,
            |mem, _| {
                let newest = mem.locs[loc].msgs.last().expect("init").val;
                let (res, ord, verdict) = if newest == current {
                    (Ok(current), success, "ok")
                } else {
                    (Err(newest), failure, "failed")
                };
                let got = mem.rmw(me, loc, ord, |v| {
                    (res.is_ok() && v == current).then_some(new)
                });
                debug_assert_eq!(got, newest);
                let name = &mem.locs[loc].name;
                Ok((
                    res,
                    format!(
                        "{name}.cas({current} -> {new}, {}) {verdict} (saw {newest})",
                        Self::ord_name(ord)
                    ),
                ))
            },
            PickReason::AfterOp,
        )
    }

    /// Race-checked non-atomic read.
    pub fn cell_read(&self, me: usize, loc: usize) -> u64 {
        self.op(
            me,
            |mem, _| match mem.cell_read(me, loc) {
                Ok(v) => {
                    let name = &mem.locs[loc].name;
                    Ok((v, format!("{name}.read() = {v}")))
                }
                Err(r) => Err(r.0),
            },
            PickReason::AfterOp,
        )
    }

    /// Race-checked non-atomic write.
    pub fn cell_write(&self, me: usize, loc: usize, val: u64) {
        self.op(
            me,
            |mem, _| match mem.cell_write(me, loc, val) {
                Ok(()) => {
                    let name = &mem.locs[loc].name;
                    Ok(((), format!("{name}.write({val})")))
                }
                Err(r) => Err(r.0),
            },
            PickReason::AfterOp,
        )
    }

    /// Fence through the model.
    pub fn fence(&self, me: usize, ord: Ordering) {
        self.op(
            me,
            |mem, _| {
                mem.fence(me, ord);
                Ok(((), format!("fence({})", Self::ord_name(ord))))
            },
            PickReason::AfterOp,
        )
    }

    /// Scheduling point that prefers to run someone else.
    pub fn yield_now(&self, me: usize) {
        self.op(me, |_, _| Ok(((), String::new())), PickReason::Yield)
    }

    /// Registers a new virtual thread; returns its id. Called with the
    /// spawner holding the token (spawn itself is not a choice point).
    /// The child starts with the spawner's view — thread creation is a
    /// happens-before edge.
    pub fn register_vthread(&self, spawner: usize) -> usize {
        let mut g = self.lock();
        let tid = g.threads.len();
        g.threads.push(VState::Ready);
        g.mem.ensure_thread(tid);
        let pv = g.mem.views[spawner].clone();
        g.mem.views[tid] = pv;
        if g.pct {
            let p = g.chooser.next_rand();
            g.pct_prio.push(p);
        }
        g.oplog.push(format!("-- t{spawner} spawns t{tid}"));
        tid
    }

    /// Tracks the OS thread backing a virtual thread.
    pub fn track_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// Blocks `me` until `target` finishes (a scheduling operation).
    /// Completing a join is a happens-before edge: the joiner inherits
    /// the target's final view.
    pub fn join_vthread(&self, me: usize, target: usize) {
        loop {
            let mut g = self.enter(me);
            if g.threads[target] == VState::Finished {
                if !self.bump_step(&mut g) {
                    drop(g);
                    panic::panic_any(AbortedExec);
                }
                let tv = g.mem.views[target].clone();
                g.mem.views[me].join(&tv);
                g.oplog.push(format!("-- t{me} joined t{target}"));
                self.pick_next(&mut g, me, PickReason::AfterOp);
                return;
            }
            g.threads[me] = VState::BlockedOn(target);
            g.oplog.push(format!("-- t{me} joins t{target}"));
            self.pick_next(&mut g, me, PickReason::Gone);
            // Loop back into `enter` until the scheduler hands the token
            // back (it re-readies us once the target finishes).
        }
    }

    /// Marks `me` finished and hands the token on.
    pub fn finish_vthread(&self, me: usize) {
        let mut g = self.lock();
        g.threads[me] = VState::Finished;
        if g.current == me || g.current == usize::MAX {
            self.pick_next(&mut g, me, PickReason::Gone);
        }
        self.cv.notify_all();
    }
}

/// Handles a virtual thread's exit: real panics become failures, the
/// abort marker unwinds silently, and the thread is marked finished.
pub(super) fn record_thread_exit(
    shared: &Arc<Shared>,
    tid: usize,
    r: Result<(), Box<dyn std::any::Any + Send>>,
) {
    if let Err(payload) = r {
        if payload.downcast_ref::<AbortedExec>().is_none() {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic in scenario".into());
            let mut g = shared.lock();
            shared.fail_locked(&mut g, format!("t{tid} panicked: {msg}"));
        }
    }
    shared.finish_vthread(tid);
}

/// Runs one scenario execution under `forced` choices. `scenario` runs as
/// virtual thread 0; it spawns the other threads through
/// [`spawn`](super::shim::spawn).
pub fn run_one<F>(scenario: F, forced: &[usize], cfg: &ExecCfg) -> ExecOutcome
where
    F: FnOnce() + Send + 'static,
{
    install_quiet_abort_hook();
    let shared = Shared::new(cfg, forced.to_vec());
    let root = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            super::shim::set_current(Arc::clone(&shared), 0);
            let r = panic::catch_unwind(AssertUnwindSafe(scenario));
            super::shim::clear_current();
            record_thread_exit(&shared, 0, r);
        })
    };
    let _ = root.join();
    // Spawned vthreads may still be draining their abort unwinds.
    loop {
        let h = shared
            .os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let g = shared.lock();
    ExecOutcome {
        failure: g.failure.clone(),
        choices: g.chooser.recorded.clone(),
        oplog: g.oplog.clone(),
        preemptions: g.preemptions,
    }
}

/// Result of a bounded-exhaustive or randomized exploration.
#[derive(Debug)]
pub enum Exploration {
    /// Every execution within the bounds passed.
    Clean {
        /// Executions explored.
        execs: usize,
    },
    /// The execution budget ran out before the tree was covered.
    Truncated {
        /// Executions explored before giving up.
        execs: usize,
    },
    /// A failing execution was found.
    Failed {
        /// The failing execution (its `choices` replay it).
        outcome: ExecOutcome,
        /// Executions explored up to and including the failure.
        execs: usize,
    },
}

/// Advances the DFS odometer: the deepest choice with an untried
/// alternative is incremented and everything after it is dropped.
fn advance(choices: &[ChoiceRec]) -> Option<Vec<usize>> {
    for i in (0..choices.len()).rev() {
        if choices[i].picked + 1 < choices[i].alts {
            let mut f: Vec<usize> = choices[..i].iter().map(|c| c.picked).collect();
            f.push(choices[i].picked + 1);
            return Some(f);
        }
    }
    None
}

/// Bounded-exhaustive DFS over every choice (thread interleavings up to
/// the preemption bound × all weak-memory read choices).
pub fn dfs_explore(
    mut make: impl FnMut() -> Box<dyn FnOnce() + Send + 'static>,
    cfg: &ExecCfg,
    max_execs: usize,
) -> Exploration {
    let mut forced: Vec<usize> = Vec::new();
    let mut execs = 0;
    loop {
        let out = run_one(make(), &forced, cfg);
        execs += 1;
        if out.failure.is_some() {
            return Exploration::Failed {
                outcome: out,
                execs,
            };
        }
        match advance(&out.choices) {
            Some(next) => forced = next,
            None => return Exploration::Clean { execs },
        }
        if execs >= max_execs {
            return Exploration::Truncated { execs };
        }
    }
}

/// Randomized PCT-style fallback: keeps sampling fresh seeds until the
/// time budget runs out or a failure appears.
pub fn pct_explore(
    mut make: impl FnMut() -> Box<dyn FnOnce() + Send + 'static>,
    cfg: &ExecCfg,
    budget: std::time::Duration,
    base_seed: u64,
) -> Exploration {
    let start = std::time::Instant::now();
    let mut execs = 0;
    let mut seed = base_seed.max(1);
    while start.elapsed() < budget {
        let mut c = cfg.clone();
        c.strategy = Strategy::Pct { seed };
        let out = run_one(make(), &[], &c);
        execs += 1;
        if out.failure.is_some() {
            return Exploration::Failed {
                outcome: out,
                execs,
            };
        }
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    Exploration::Clean { execs }
}

/// Minimizes a failing choice string: finds the shortest forced prefix
/// whose default-completed execution still fails, then returns that
/// execution (fewest deviations from the sequential default schedule).
pub fn minimize(
    mut make: impl FnMut() -> Box<dyn FnOnce() + Send + 'static>,
    cfg: &ExecCfg,
    failing: &ExecOutcome,
) -> ExecOutcome {
    let picks: Vec<usize> = failing.choices.iter().map(|c| c.picked).collect();
    let mut replay_cfg = cfg.clone();
    replay_cfg.strategy = Strategy::Dfs;
    for len in 0..=picks.len() {
        let out = run_one(make(), &picks[..len], &replay_cfg);
        if out.failure.is_some() {
            return out;
        }
    }
    // The full pick string must fail (deterministic replay).
    failing.clone()
}

/// Deterministically replays a choice string (e.g. a minimized schedule);
/// returns the resulting execution.
pub fn replay(
    scenario: Box<dyn FnOnce() + Send + 'static>,
    picks: &[usize],
    cfg: &ExecCfg,
) -> ExecOutcome {
    let mut c = cfg.clone();
    c.strategy = Strategy::Dfs;
    run_one(scenario, picks, &c)
}
