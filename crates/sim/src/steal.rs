//! The work-stealing runtime: per-PE Chase–Lev deques, a sharded mailbox
//! mesh for cross-PE envelopes, and adaptive parking.
//!
//! A runtime with one channel mailbox per PE improved marking only ~1.4×
//! from 1 → 16 PEs and *anti-scaled* past 4 PEs on tree_d15, because
//! every delivery serialized on the channel's internal lock and every
//! empty-mailbox wait took the condvar/syscall wakeup path. Here nothing
//! funnels:
//!
//! * each PE owns a [`StealDeque`]: local spawns are LIFO push/pop
//!   (depth-first, cache-warm), and idle PEs steal half a victim's
//!   oldest tasks — the structurally shallowest, i.e. the largest
//!   remaining subtrees — so one steal buys a long private runway;
//! * cross-PE envelopes travel the [`MailboxGrid`]'s SPSC rings — one
//!   Release store per send, no locks, senders never block;
//! * tasks are plain `u64`s, so spawning allocates nothing, and the top
//!   [`DEPTH_BITS`] carry a saturating depth hint: drained mailbox
//!   batches are executed deepest-first, which bounds the straggler tail
//!   on unbalanced digraphs (critical-path-aware scheduling);
//! * idle workers spin briefly (only when real cores are available),
//!   then yield, then park with a bounded timeout — the adaptive backoff
//!   that fixes the tree_d15 wakeup ping-pong;
//! * termination is a single global in-flight counter that tracks only
//!   *visible* tasks (deques and mailboxes): a handler's local spawns
//!   either continue directly (task chaining) or sit in a private spill
//!   covered by the unit the worker already holds, publishes draw on
//!   credit registered a block at a time, and releases are batched to
//!   the worker's idle beats — a 1-PE pass over a million tasks touches
//!   the counter a handful of times, a multi-PE pass once per few
//!   hundred publishes;
//! * what one worker writes and another polls sits on its own cache
//!   lines ([`CachePadded`]): each deque's and ring's two indices, each
//!   park flag. Side by side, two PEs' deque indices shared one line and
//!   every push invalidated the other PE's pop. (The counter is touched
//!   too rarely for its line to matter: padding it measured as nothing.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dgr_atomic::CachePadded;
use dgr_graph::PeId;
use dgr_telemetry::{
    CounterId, GaugeId, HeartbeatHandle, HistId, PeSchedSnapshot, Registry, SchedState,
};

use crate::deque::StealDeque;
use crate::mailbox::MailboxGrid;
use crate::quiesce::QuiesceState;

/// Bits of a task word reserved for the depth/priority hint (the top
/// bits, so depth sorts tasks without unpacking them).
pub const DEPTH_BITS: u32 = 6;
/// Shift that positions the depth hint.
pub const DEPTH_SHIFT: u32 = 64 - DEPTH_BITS;
/// Largest encodable depth hint; deeper tasks saturate here.
pub const DEPTH_MAX: u64 = (1 << DEPTH_BITS) - 1;

/// Stamps `depth` (saturating) into the hint bits of `task`.
pub fn with_depth(task: u64, depth: u64) -> u64 {
    (task & !(DEPTH_MAX << DEPTH_SHIFT)) | (depth.min(DEPTH_MAX) << DEPTH_SHIFT)
}

/// Reads a task's depth hint back.
pub fn task_depth(task: u64) -> u64 {
    task >> DEPTH_SHIFT
}

/// Tallies a handler keeps through [`SpawnScope::credit`].
pub const TALLIES: usize = 2;

/// Counters from one [`StealRuntime::run`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Tasks executed (every spawned task exactly once).
    pub executed: u64,
    /// Work the handlers did in place of spawning, as they credited it
    /// through [`SpawnScope::credit`], one sum per tally; the runtime adds
    /// it up per worker and gives it no other meaning.
    pub credited: [u64; TALLIES],
    /// Cross-PE envelopes sent through the mailbox grid (counted at the
    /// send decision, whether or not the task was briefly staged).
    pub envelopes: u64,
    /// Successful steal operations (each transfers ≥ 1 task).
    pub steals: u64,
    /// Steal attempts that found the victim empty or lost a race.
    pub steal_fails: u64,
    /// Times a worker found nothing anywhere and parked on the timeout.
    pub parks: u64,
    /// Largest private spill depth (`spill` + `spill_reg`) any worker
    /// reached — how far local work outran the stealable window.
    pub spill_hw: u64,
}

/// Handle a task handler uses to spawn follow-up tasks.
///
/// Spawns are buffered; after the handler returns, the runtime registers
/// them with the in-flight counter *before* publishing any of them, keeps
/// the last local spawn for direct continuation (task chaining), pushes
/// the rest onto the PE's deque, and routes remote spawns through the
/// mailbox grid.
pub struct SpawnScope<'w> {
    me: PeId,
    num_pes: usize,
    out: &'w mut Vec<(PeId, u64)>,
    credited: &'w mut [u64; TALLIES],
}

impl SpawnScope<'_> {
    /// The PE executing the current task.
    pub fn me(&self) -> PeId {
        self.me
    }

    /// Number of PEs in the system.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Spawns `task` for PE `dst` (which may be this PE).
    pub fn spawn(&mut self, dst: PeId, task: u64) {
        self.out.push((dst, task));
    }

    /// Credits `n[i]` units of work of tally `i` that this task did in
    /// place instead of spawning them. Plain adds to the executing
    /// worker's own counters, summed into [`StealStats::credited`] when
    /// the pass ends.
    // Called per task on the marking hot path, from another crate: left
    // to itself, rustc keeps this loop out of line there.
    #[inline]
    pub fn credit(&mut self, n: [u64; TALLIES]) {
        for (t, n) in self.credited.iter_mut().zip(n) {
            *t += n;
        }
    }
}

/// Per-PE parking slot: the flag senders check and the handle they kick.
#[derive(Debug, Default)]
struct ParkSlot {
    /// SeqCst on both sides: the parker stores `true` then re-checks for
    /// work; a sender publishes work then loads the flag. Sequential
    /// consistency rules out both sides missing each other, and the
    /// bounded `park_timeout` backstops the residual shutdown races.
    parked: AtomicBool,
    thread: Mutex<Option<std::thread::Thread>>,
}

impl ParkSlot {
    fn wake(&self) {
        // ordering: SeqCst pairs with the parker's SeqCst flag store (see
        // the field docs) — rules out both sides missing each other.
        if self.parked.load(Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("park slot poisoned").as_ref() {
                t.unpark();
            }
        }
    }
}

/// Shared state of one running pass.
struct Mesh<'t> {
    deques: Vec<StealDeque>,
    grid: MailboxGrid,
    /// In-flight *registered* tasks: seeds plus every spawn published to
    /// a deque or mailbox (visible to other workers). Private-spill tasks
    /// are deliberately not counted — a worker defers the release of
    /// every registered task it consumed until its local backlog is
    /// empty, so while unregistered work exists its worker holds at least
    /// one unit. The count reaching zero therefore proves no task exists
    /// or can appear anywhere. The counter + terminal flag live in
    /// [`QuiesceState`] so the model checker can explore the protocol's
    /// orderings in isolation (see `crate::quiesce`).
    quiesce: QuiesceState,
    parks: Vec<CachePadded<ParkSlot>>,
    telem: &'t Registry,
}

impl Mesh<'_> {
    fn finish_check(&self, released: usize) {
        // The AcqRel/Release discipline lives in `QuiesceState::release`;
        // the zero-observer additionally owns waking every parked worker.
        if self.quiesce.release(released) {
            for p in &self.parks {
                p.wake();
            }
        }
    }
}

/// Below this many tasks in the shared deque, local spawns are published
/// there (stealable); at or above it they stay in the private spill —
/// plain `Vec` pushes with no fences. Keeping only a window of work
/// visible makes the owner's hot path allocation- and fence-free while
/// still leaving thieves a full steal-half's worth to take.
const DEQUE_LOW_WATER: usize = 64;

/// Per-worker mutable state (never shared).
struct Worker {
    me: usize,
    /// Private local work that was never registered with the in-flight
    /// counter: it rides on the pending unit of the chain that spawned it
    /// (see `held_releases`), so a 1-PE pass runs with essentially no
    /// counter traffic at all. Unstealable, which costs balance, never
    /// correctness — and costs no atomics, which is why the owner prefers
    /// it (see [`DEQUE_LOW_WATER`]).
    spill: Vec<u64>,
    /// Private local work that **is** registered: deque-full overflow of
    /// tasks already counted (absorbed batches, seeds). Executing one
    /// obliges a deferred release, exactly like a deque pop.
    spill_reg: Vec<u64>,
    /// Pending units this worker consumed (registered tasks it executed)
    /// but has not released yet. Flushed on the first idle beat — while
    /// the worker has local work it holds at least one unit, which is
    /// what lets unregistered spill tasks exist without the global count
    /// ever falsely reaching zero.
    held_releases: usize,
    /// Units registered ahead of the publishes that will use them (see
    /// [`QuiesceState::publish_covered`]); what is left goes back with
    /// `held_releases`.
    credit: usize,
    /// Cached "the shared deque wants more work" decision, refreshed once
    /// per chain rather than per spawn. Always `false` in a 1-PE system,
    /// where no thief exists and the deque is pure overhead.
    feed_deque: bool,
    /// Per-destination staging for mailbox-full remote sends, retried on
    /// idle beats (senders never block — see [`MailboxGrid`]).
    stage: Vec<Vec<u64>>,
    /// Scratch for handler spawns and drained/stolen batches.
    spawned: Vec<(PeId, u64)>,
    batch: Vec<u64>,
    /// xorshift64* state for victim selection (seeded per PE, no clock).
    rng: u64,
    executed: u64,
    credited: [u64; TALLIES],
    envelopes: u64,
    steals: u64,
    steal_fails: u64,
    parks: u64,
    deque_high: u64,
    spill_hw: u64,
}

impl Worker {
    /// Tracks the private spill's high-water (both tiers together).
    fn note_spill_depth(&mut self) {
        let depth = (self.spill.len() + self.spill_reg.len()) as u64;
        self.spill_hw = self.spill_hw.max(depth);
    }
}

impl Worker {
    fn next_victim(&mut self, num_pes: usize) -> usize {
        // xorshift64*: cheap, decent spread, deterministic per PE.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let r = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize;
        let v = r % (num_pes - 1);
        if v >= self.me {
            v + 1
        } else {
            v
        }
    }
}

/// A work-stealing parallel runtime: one worker thread per PE, a
/// [`StealDeque`] each, and a [`MailboxGrid`] between them.
///
/// [`StealRuntime::run`] seeds the initial tasks, lets handlers spawn
/// until global quiescence, and returns the pass counters. Tasks are
/// `u64` words — encoding is the caller's contract, except the top
/// [`DEPTH_BITS`] which the runtime reads as a scheduling hint.
///
/// # Example
///
/// ```
/// use dgr_graph::PeId;
/// use dgr_sim::StealRuntime;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // Count down from 5, hopping PEs: 6 tasks total.
/// let hits = AtomicU64::new(0);
/// let stats = StealRuntime::new(4).run(vec![(PeId::new(0), 5)], |scope, n| {
///     hits.fetch_add(1, Ordering::SeqCst);
///     if n > 0 {
///         let next = PeId::new((scope.me().raw() + 1) % 4);
///         scope.spawn(next, n - 1);
///     }
/// });
/// assert_eq!(stats.executed, 6);
/// assert_eq!(hits.load(Ordering::SeqCst), 6);
/// ```
#[derive(Debug)]
pub struct StealRuntime {
    num_pes: u16,
    deque_capacity: usize,
    mailbox_capacity: usize,
}

/// Per-PE deque ring capacity (overflow spills to a private per-worker
/// vector).
const DEQUE_CAPACITY: usize = 8192;
/// Per-(sender, receiver) mailbox ring capacity (overflow stages at the
/// sender).
const MAILBOX_CAPACITY: usize = 1024;

impl StealRuntime {
    /// Creates a runtime with `num_pes` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is zero.
    pub fn new(num_pes: u16) -> Self {
        Self::with_rings(num_pes, DEQUE_CAPACITY, MAILBOX_CAPACITY)
    }

    fn with_rings(num_pes: u16, deque_capacity: usize, mailbox_capacity: usize) -> Self {
        assert!(num_pes > 0, "a system needs at least one PE");
        StealRuntime {
            num_pes,
            deque_capacity,
            mailbox_capacity,
        }
    }

    /// Runs `handler` on every task until global quiescence. The handler
    /// executes on some PE's worker thread — *not* necessarily the task's
    /// destination PE's: a task spawned for PE `d` starts on `d` (via
    /// deque or mailbox) but may be stolen by an idle PE. State shared
    /// between tasks must therefore be location-independent (atomics, such
    /// as the mark words of a [`SharedGraph`](crate::SharedGraph)).
    pub fn run<F>(&self, initial: Vec<(PeId, u64)>, handler: F) -> StealStats
    where
        F: Fn(&mut SpawnScope<'_>, u64) + Sync,
    {
        self.run_observed(
            initial,
            handler,
            &Registry::new(self.num_pes),
            &HeartbeatHandle::new(),
        )
    }

    /// [`StealRuntime::run`] with telemetry and a liveness pulse: per PE
    /// the registry records executed tasks, steals and failed steals
    /// (plus the victim-bucketed `stolen_from` / `stolen_tasks` /
    /// `steal_misses` counters), drained batches and their sizes, steal
    /// batch sizes, mailbox/deque/spill depth gauges, park events with
    /// wake latency, and a full [`SchedState`] state clock — every loop
    /// transition charges wall-clock to exactly one state, emitted as
    /// per-pass `sched_*` delta instants when the pass ends (so several
    /// passes on one registry each report only their own time); `hb`
    /// beats once per local drain run. In a default (no-`telemetry`)
    /// build both are zero-sized no-ops.
    pub fn run_observed<F>(
        &self,
        initial: Vec<(PeId, u64)>,
        handler: F,
        telem: &Registry,
        hb: &HeartbeatHandle,
    ) -> StealStats
    where
        F: Fn(&mut SpawnScope<'_>, u64) + Sync,
    {
        let n = self.num_pes as usize;
        if initial.is_empty() {
            return StealStats::default();
        }
        let mesh = Mesh {
            deques: (0..n)
                .map(|_| StealDeque::new(self.deque_capacity))
                .collect(),
            grid: MailboxGrid::new(n, self.mailbox_capacity),
            quiesce: QuiesceState::new(initial.len()),
            parks: (0..n).map(|_| CachePadded::default()).collect(),
            telem,
        };
        // Seed before any worker exists: each destination deque is still
        // unshared, so owner-only pushes from here are fine. Seeds that
        // overflow a deque go to the owner's spill via a pre-filled list.
        let mut seed_spill: Vec<Vec<u64>> = (0..n).map(|_| Vec::new()).collect();
        for (dst, task) in initial {
            if let Err(t) = mesh.deques[dst.index()].push(task) {
                seed_spill[dst.index()].push(t);
            }
        }

        let totals = Mutex::new(StealStats::default());
        // Per-PE clock baselines taken before any worker runs: the
        // state clock accumulates across passes on a shared registry,
        // so the pass-end instants below report this pass's deltas.
        let sched_base: Vec<PeSchedSnapshot> = if telem.enabled() {
            (0..n as u16).map(|pe| telem.sched_snapshot(pe)).collect()
        } else {
            Vec::new()
        };
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        std::thread::scope(|scope| {
            for (me, spill) in seed_spill.into_iter().enumerate() {
                let mesh = &mesh;
                let handler = &handler;
                let totals = &totals;
                scope.spawn(move || {
                    let mut w = Worker {
                        me,
                        spill: Vec::new(),
                        spill_reg: spill,
                        held_releases: 0,
                        credit: 0,
                        feed_deque: n > 1,
                        stage: (0..n).map(|_| Vec::new()).collect(),
                        spawned: Vec::new(),
                        batch: Vec::new(),
                        rng: 0x9E37_79B9_7F4A_7C15 ^ ((me as u64 + 1) << 17),
                        executed: 0,
                        credited: [0; TALLIES],
                        envelopes: 0,
                        steals: 0,
                        steal_fails: 0,
                        parks: 0,
                        deque_high: 0,
                        spill_hw: 0,
                    };
                    w.note_spill_depth(); // overflowed seeds count too
                    *mesh.parks[me].thread.lock().expect("park slot poisoned") =
                        Some(std::thread::current());
                    run_worker(&mut w, mesh, handler, hb, multicore);
                    mesh.telem.sched_finish(me as u16);
                    let shard = mesh.telem.pe(me as u16);
                    shard.add(CounterId::Steals, w.steals);
                    shard.add(CounterId::StealFails, w.steal_fails);
                    shard.gauge_max(GaugeId::DequeHighWater, w.deque_high as i64);
                    shard.gauge_max(GaugeId::SpillHighWater, w.spill_hw as i64);
                    shard.observe(HistId::DequeDepthPeak, w.deque_high);
                    let mut t = totals.lock().expect("pass totals poisoned");
                    t.executed += w.executed;
                    for (t, w) in t.credited.iter_mut().zip(w.credited) {
                        *t += w;
                    }
                    t.envelopes += w.envelopes;
                    t.steals += w.steals;
                    t.steal_fails += w.steal_fails;
                    t.parks += w.parks;
                    t.spill_hw = t.spill_hw.max(w.spill_hw);
                });
            }
        });
        debug_assert_eq!(mesh.quiesce.pending(), 0);
        // Each PE's clock delta against its pre-spawn baseline, as one
        // ledger — the events `dgr-trace blame` sums. Deltas (not
        // cumulative totals) mean several passes on one shared registry
        // blame correctly: each pass's instants carry only its own time.
        for (pe, base) in (0u16..).zip(&sched_base) {
            telem.emit(pe, 0, &telem.sched_snapshot(pe).since(base));
        }
        totals.into_inner().expect("pass totals poisoned")
    }
}

/// Executes one task plus its whole local chain: the handler's last local
/// spawn continues directly (no deque round-trip, no counter RMW), other
/// spawns are published first. Returns how many tasks ran.
fn run_chain<F>(w: &mut Worker, mesh: &Mesh<'_>, handler: &F, first: u64) -> u64
where
    F: Fn(&mut SpawnScope<'_>, u64) + Sync,
{
    let n = mesh.deques.len();
    let me = w.me;
    let mut ran = 0u64;
    let mut task = first;
    loop {
        ran += 1;
        let mut scope = SpawnScope {
            me: PeId::new(me as u16),
            num_pes: n,
            out: &mut w.spawned,
            credited: &mut w.credited,
        };
        handler(&mut scope, task);
        // Keep one local spawn as the chain's next link; everything else
        // is published. The *last* local spawn is the deepest child under
        // depth-ordered spawning, which keeps the chain depth-first.
        let mut next = None;
        for i in (0..w.spawned.len()).rev() {
            if w.spawned[i].0.index() == me {
                next = Some(w.spawned.swap_remove(i).1);
                break;
            }
        }
        if !w.spawned.is_empty() {
            // Only spawns that become visible to other workers (deque or
            // mailbox) draw on registered credit; private-spill spawns
            // ride on this chain's own pending unit. `publish_covered`
            // tops the credit up before it runs the publish, so the count
            // never falsely dips to zero (the ordering rationale lives on
            // `QuiesceState::register`).
            let visible = if w.feed_deque {
                w.spawned.len()
            } else {
                w.spawned.iter().filter(|(d, _)| d.index() != me).count()
            };
            let shard = mesh.telem.pe(me as u16);
            mesh.quiesce.publish_covered(&mut w.credit, visible, || {
                for (dst, t) in w.spawned.drain(..) {
                    let d = dst.index();
                    if d == me {
                        shard.inc(CounterId::SendsLocal);
                        if w.feed_deque {
                            // Covered above; overflow keeps the unit.
                            if let Err(t) = mesh.deques[me].push(t) {
                                w.spill_reg.push(t);
                            }
                        } else {
                            w.spill.push(t);
                        }
                    } else {
                        shard.inc(CounterId::SendsRemote);
                        w.envelopes += 1;
                        match mesh.grid.push(me, d, t) {
                            Ok(()) => mesh.parks[d].wake(),
                            Err(t) => w.stage[d].push(t),
                        }
                    }
                }
            });
            w.note_spill_depth();
            if mesh.telem.enabled() {
                let depth = mesh.deques[me].len() as u64;
                w.deque_high = w.deque_high.max(depth);
                shard.gauge_set(GaugeId::DequeDepth, depth as i64);
            }
        }
        match next {
            Some(t) => task = t,
            None => break,
        }
    }
    ran
}

/// Retries previously staged remote sends; returns `true` if any ring
/// accepted one (progress was made).
fn flush_stage(w: &mut Worker, mesh: &Mesh<'_>) -> bool {
    let mut progressed = false;
    for d in 0..w.stage.len() {
        while let Some(&t) = w.stage[d].last() {
            match mesh.grid.push(w.me, d, t) {
                Ok(()) => {
                    w.stage[d].pop();
                    mesh.parks[d].wake();
                    progressed = true;
                }
                Err(_) => break,
            }
        }
    }
    progressed
}

/// Moves a drained/stolen batch into the local deque deepest-last, so the
/// LIFO pop order executes the structurally deepest work first. Batch
/// tasks are already registered (by their original publisher), so deque
/// overflow keeps them in the registered spill.
fn absorb_batch(w: &mut Worker, mesh: &Mesh<'_>) {
    w.batch.sort_unstable_by_key(|&t| task_depth(t));
    for &t in &w.batch {
        if let Err(t) = mesh.deques[w.me].push(t) {
            w.spill_reg.push(t);
        }
    }
    w.batch.clear();
    w.note_spill_depth();
}

fn run_worker<F>(
    w: &mut Worker,
    mesh: &Mesh<'_>,
    handler: &F,
    hb: &HeartbeatHandle,
    multicore: bool,
) where
    F: Fn(&mut SpawnScope<'_>, u64) + Sync,
{
    let n = mesh.deques.len();
    let me = w.me;
    let mut idle_spins = 0u32;
    loop {
        // 1. Local work: private spill first (it is invisible to thieves,
        // so draining it first caps its growth), then the deque. Chains
        // rooted at a registered task (seed, deque, absorbed batch)
        // accumulate a deferred release; unregistered spill chains ride
        // on the units already held.
        let (local, registered) = match w.spill.pop() {
            Some(t) => (Some(t), false),
            None => match w.spill_reg.pop() {
                Some(t) => (Some(t), true),
                None => (mesh.deques[me].pop(), true),
            },
        };
        if let Some(task) = local {
            // Re-entering `Work` from `Work` is a single relaxed load, so
            // a long run of local chains pays one clock read total.
            mesh.telem.sched_enter(me as u16, SchedState::Work);
            let ran = run_chain(w, mesh, handler, task);
            if registered {
                w.held_releases += 1;
            }
            w.executed += ran;
            mesh.telem.pe(me as u16).add(CounterId::Tasks, ran);
            hb.progress(ran);
            // Once per chain (not per spawn): decide whether the next
            // chain's local spawns should top up the stealable window.
            w.feed_deque = n > 1 && mesh.deques[me].len() < DEQUE_LOW_WATER;
            idle_spins = 0;
            continue;
        }
        // Out of local work: flush the deferred releases and hand back
        // the unused credit — only now can the global count legitimately
        // reach zero on our account.
        mesh.telem.sched_enter(me as u16, SchedState::MailboxDrain);
        let returned = std::mem::take(&mut w.held_releases) + std::mem::take(&mut w.credit);
        if returned > 0 {
            mesh.finish_check(returned);
        }
        // 2. Retry staged remote sends while idle.
        let progressed = flush_stage(w, mesh);
        // 3. Drain our mailbox rings: envelopes other PEs routed here.
        let drained = mesh.grid.drain(me, &mut w.batch);
        if drained > 0 {
            let shard = mesh.telem.pe(me as u16);
            shard.inc(CounterId::Batches);
            shard.observe(HistId::BatchSize, drained as u64);
            absorb_batch(w, mesh);
            idle_spins = 0;
            continue;
        }
        // 4. Steal half of a random victim's deque. Steal outcomes are
        // bucketed by victim: the thief bumps the *victim's* shard
        // (relaxed counters make the cross-PE increment safe), so the
        // exporter answers "who is everyone stealing from" per PE.
        if n > 1 {
            mesh.telem.sched_enter(me as u16, SchedState::StealSearch);
            let victim = w.next_victim(n);
            let got = mesh.deques[victim].steal_half(&mut w.batch);
            if got > 0 {
                w.steals += 1;
                let vshard = mesh.telem.pe(victim as u16);
                vshard.inc(CounterId::StolenFrom);
                vshard.add(CounterId::StolenTasks, got as u64);
                mesh.telem
                    .pe(me as u16)
                    .observe(HistId::StealBatch, got as u64);
                absorb_batch(w, mesh);
                idle_spins = 0;
                continue;
            }
            w.steal_fails += 1;
            mesh.telem.pe(victim as u16).inc(CounterId::StealMisses);
        }
        if progressed {
            idle_spins = 0;
            continue;
        }
        // 5. Nothing anywhere: quiescent, or back off adaptively.
        if mesh.quiesce.is_done() {
            mesh.telem.sched_enter(me as u16, SchedState::Quiesce);
            break;
        }
        idle_spins += 1;
        if multicore && idle_spins < 64 {
            mesh.telem.sched_enter(me as u16, SchedState::Spin);
            std::hint::spin_loop();
        } else if idle_spins < 96 {
            mesh.telem.sched_enter(me as u16, SchedState::Yield);
            std::thread::yield_now();
        } else {
            // Park with the flag raised; the post-flag re-check of the
            // mailbox closes the publish/park race, and the timeout
            // bounds any residual lost wakeup (and paces stage retries).
            // ordering: SeqCst on the flag — see the ParkSlot field docs.
            mesh.telem.sched_enter(me as u16, SchedState::Park);
            mesh.parks[me].parked.store(true, Ordering::SeqCst);
            if mesh.grid.depth(me) == 0 && mesh.deques[me].is_empty() && !mesh.quiesce.is_done() {
                mesh.telem.pe(me as u16).inc(CounterId::Parks);
                w.parks += 1;
                if mesh.telem.enabled() {
                    // The wake-latency clock read only exists in
                    // telemetry builds — the default park path stays
                    // syscall-only.
                    let t = Instant::now();
                    std::thread::park_timeout(Duration::from_micros(100));
                    mesh.telem
                        .pe(me as u16)
                        .observe(HistId::ParkWakeUs, t.elapsed().as_micros() as u64);
                } else {
                    std::thread::park_timeout(Duration::from_micros(100));
                }
            }
            // ordering: SeqCst on the flag — see the ParkSlot field docs.
            mesh.parks[me].parked.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn depth_hint_roundtrips_and_saturates() {
        let t = with_depth(0x00AB_CDEF, 5);
        assert_eq!(task_depth(t), 5);
        assert_eq!(t & 0x00FF_FFFF, 0x00AB_CDEF);
        assert_eq!(task_depth(with_depth(0, 1_000_000)), DEPTH_MAX);
        assert_eq!(task_depth(with_depth(t, 2)), 2, "restamp replaces");
    }

    #[test]
    fn park_flags_never_share_a_line() {
        let parks: Vec<CachePadded<ParkSlot>> = (0..3).map(|_| CachePadded::default()).collect();
        let at: Vec<usize> = parks
            .iter()
            .map(|p| std::ptr::from_ref(&p.parked) as usize)
            .collect();
        assert!(at.windows(2).all(|w| w[1] - w[0] >= 128), "{at:?}");
    }

    #[test]
    fn empty_initial_returns_immediately() {
        let stats = StealRuntime::new(4).run(vec![], |_, _| panic!("no tasks"));
        assert_eq!(stats, StealStats::default());
    }

    #[test]
    fn fanout_executes_every_task_exactly_once() {
        // Each task with n > 0 spawns two tasks with n - 1 on other PEs:
        // 2^(k+1) - 1 executions for initial n = k.
        for pes in [1u16, 2, 4, 8] {
            let hits = AtomicU64::new(0);
            let stats = StealRuntime::new(pes).run(vec![(PeId::new(0), 10)], |scope, n| {
                hits.fetch_add(1, Ordering::SeqCst);
                if n > 0 {
                    for t in 0..2u16 {
                        let dst = PeId::new((scope.me().raw() + t + 1) % pes.max(1));
                        scope.spawn(dst, n - 1);
                    }
                }
            });
            assert_eq!(stats.executed, (1 << 11) - 1, "{pes} PEs");
            assert_eq!(hits.load(Ordering::SeqCst), (1 << 11) - 1);
        }
    }

    #[test]
    fn local_spawns_chain_without_losing_any() {
        // A pure chain: every task spawns one local successor.
        let stats = StealRuntime::new(2).run(vec![(PeId::new(1), 5000u64)], |scope, n| {
            if n > 0 {
                let me = scope.me();
                scope.spawn(me, n - 1);
            }
        });
        assert_eq!(stats.executed, 5001);
    }

    #[test]
    fn tiny_rings_force_spill_and_staging() {
        // Deque cap 8 and mailbox cap 8 with a 2^12 fan-out exercises the
        // spill vector and the sender-side stage heavily.
        let hits = AtomicU64::new(0);
        let rt = StealRuntime::with_rings(3, 8, 8);
        let stats = rt.run(vec![(PeId::new(0), 12u64)], |scope, n| {
            hits.fetch_add(1, Ordering::SeqCst);
            if n > 0 {
                for t in 0..2u16 {
                    let dst = PeId::new((scope.me().raw() + t) % 3);
                    scope.spawn(dst, n - 1);
                }
            }
        });
        assert_eq!(stats.executed, (1 << 13) - 1);
        assert_eq!(hits.load(Ordering::SeqCst), (1 << 13) - 1);
    }

    #[test]
    fn credits_add_up_across_workers() {
        // Leaves credit one unit each instead of running two more tasks,
        // and three units of the second tally.
        for pes in [1u16, 2, 4] {
            let stats = StealRuntime::new(pes).run(vec![(PeId::new(0), 8u64)], |scope, n| {
                if n == 0 {
                    scope.credit([1, 3]);
                    return;
                }
                for t in 0..2u16 {
                    let dst = PeId::new((scope.me().raw() + t) % pes);
                    scope.spawn(dst, n - 1);
                }
            });
            assert_eq!(stats.executed, (1 << 9) - 1, "{pes} PEs");
            assert_eq!(stats.credited, [1 << 8, 3 << 8], "{pes} PEs");
        }
    }

    #[test]
    fn remote_spawns_count_envelopes() {
        let stats = StealRuntime::new(2).run(vec![(PeId::new(0), 4u64)], |scope, n| {
            if n > 0 {
                // Always hop to the other PE.
                let dst = PeId::new(1 - scope.me().raw());
                scope.spawn(dst, n - 1);
            }
        });
        assert_eq!(stats.executed, 5);
        assert_eq!(stats.envelopes, 4, "every non-seed hop crossed PEs");
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = StealRuntime::new(0);
    }
}
