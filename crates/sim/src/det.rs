//! The deterministic event simulator.

use std::collections::VecDeque;

use dgr_graph::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::msg::{Envelope, Lane, PerLane};
use crate::stats::SimStats;

/// How the simulator picks the next task to execute.
///
/// All policies are deterministic given the seed passed to
/// [`DetSim::new`]. Varying the seed of [`SchedPolicy::Random`] explores
/// different interleavings of marking, mutation and reduction — the space
/// the paper's informal proofs quantify over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// Globally oldest message first (breadth-first propagation).
    Fifo,
    /// Globally newest message first (depth-first propagation).
    Lifo,
    /// Rotate among PEs that have work; oldest message within the PE.
    RoundRobin,
    /// Uniformly random choice among pending messages, except that marking
    /// messages are chosen with probability `marking_bias` when both
    /// marking and non-marking work is pending (`0.5` = unbiased). The
    /// bias acts only where marking messages travel through the mailboxes,
    /// as in `dgr-core`'s own marking passes (`core::driver`); a reduction
    /// system's marking tasks never enter them, so under a GC driver the
    /// policy orders reduction tasks only.
    Random {
        /// Probability of preferring the marking lane when both kinds of
        /// work exist. `0.0` starves marking; `1.0` runs marking eagerly.
        marking_bias: f64,
    },
    /// Highest-preference lane first ([`Lane::ALL`] order), rotating among
    /// PEs within a lane. Models a scheduler that favors marking, then
    /// vital reduction work; as with `Random`'s bias, the marking
    /// preference acts only where marking messages enter the mailboxes
    /// (`core::driver`'s passes), so under a GC driver it orders the
    /// reduction lanes alone.
    PriorityFirst,
    /// Round-synchronous (BSP): in each round every PE, in index order,
    /// runs its oldest pending message across its lanes if that message
    /// was sent before the round began. [`SimStats::rounds`](crate::SimStats::rounds)
    /// is then a pass's ideal parallel time on that many PEs, experiment
    /// T5's hardware-independent scalability measure (wall-clock speedup
    /// needs more hardware threads than a CI container has). Off-mailbox
    /// messages ([`DetSim::send_off_mailbox`]) take sequence numbers but
    /// run outside the rounds.
    Rounds,
}

/// Index of the marking lane, the one lane outside the random policy's
/// non-marking pool.
const MARKING: usize = Lane::Marking.index();

/// One PE's mailboxes: a queue of `(seq, message)` per lane.
type Mailboxes<M> = PerLane<VecDeque<(u64, M)>>;
/// The `(seq, pe)` of a lane's sends, oldest first (see [`DetSim`]'s `mirror`).
type Mirror = VecDeque<(u64, u16)>;

/// Smallest set bit at or after `from` in the `n` words `word(0..n)`.
#[inline]
fn first_bit_at_or_after(n: usize, from: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    let mut mask = !0u64 << (from % 64);
    for w in from / 64..n {
        let bits = word(w) & mask;
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        mask = !0;
    }
    None
}

/// A dense ordered set of small indexes (bit words + popcount) for the
/// occupancy indexes below: O(1) insert/remove with no allocation, and
/// first-at-or-after / select-nth by word scanning (one or two words for
/// realistic PE counts). Callers insert only absent members and remove
/// only present ones (a mailbox turning non-empty / empty).
#[derive(Debug, Clone, Default)]
struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    fn with_capacity(n: usize) -> Self {
        IdSet {
            words: vec![0; n.div_ceil(64).max(1)],
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        debug_assert_eq!(self.words[i / 64] & (1 << (i % 64)), 0);
        self.words[i / 64] |= 1 << (i % 64);
        self.len += 1;
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        debug_assert_ne!(self.words[i / 64] & (1 << (i % 64)), 0);
        self.words[i / 64] &= !(1 << (i % 64));
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The `k`-th smallest member (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len`.
    fn nth(&self, mut k: usize) -> usize {
        for (w, &word) in self.words.iter().enumerate() {
            let c = word.count_ones() as usize;
            if k < c {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1; // drop lowest set bit
                }
                return w * 64 + word.trailing_zeros() as usize;
            }
            k -= c;
        }
        unreachable!("IdSet::nth out of range")
    }
}

/// A deterministic multi-PE message-passing simulator.
///
/// Each PE has one mailbox per [`Lane`]; [`DetSim::send`] enqueues,
/// [`DetSim::next_event`] dequeues according to the policy. Executing the
/// returned message is the caller's job — the simulator only owns delivery
/// order, so the same simulator drives marking, reduction, and combined
/// workloads.
///
/// A delivered message costs one queue operation each way plus the
/// indexes below, one per scheduling question, each a pure cache over the
/// mailboxes: every policy delivers in exactly the order a scan over every
/// PE × lane pair would (the `sched_differential` test pins this against
/// such a scan, RNG draws included).
///
/// | question | index |
/// |---|---|
/// | oldest / newest message of a lane, any PE (`Fifo`, `Lifo`) | `mirror`, built when first asked |
/// | first PE at or after the cursor with work in a lane (`PriorityFirst`) | `lane_pes` |
/// | first PE at or after the cursor with any work (`RoundRobin`) | the OR of the four `lane_pes` words |
/// | the `k`-th non-empty marking / other mailbox (`Random`) | `lane_pes[Marking]`, the three other `lane_pes` read in `(pe, lane)` order |
/// | first PE at or after the cursor whose oldest message predates the round (`Rounds`) | as `RoundRobin`, then `round_start` |
///
/// Round-robin needs no per-PE counter: a PE has work iff some lane's set
/// holds it, and which message it then runs is read off its four queue
/// fronts. Nor do rounds need a per-message mark: seqs are global and
/// queues seq-sorted, so "sent before the round" is `seq < round_start`.
#[derive(Debug)]
pub struct DetSim<M> {
    /// The mailboxes: one queue per `(PE, lane)`, each sorted by sequence
    /// number because sequence numbers are globally monotone.
    pes: Vec<Mailboxes<M>>,
    policy: SchedPolicy,
    rng: StdRng,
    seq: u64,
    pending: usize,
    rr_cursor: usize,
    /// The first sequence number sent in the current round (`Rounds`).
    round_start: u64,
    stats: SimStats,
    /// Per-lane mirror of the pending sends' `(seq, pe)` with **lazy
    /// deletion**, `None` until a `Fifo` or `Lifo` pick first asks for
    /// that lane's oldest or newest (and again after surgery) — the other
    /// policies pick from the occupancy sets and never pay for one. A
    /// mirror is seq-sorted: its first entry still matching the front of
    /// its mailbox queue is the lane's globally oldest pending message,
    /// and its last entry matching a queue back is the newest. A delivery
    /// leaves its entry behind, at the end the pick read it from, and the
    /// next pick, which peeks every lane at that end, discards it: a
    /// mirror holds at most one entry beyond its lane's depth.
    mirror: PerLane<Option<Mirror>>,
    /// Per-lane set of PEs whose mailbox for that lane is non-empty.
    lane_pes: PerLane<IdSet>,
}

impl<M> DetSim<M> {
    /// Creates a simulator with `num_pes` processing elements.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is zero.
    pub fn new(num_pes: u16, policy: SchedPolicy, seed: u64) -> Self {
        assert!(num_pes > 0, "a system needs at least one PE");
        let n = num_pes as usize;
        DetSim {
            pes: (0..n).map(|_| Default::default()).collect(),
            policy,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            pending: 0,
            rr_cursor: 0,
            round_start: 0,
            stats: SimStats::default(),
            mirror: Default::default(),
            lane_pes: std::array::from_fn(|_| IdSet::with_capacity(n)),
        }
    }

    /// Lane `l`'s mirror beside the mailboxes its entries are validated
    /// against, built first if the lane has none: every pending message's
    /// `(seq, pe)`, seq-sorted — queue-concatenation order is not.
    #[inline]
    fn lane_mirror(&mut self, l: usize) -> (&[Mailboxes<M>], &mut Mirror) {
        #[cold]
        fn build<M>(pes: &[Mailboxes<M>], l: usize) -> Mirror {
            let mut m = Mirror::new();
            for (p, lanes) in pes.iter().enumerate() {
                m.extend(lanes[l].iter().map(|&(s, _)| (s, p as u16)));
            }
            m.make_contiguous().sort_unstable();
            m
        }
        let pes = &self.pes[..];
        (pes, self.mirror[l].get_or_insert_with(|| build(pes, l)))
    }

    /// The lane's oldest pending `(seq, pe)`, discarding stale mirror
    /// entries from the front. A front entry is valid iff it matches the
    /// front of its mailbox queue: sequence numbers are unique and the
    /// mirror is seq-sorted, so when `seq` is the mirror minimum every
    /// smaller (hence earlier-queued) message has been delivered, and a
    /// still-pending `seq` must sit at its queue's front.
    #[inline]
    fn lane_oldest(pes: &[Mailboxes<M>], mirror: &mut Mirror, l: usize) -> Option<(u64, u16)> {
        while let Some(&(seq, pe)) = mirror.front() {
            if pes[pe as usize][l].front().map(|&(s, _)| s) == Some(seq) {
                return Some((seq, pe));
            }
            mirror.pop_front();
        }
        None
    }

    /// Mirror of [`DetSim::lane_oldest`] for the newest entry: discards
    /// stale entries from the back, validating against queue backs.
    fn lane_newest(pes: &[Mailboxes<M>], mirror: &mut Mirror, l: usize) -> Option<(u64, u16)> {
        while let Some(&(seq, pe)) = mirror.back() {
            if pes[pe as usize][l].back().map(|&(s, _)| s) == Some(seq) {
                return Some((seq, pe));
            }
            mirror.pop_back();
        }
        None
    }

    /// Reconstructs the occupancy sets and depths from the mailboxes and
    /// drops the mirrors, after bulk surgery (`expunge` / `relane`)
    /// rewrote queues wholesale.
    fn rebuild_index(&mut self) {
        self.mirror = Default::default();
        self.lane_pes.iter_mut().for_each(IdSet::clear);
        let mut depths: PerLane<usize> = Default::default();
        for p in 0..self.pes.len() {
            for (l, depth) in depths.iter_mut().enumerate() {
                let q = &self.pes[p][l];
                *depth += q.len();
                if !q.is_empty() {
                    self.lane_pes[l].insert(p);
                }
            }
        }
        self.stats.set_lane_depths(depths);
    }

    /// Enqueues a message, returning its globally unique sequence number.
    ///
    /// The sequence number doubles as a causal handle:
    /// [`DetSim::next_tagged`] returns it with the message, so a
    /// caller can pair every delivery with its send — the flow-id scheme
    /// the tracing layer builds happens-before edges from — without the
    /// simulator carrying any extra per-message state.
    ///
    /// # Panics
    ///
    /// Panics if the destination PE does not exist.
    #[inline]
    pub fn send(&mut self, env: Envelope<M>) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        let (pe, l) = (env.dst.index(), env.lane.index());
        let q = &mut self.pes[pe][l];
        q.push_back((seq, env.msg));
        if q.len() == 1 {
            self.lane_pes[l].insert(pe);
        }
        self.stats.record_send(env.lane);
        if let Some(mirror) = &mut self.mirror[l] {
            mirror.push_back((seq, pe as u16));
        }
        seq
    }

    /// Records the send of a `lane` message that never enters the
    /// mailboxes — the caller queues and delivers it itself — and returns
    /// its sequence number, the next one, as [`DetSim::send`] would. The
    /// message counts in the lane's depth and high water until
    /// [`DetSim::take_off_mailbox`] takes it, but not in
    /// [`DetSim::len`]: no policy pick ever returns it.
    #[inline]
    pub fn send_off_mailbox(&mut self, lane: Lane) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.stats.record_send(lane);
        seq
    }

    /// Records that the caller took one message it sent with
    /// [`DetSim::send_off_mailbox`] off its own queue: `delivered`, which
    /// counts as a delivery in the lane, or dropped, which leaves the lane
    /// as [`DetSim::expunge`] would.
    #[inline]
    pub fn take_off_mailbox(&mut self, lane: Lane, delivered: bool) {
        if delivered {
            self.stats.record_deliver(lane);
        } else {
            self.stats.record_drop(lane);
        }
    }

    /// Number of pending messages in the mailboxes.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Returns `true` if no messages are pending in the mailboxes.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Restarts per-lane high-water tracking from the current backlogs —
    /// called at marking-cycle boundaries so each cycle's report carries
    /// its own backlog peak (see [`SimStats::lane_high_water`]).
    pub fn reset_lane_high_water(&mut self) {
        self.stats.reset_lane_high_water();
    }

    /// Picks, removes and returns the next message per the policy, or
    /// `None` when the system is quiescent.
    pub fn next_event(&mut self) -> Option<(PeId, Lane, M)> {
        self.next_tagged().map(|(pe, lane, _, m)| (pe, lane, m))
    }

    /// The one dequeue: the policy's pick, with the sequence number
    /// [`DetSim::send`] assigned the message — the handle tracing uses to
    /// match this delivery to its send.
    #[inline]
    pub fn next_tagged(&mut self) -> Option<(PeId, Lane, u64, M)> {
        if self.pending == 0 {
            return None;
        }
        let (pe, lane) = match self.policy {
            SchedPolicy::Fifo => self.pick_extreme(false)?,
            SchedPolicy::Lifo => self.pick_extreme(true)?,
            SchedPolicy::RoundRobin => self.pick_round_robin()?,
            SchedPolicy::Random { marking_bias } => self.pick_random(marking_bias)?,
            SchedPolicy::PriorityFirst => self.pick_priority_first()?,
            SchedPolicy::Rounds => self.pick_rounds(),
        };
        let l = lane.index();
        let q = &mut self.pes[pe][l];
        let (seq, msg) = if matches!(self.policy, SchedPolicy::Lifo) {
            q.pop_back()?
        } else {
            q.pop_front()?
        };
        if q.is_empty() {
            // The mirror entry of what the mailbox held, if the lane has a
            // mirror, stays behind as stale for the next peek to discard.
            self.lane_pes[l].remove(pe);
        }
        self.pending -= 1;
        self.stats.record_deliver(lane);
        Some((PeId::new(pe as u16), lane, seq, msg))
    }

    /// Globally oldest (`newest = false`) or newest pending message. Queues
    /// are seq-sorted, so the lane mirrors' extreme valid entries are
    /// exactly the queue fronts/backs a full scan would compare.
    fn pick_extreme(&mut self, newest: bool) -> Option<(usize, Lane)> {
        let mut best: Option<(u64, u16, Lane)> = None;
        for lane in Lane::ALL {
            let l = lane.index();
            let (pes, mirror) = self.lane_mirror(l);
            let entry = if newest {
                Self::lane_newest(pes, mirror, l)
            } else {
                Self::lane_oldest(pes, mirror, l)
            };
            if let Some((s, pe)) = entry {
                if best.is_none_or(|(bs, _, _)| if newest { s > bs } else { s < bs }) {
                    best = Some((s, pe, lane));
                }
            }
        }
        best.map(|(_, p, l)| (p as usize, l))
    }

    /// First PE at or after the cursor (wrapping) whose bit is set in the
    /// occupancy words `word(0..)`; advances the cursor past it.
    #[inline]
    fn rotate(&mut self, word: impl Fn(&PerLane<IdSet>, usize) -> u64) -> Option<usize> {
        let (sets, n) = (&self.lane_pes, self.lane_pes[0].words.len());
        let p = first_bit_at_or_after(n, self.rr_cursor, |w| word(sets, w))
            .or_else(|| first_bit_at_or_after(n, 0, |w| word(sets, w)))?;
        self.rr_cursor = if p + 1 == self.pes.len() { 0 } else { p + 1 };
        Some(p)
    }

    /// PE `p`'s oldest pending message across its four lanes, as its
    /// `(seq, lane)`.
    #[inline]
    fn oldest_on(&self, p: usize) -> Option<(u64, Lane)> {
        let mut best: Option<(u64, Lane)> = None;
        for lane in Lane::ALL {
            if let Some(&(s, _)) = self.pes[p][lane.index()].front() {
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, lane));
                }
            }
        }
        best
    }

    /// First PE with work at or after the cursor (wrapping) — a PE has
    /// work iff some lane's set holds it — then the oldest message across
    /// that PE's four lanes.
    #[inline]
    fn pick_round_robin(&mut self) -> Option<(usize, Lane)> {
        let p = self.rotate(|sets, w| sets.iter().fold(0, |any, s| any | s.words[w]))?;
        self.oldest_on(p).map(|(_, lane)| (p, lane))
    }

    /// First PE at or after the cursor, not wrapping, whose oldest message
    /// predates the round; the cursor passes every PE it looks at, as a PE
    /// with nothing that old gets nothing that old this round. Past the
    /// last PE the next round begins at PE 0; messages are pending, so it
    /// delivers.
    fn pick_rounds(&mut self) -> (usize, Lane) {
        loop {
            let (sets, n) = (&self.lane_pes, self.lane_pes[0].words.len());
            let any = |w| sets.iter().fold(0, |any, s| any | s.words[w]);
            let Some(p) = first_bit_at_or_after(n, self.rr_cursor, any) else {
                (self.round_start, self.rr_cursor) = (self.seq, 0);
                self.stats.rounds += 1;
                continue;
            };
            self.rr_cursor = p + 1;
            if let Some((_, lane)) = self.oldest_on(p).filter(|&(s, _)| s < self.round_start) {
                return (p, lane);
            }
        }
    }

    /// Biased coin between the marking pool and everything else, then a
    /// uniform pick within the chosen pool. The pools iterate in the same
    /// `(pe, lane)` order a scan materializes them in, and the RNG is
    /// consulted in the same cases, so the stream of draws — and therefore
    /// the delivery order — is that of the scan.
    fn pick_random(&mut self, marking_bias: f64) -> Option<(usize, Lane)> {
        let marking = &self.lane_pes[MARKING];
        let others: usize = self.lane_pes[MARKING + 1..].iter().map(|s| s.len).sum();
        let use_marking = if marking.len == 0 {
            false
        } else if others == 0 {
            true
        } else {
            self.rng.gen_bool(marking_bias.clamp(0.0, 1.0))
        };
        if use_marking {
            let i = self.rng.gen_range(0..marking.len);
            Some((marking.nth(i), Lane::Marking))
        } else {
            if others == 0 {
                return None;
            }
            let i = self.rng.gen_range(0..others);
            Some(self.nth_other(i))
        }
    }

    /// The `k`-th non-empty non-marking mailbox in `(pe, lane)` order, read
    /// off the reduction lanes' sets PE by PE — only this policy asks, so
    /// only it pays.
    fn nth_other(&self, mut k: usize) -> (usize, Lane) {
        let others = self.lane_pes.iter().zip(Lane::ALL).skip(MARKING + 1);
        for pe in 0..self.pes.len() {
            for (set, lane) in others.clone() {
                if set.contains(pe) {
                    if k == 0 {
                        return (pe, lane);
                    }
                    k -= 1;
                }
            }
        }
        unreachable!("nth_other out of range")
    }

    /// Highest-preference non-empty lane, rotating among its PEs.
    fn pick_priority_first(&mut self) -> Option<(usize, Lane)> {
        Lane::ALL.into_iter().find_map(|lane| {
            let p = self.rotate(|sets, w| sets[lane.index()].words[w])?;
            Some((p, lane))
        })
    }

    /// Iterates over all pending messages (for `taskroot` construction and
    /// invariant checks).
    pub fn iter_pending(&self) -> impl Iterator<Item = (PeId, Lane, &M)> {
        self.pes.iter().enumerate().flat_map(|(p, lanes)| {
            Lane::ALL.into_iter().flat_map(move |lane| {
                lanes[lane.index()]
                    .iter()
                    .map(move |(_, m)| (PeId::new(p as u16), lane, m))
            })
        })
    }

    /// Removes pending messages for which `keep` returns `false` (the
    /// restructuring phase's *expunging* of irrelevant tasks). Returns how
    /// many messages were dropped.
    pub fn expunge<F>(&mut self, mut keep: F) -> usize
    where
        F: FnMut(PeId, Lane, &M) -> bool,
    {
        let mut dropped = 0;
        for (p, lanes) in self.pes.iter_mut().enumerate() {
            for lane in Lane::ALL {
                let q = &mut lanes[lane.index()];
                let before = q.len();
                q.retain(|(_, m)| keep(PeId::new(p as u16), lane, m));
                dropped += before - q.len();
            }
        }
        // Nothing dropped: every queue is as it was, so are the indexes.
        if dropped > 0 {
            self.pending -= dropped;
            self.rebuild_index();
        }
        dropped
    }

    /// Re-lanes pending messages (the restructuring phase's dynamic
    /// re-prioritization): for every pending message, `relane` may return a
    /// new lane. Message order (by sequence number) is preserved within
    /// each new lane. Returns how many messages moved.
    pub fn relane<F>(&mut self, mut relane: F) -> usize
    where
        F: FnMut(PeId, Lane, &M) -> Lane,
    {
        let mut moved = 0;
        for (p, lanes) in self.pes.iter_mut().enumerate() {
            let mut staged: Vec<(u64, Lane, M)> = Vec::new();
            for lane in Lane::ALL {
                // `drain` leaves each queue its buffer for the refill.
                for (s, m) in lanes[lane.index()].drain(..) {
                    let new = relane(PeId::new(p as u16), lane, &m);
                    if new != lane {
                        moved += 1;
                    }
                    staged.push((s, new, m));
                }
            }
            staged.sort_by_key(|&(s, _, _)| s);
            for (s, lane, m) in staged {
                lanes[lane.index()].push_back((s, m));
            }
        }
        // Nothing moved: every queue was refilled exactly as it was.
        if moved > 0 {
            self.rebuild_index();
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::Priority;

    fn env(pe: u16, lane: Lane, msg: u32) -> Envelope<u32> {
        Envelope::new(PeId::new(pe), lane, msg)
    }

    #[test]
    fn fifo_is_global_send_order() {
        let mut sim = DetSim::new(3, SchedPolicy::Fifo, 0);
        sim.send(env(2, Lane::Marking, 1));
        sim.send(env(0, Lane::Reduction(Priority::Vital), 2));
        sim.send(env(1, Lane::Reduction(Priority::Reserve), 3));
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn lifo_is_reverse_send_order() {
        let mut sim = DetSim::new(2, SchedPolicy::Lifo, 0);
        for i in 0..4 {
            sim.send(env(i % 2, Lane::Marking, i as u32));
        }
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(got, vec![3, 2, 1, 0]);
    }

    #[test]
    fn round_robin_rotates_pes() {
        let mut sim = DetSim::new(2, SchedPolicy::RoundRobin, 0);
        sim.send(env(0, Lane::Marking, 10));
        sim.send(env(0, Lane::Marking, 11));
        sim.send(env(1, Lane::Marking, 20));
        let got: Vec<(u16, u32)> =
            std::iter::from_fn(|| sim.next_event().map(|(p, _, m)| (p.raw(), m))).collect();
        assert_eq!(got, vec![(0, 10), (1, 20), (0, 11)]);
    }

    #[test]
    fn priority_first_prefers_marking_then_vital() {
        let mut sim = DetSim::new(1, SchedPolicy::PriorityFirst, 0);
        sim.send(env(0, Lane::Reduction(Priority::Reserve), 1));
        sim.send(env(0, Lane::Reduction(Priority::Eager), 2));
        sim.send(env(0, Lane::Marking, 3));
        sim.send(env(0, Lane::Reduction(Priority::Vital), 4));
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(got, vec![3, 4, 2, 1]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = DetSim::new(4, SchedPolicy::Random { marking_bias: 0.5 }, seed);
            for i in 0..32 {
                sim.send(env(
                    (i % 4) as u16,
                    if i % 3 == 0 {
                        Lane::Marking
                    } else {
                        Lane::Reduction(Priority::Vital)
                    },
                    i as u32,
                ));
            }
            std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds explore differently");
    }

    #[test]
    fn random_marking_bias_extremes() {
        // bias 1.0: marking always drains before other lanes.
        let mut sim = DetSim::new(1, SchedPolicy::Random { marking_bias: 1.0 }, 3);
        sim.send(env(0, Lane::Reduction(Priority::Vital), 1));
        sim.send(env(0, Lane::Marking, 2));
        sim.send(env(0, Lane::Marking, 3));
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(&got[..2], &[2, 3]);
    }

    #[test]
    fn expunge_drops_matching() {
        let mut sim = DetSim::new(2, SchedPolicy::Fifo, 0);
        for i in 0..6 {
            sim.send(env(i % 2, Lane::Reduction(Priority::Vital), i as u32));
        }
        let dropped = sim.expunge(|_, _, &m| m % 2 == 0);
        assert_eq!(dropped, 3);
        assert_eq!(sim.len(), 3);
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn relane_moves_messages_preserving_order() {
        let mut sim = DetSim::new(1, SchedPolicy::Fifo, 0);
        sim.send(env(0, Lane::Reduction(Priority::Reserve), 1));
        sim.send(env(0, Lane::Reduction(Priority::Reserve), 2));
        let moved = sim.relane(|_, _, _| Lane::Reduction(Priority::Vital));
        assert_eq!(moved, 2);
        let pending: Vec<(Lane, u32)> = sim.iter_pending().map(|(_, l, &m)| (l, m)).collect();
        assert_eq!(
            pending,
            vec![
                (Lane::Reduction(Priority::Vital), 1),
                (Lane::Reduction(Priority::Vital), 2)
            ]
        );
    }

    #[test]
    fn iter_pending_sees_everything() {
        let mut sim = DetSim::new(3, SchedPolicy::Fifo, 0);
        sim.send(env(0, Lane::Marking, 1));
        sim.send(env(2, Lane::Reduction(Priority::Eager), 2));
        let all: Vec<u32> = sim.iter_pending().map(|(_, _, &m)| m).collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&1) && all.contains(&2));
    }

    #[test]
    fn tagged_dequeues_return_the_send_seq() {
        let mut sim = DetSim::new(2, SchedPolicy::Fifo, 0);
        let s0 = sim.send(env(0, Lane::Marking, 10));
        let s1 = sim.send(env(1, Lane::Reduction(Priority::Vital), 11));
        let s2 = sim.send(env(0, Lane::Marking, 12));
        assert_eq!((s0, s1, s2), (0, 1, 2), "seqs are assigned in send order");
        for (want_seq, want_m) in [(s0, 10), (s1, 11), (s2, 12)] {
            let (_, _, seq, m) = sim.next_tagged().unwrap();
            assert_eq!((seq, m), (want_seq, want_m));
        }
        assert!(sim.next_tagged().is_none());
    }

    /// The three policies that pick by occupancy set, never by mirror.
    const SET_POLICIES: [SchedPolicy; 3] = [
        SchedPolicy::RoundRobin,
        SchedPolicy::PriorityFirst,
        SchedPolicy::Random { marking_bias: 0.5 },
    ];

    /// The `i`-th send of the mirror tests: a stride coprime to both
    /// counts visits every (PE, lane).
    fn strided_send(sim: &mut DetSim<u64>, i: u64) -> Lane {
        let (pe, lane) = ((i * 7 % 4) as u16, Lane::ALL[(i * 5 % 4) as usize]);
        sim.send(Envelope::new(PeId::new(pe), lane, i));
        lane
    }

    /// Nobody asks for a lane's oldest or newest under these policies, so
    /// no lane ever has a mirror to maintain.
    #[test]
    fn no_mirror_exists_when_only_the_policy_picks() {
        for policy in SET_POLICIES {
            let mut sim = DetSim::new(4, policy, 11);
            for i in 0..24 {
                strided_send(&mut sim, i);
            }
            for i in 24..1_000_024 {
                strided_send(&mut sim, i);
                sim.next_event().expect("backlog is never empty");
            }
            assert_eq!(sim.len(), 24);
            assert!(sim.mirror.iter().all(Option::is_none), "{policy:?}");
        }
    }

    /// Under the two policies that read the mirrors, every pick peeks
    /// every lane at the end it delivers from, so a mirror never holds
    /// more than the one stale entry the last delivery left behind —
    /// through surgery too, which drops the mirrors for the next pick to
    /// rebuild.
    #[test]
    fn a_mirror_holds_at_most_one_entry_beyond_its_lane_depth() {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Lifo] {
            let mut sim = DetSim::new(4, policy, 11);
            for i in 0..28 {
                strided_send(&mut sim, i);
            }
            for i in 28..100_028 {
                strided_send(&mut sim, i);
                sim.next_event().expect("backlog is never empty");
                if i % 10_000 == 0 {
                    let dropped = sim.expunge(|_, _, &m| m % 3 != 0);
                    let rebuilt = dropped == 0 || sim.mirror.iter().all(Option::is_none);
                    assert!(rebuilt, "{policy:?}: surgery drops the mirrors");
                    (0..dropped as u64).for_each(|j| _ = strided_send(&mut sim, i + j));
                }
                for lane in Lane::ALL {
                    let depth = sim.stats().lane_depth(lane);
                    let n = sim.mirror[lane.index()].as_ref().map_or(0, VecDeque::len);
                    assert!(n <= depth + 1, "{policy:?} {lane:?}: {n} > {depth} + 1");
                }
            }
            assert!(sim.mirror.iter().all(Option::is_some), "{policy:?}");
        }
    }

    /// Off-mailbox sends take their sequence numbers from the same
    /// counter as mailbox sends, and the lane's depth, high water and
    /// delivered count see them exactly as they see mailbox traffic; a
    /// drop lowers the depth without a delivery, and no policy pick ever
    /// returns an off-mailbox message.
    #[test]
    fn off_mailbox_traffic_shares_the_seqs_and_the_lane_counts() {
        let mut sim = DetSim::new(2, SchedPolicy::Fifo, 0);
        let mut seqs = vec![sim.send(env(1, Lane::Reduction(Priority::Vital), 10))];
        seqs.push(sim.send_off_mailbox(Lane::Marking));
        seqs.push(sim.send_off_mailbox(Lane::Marking));
        seqs.push(sim.send(env(0, Lane::Marking, 11)));
        seqs.push(sim.send_off_mailbox(Lane::Marking));
        assert_eq!(seqs, [0, 1, 2, 3, 4], "one counter, unique and monotone");
        let stats = sim.stats();
        assert_eq!(stats.lane_depth(Lane::Marking), 4);
        assert_eq!(stats.lane_high_water(Lane::Marking), 4);
        assert_eq!(sim.len(), 2, "off-mailbox messages are not pending here");
        sim.take_off_mailbox(Lane::Marking, true);
        sim.take_off_mailbox(Lane::Marking, true);
        sim.take_off_mailbox(Lane::Marking, false);
        let stats = sim.stats();
        assert_eq!(stats.delivered(Lane::Marking), 2);
        assert_eq!(stats.lane_depth(Lane::Marking), 1);
        assert_eq!(stats.lane_high_water(Lane::Marking), 4);
        sim.reset_lane_high_water();
        assert_eq!(sim.send_off_mailbox(Lane::Marking), 5);
        assert_eq!(sim.stats().lane_high_water(Lane::Marking), 2);
        let got: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, _, m)| m)).collect();
        assert_eq!(got, vec![10, 11], "the picks see the mailboxes only");
        sim.take_off_mailbox(Lane::Marking, true);
        let stats = sim.stats();
        assert_eq!(stats.delivered(Lane::Marking), 4);
        assert_eq!(stats.delivered_total(), 5);
        assert_eq!(stats.lane_depth(Lane::Marking), 0);
    }

    #[test]
    fn stats_count_sends_and_deliveries() {
        let mut sim = DetSim::new(1, SchedPolicy::Fifo, 0);
        sim.send(env(0, Lane::Marking, 1));
        sim.send(env(0, Lane::Reduction(Priority::Vital), 2));
        sim.next_event();
        assert_eq!(sim.stats().delivered_total(), 1);
        assert_eq!(sim.stats().delivered(Lane::Marking), 1);
        assert_eq!(sim.stats().lane_depth(Lane::Reduction(Priority::Vital)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _: DetSim<u32> = DetSim::new(0, SchedPolicy::Fifo, 0);
    }
}
