//! Differential test: the index-based scheduler delivers in exactly the
//! order the original O(PEs × lanes) scanning implementation did, for
//! every policy and seed. `RefSim` below is a faithful copy of the old
//! scan-based pick logic (including the order in which it consults the
//! RNG), so any divergence in pick order or RNG stream fails here. The
//! scripts interleave sends, picks and surgery — before the first pick
//! and while the lazily built `Fifo` / `Lifo` mirrors exist — run at PE
//! counts on both sides of a 64-bit word of the occupancy sets, and end
//! by checking `SimStats` against counters recomputed from the script. `SchedPolicy::Rounds`
//! came later than the scan and has no old code to copy: its reference
//! is the round-synchronous definition itself.

use std::collections::{HashSet, VecDeque};

use dgr_core::driver::{run_mark2, MarkRunConfig};
use dgr_graph::{oracle, GraphStore, NodeLabel, PeId, Priority, RequestKind, Slot, VertexId};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy, SimStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One slot per lane, as in the simulator.
type PerLane<T> = [T; Lane::ALL.len()];

/// The pre-optimization simulator: full scan over every PE × lane per
/// delivery.
struct RefSim<M> {
    pes: Vec<PerLane<VecDeque<(u64, M)>>>,
    policy: SchedPolicy,
    rng: StdRng,
    seq: u64,
    pending: usize,
    rr_cursor: usize,
    /// `Rounds`: what each PE held when the current round began.
    round: Vec<HashSet<u64>>,
    rounds: u64,
}

impl<M> RefSim<M> {
    fn new(num_pes: u16, policy: SchedPolicy, seed: u64) -> Self {
        RefSim {
            pes: (0..num_pes).map(|_| Default::default()).collect(),
            policy,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            pending: 0,
            rr_cursor: 0,
            round: (0..num_pes).map(|_| HashSet::new()).collect(),
            rounds: 0,
        }
    }

    fn send(&mut self, env: Envelope<M>) {
        let q = &mut self.pes[env.dst.index()][env.lane.index()];
        q.push_back((self.seq, env.msg));
        self.seq += 1;
        self.pending += 1;
    }

    fn next_event(&mut self) -> Option<(PeId, Lane, M)> {
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
        let deque = &mut self.pes[pe.index()][lane.index()];
        let (_, msg) = if matches!(self.policy, SchedPolicy::Lifo) {
            deque.pop_back()?
        } else {
            deque.pop_front()?
        };
        self.pending -= 1;
        Some((pe, lane, msg))
    }

    fn pick_extreme(&self, newest: bool) -> Option<(PeId, Lane)> {
        let mut best: Option<(u64, PeId, Lane)> = None;
        for (p, lanes) in self.pes.iter().enumerate() {
            for lane in Lane::ALL {
                let q = &lanes[lane.index()];
                let cand = if newest {
                    q.back().map(|&(s, _)| s)
                } else {
                    q.front().map(|&(s, _)| s)
                };
                if let Some(s) = cand {
                    let better = match best {
                        None => true,
                        Some((bs, _, _)) => {
                            if newest {
                                s > bs
                            } else {
                                s < bs
                            }
                        }
                    };
                    if better {
                        best = Some((s, PeId::new(p as u16), lane));
                    }
                }
            }
        }
        best.map(|(_, p, l)| (p, l))
    }

    fn pick_round_robin(&mut self) -> Option<(PeId, Lane)> {
        let n = self.pes.len();
        for off in 0..n {
            let p = (self.rr_cursor + off) % n;
            let mut best: Option<(u64, Lane)> = None;
            for lane in Lane::ALL {
                if let Some(&(s, _)) = self.pes[p][lane.index()].front() {
                    if best.is_none_or(|(bs, _)| s < bs) {
                        best = Some((s, lane));
                    }
                }
            }
            if let Some((_, lane)) = best {
                self.rr_cursor = (p + 1) % n;
                return Some((PeId::new(p as u16), lane));
            }
        }
        None
    }

    /// Round-synchronous delivery by its definition: a round begins with
    /// a snapshot of every PE's pending messages and visits the PEs once
    /// in index order; each runs its oldest pending message if that one
    /// is in its snapshot. A message sent during the round waits for the
    /// next one, and so does everything behind it on its PE.
    fn pick_rounds(&mut self) -> (PeId, Lane) {
        loop {
            for p in self.rr_cursor..self.pes.len() {
                let lanes = Lane::ALL.into_iter();
                let oldest = lanes
                    .filter_map(|lane| self.pes[p][lane.index()].front().map(|&(s, _)| (s, lane)))
                    .min_by_key(|&(s, _)| s);
                if let Some((s, lane)) = oldest {
                    if self.round[p].contains(&s) {
                        self.rr_cursor = p + 1;
                        return (PeId::new(p as u16), lane);
                    }
                }
            }
            for (snapshot, lanes) in self.round.iter_mut().zip(&self.pes) {
                *snapshot = lanes.iter().flatten().map(|&(s, _)| s).collect();
            }
            self.rr_cursor = 0;
            self.rounds += 1;
        }
    }

    fn pick_random(&mut self, marking_bias: f64) -> Option<(PeId, Lane)> {
        let mut marking: Vec<(usize, Lane)> = Vec::new();
        let mut other: Vec<(usize, Lane)> = Vec::new();
        for (p, lanes) in self.pes.iter().enumerate() {
            for lane in Lane::ALL {
                if !lanes[lane.index()].is_empty() {
                    if lane == Lane::Marking {
                        marking.push((p, lane));
                    } else {
                        other.push((p, lane));
                    }
                }
            }
        }
        // Short-circuit keeps the RNG stream identical to the production
        // scheduler: no coin flip is drawn when either pool is empty.
        let pool = if marking.is_empty() {
            &other
        } else if other.is_empty() || self.rng.gen_bool(marking_bias.clamp(0.0, 1.0)) {
            &marking
        } else {
            &other
        };
        if pool.is_empty() {
            return None;
        }
        let (p, lane) = pool[self.rng.gen_range(0..pool.len())];
        Some((PeId::new(p as u16), lane))
    }

    fn pick_priority_first(&mut self) -> Option<(PeId, Lane)> {
        let n = self.pes.len();
        for lane in Lane::ALL {
            for off in 0..n {
                let p = (self.rr_cursor + off) % n;
                if !self.pes[p][lane.index()].is_empty() {
                    self.rr_cursor = (p + 1) % n;
                    return Some((PeId::new(p as u16), lane));
                }
            }
        }
        None
    }
}

fn all_policies() -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::RoundRobin,
        SchedPolicy::PriorityFirst,
        SchedPolicy::Rounds,
        SchedPolicy::Random { marking_bias: 0.0 },
        SchedPolicy::Random { marking_bias: 0.3 },
        SchedPolicy::Random { marking_bias: 0.5 },
        SchedPolicy::Random { marking_bias: 1.0 },
    ]
}

/// Tag 1 is the marking lane.
fn lane_of(tag: u8) -> Lane {
    match tag % 4 {
        1 => Lane::Marking,
        2 => Lane::Reduction(Priority::Vital),
        3 => Lane::Reduction(Priority::Eager),
        _ => Lane::Reduction(Priority::Reserve),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Schedule independence of the marking *outcome*: `M_R` run under
    /// every policy, seed, and PE count produces the identical
    /// per-vertex `(marked, priority)` result — the paper's claim that
    /// delivery order never affects what gets marked — while the driver
    /// checks Invariants 1–3 after every event.
    #[test]
    fn marking_outcome_is_schedule_independent(
        edges in proptest::collection::vec((0usize..14, 0usize..14, 0u8..3), 1..40),
        seed in 0u64..50,
    ) {
        let n = 14;
        let mut base = GraphStore::with_capacity(n);
        let ids: Vec<VertexId> = (0..n)
            .map(|i| base.alloc(NodeLabel::lit_int(i as i64)).unwrap())
            .collect();
        for &(a, b, kind) in &edges {
            let (a, b) = (ids[a % n], ids[b % n]);
            base.connect(a, b);
            let i = base.vertex(a).args().len() - 1;
            let kind = match kind % 3 {
                0 => None,
                1 => Some(RequestKind::Eager),
                _ => Some(RequestKind::Vital),
            };
            base.vertex_mut(a).set_request_kind(i, kind);
        }
        base.set_root(ids[0]);
        let want: Vec<Option<Priority>> = {
            let prior = oracle::priorities(&base);
            base.ids().map(|v| prior[v.index()]).collect()
        };
        for policy in all_policies() {
            for num_pes in [1u16, 4] {
                let cfg = MarkRunConfig {
                    num_pes,
                    policy,
                    seed,
                    check_invariants: true,
                    ..Default::default()
                };
                let mut g = base.clone();
                run_mark2(&mut g, &cfg);
                let got: Vec<Option<Priority>> = g
                    .ids()
                    .map(|v| {
                        let s = g.mark(v, Slot::R);
                        s.is_marked().then_some(s.prior)
                    })
                    .collect();
                prop_assert_eq!(&got, &want, "policy {:?}, {} PEs, seed {}", policy, num_pes, seed);
            }
        }
    }
}

/// `SimStats` recomputed from the script: what the reference delivered
/// in which lane, and the backlogs in between.
#[derive(Default)]
struct StatsModel {
    delivered: PerLane<u64>,
    depth: PerLane<usize>,
    high_water: PerLane<usize>,
}

impl StatsModel {
    fn send(&mut self, lane: Lane) {
        let l = lane.index();
        self.depth[l] += 1;
        self.high_water[l] = self.high_water[l].max(self.depth[l]);
    }

    fn deliver(&mut self, lane: Lane) {
        self.delivered[lane.index()] += 1;
        self.depth[lane.index()] -= 1;
    }

    /// After surgery the backlogs are whatever the queues now hold — not
    /// `sent − delivered`: an expunged message left without a delivery.
    fn surgery<M>(&mut self, queues: &[PerLane<VecDeque<(u64, M)>>]) {
        for l in 0..Lane::ALL.len() {
            self.depth[l] = queues.iter().map(|lanes| lanes[l].len()).sum();
            self.high_water[l] = self.high_water[l].max(self.depth[l]);
        }
    }

    fn check(&self, stats: &SimStats) -> Result<(), TestCaseError> {
        for lane in Lane::ALL {
            let l = lane.index();
            prop_assert_eq!(
                stats.delivered(lane),
                self.delivered[l],
                "delivered {:?}",
                lane
            );
            prop_assert_eq!(stats.lane_depth(lane), self.depth[l], "depth {:?}", lane);
            prop_assert_eq!(
                stats.lane_high_water(lane),
                self.high_water[l],
                "high water {:?}",
                lane
            );
        }
        prop_assert_eq!(stats.delivered_total(), self.delivered.iter().sum::<u64>());
        Ok(())
    }
}

/// The simulator under test, the reference, and the stats model, fed the
/// same script.
struct Pair {
    new_sim: DetSim<u32>,
    ref_sim: RefSim<u32>,
    model: StatsModel,
    num_pes: u16,
    next_id: u32,
}

impl Pair {
    fn new(num_pes: u16, policy: SchedPolicy, seed: u64) -> Self {
        Pair {
            new_sim: DetSim::new(num_pes, policy, seed),
            ref_sim: RefSim::new(num_pes, policy, seed),
            model: StatsModel::default(),
            num_pes,
            next_id: 0,
        }
    }

    fn send(&mut self, (pe, tag): (u16, u8)) {
        let dst = PeId::new(pe % self.num_pes);
        let lane = lane_of(tag);
        self.new_sim.send(Envelope::new(dst, lane, self.next_id));
        self.ref_sim.send(Envelope::new(dst, lane, self.next_id));
        self.model.send(lane);
        self.next_id += 1;
    }

    /// One policy pick from both simulators. Returns `false` once both
    /// are empty.
    fn step(&mut self, ctx: &str, step: usize) -> Result<bool, TestCaseError> {
        let got = self.new_sim.next_event();
        let want = self.ref_sim.next_event();
        prop_assert_eq!(&got, &want, "{} step {}", ctx, step);
        if let Some((_, lane, _)) = got {
            self.model.deliver(lane);
        }
        Ok(got.is_some())
    }

    /// Drains both simulators. One `extra` send follows every delivery so
    /// picks happen against queues in every state, not just a monotone
    /// drain, and high-water tracking restarts once on the way. Ends by
    /// checking the stats.
    fn drain(
        &mut self,
        extra: &[(u16, u8)],
        reset_at: usize,
        ctx: &str,
    ) -> Result<(), TestCaseError> {
        let mut extra = extra.iter();
        for step in 0.. {
            if step == reset_at {
                self.new_sim.reset_lane_high_water();
                self.model.high_water = self.model.depth;
            }
            if !self.step(ctx, step)? {
                break;
            }
            if let Some(&send) = extra.next() {
                self.send(send);
            }
        }
        prop_assert_eq!(self.new_sim.len(), 0);
        prop_assert_eq!(
            self.new_sim.stats().rounds(),
            self.ref_sim.rounds,
            "{} rounds",
            ctx
        );
        self.model.check(self.new_sim.stats())
    }

    /// The surgery of the restructuring phase on both simulators: drop
    /// every multiple of `drop_mod`, then promote all reduction messages
    /// to the vital lane (order-preserving, as `relane` does) — on the
    /// reference by rewriting its raw queues.
    fn surgery(&mut self, drop_mod: u32) {
        let promote = |lane| match lane {
            Lane::Reduction(_) => Lane::Reduction(Priority::Vital),
            other => other,
        };
        self.new_sim.expunge(|_, _, &m| m % drop_mod != 0);
        self.new_sim.relane(|_, lane, _| promote(lane));
        let ref_sim = &mut self.ref_sim;
        for lanes in ref_sim.pes.iter_mut() {
            let mut staged: Vec<(u64, Lane, u32)> = Vec::new();
            for lane in Lane::ALL {
                for (s, m) in std::mem::take(&mut lanes[lane.index()]) {
                    if m % drop_mod == 0 {
                        ref_sim.pending -= 1;
                    } else {
                        staged.push((s, promote(lane), m));
                    }
                }
            }
            staged.sort_by_key(|&(s, _, _)| s);
            for (s, lane, m) in staged {
                lanes[lane.index()].push_back((s, m));
            }
        }
        self.model.surgery(&ref_sim.pes);
    }
}

/// PE counts: one word of the occupancy sets, just past one, past two.
fn pe_counts() -> BoxedStrategy<u16> {
    prop_oneof![Just(5u16), Just(65u16), Just(130u16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random send scripts with mid-drain injections: identical
    /// `(pe, lane, msg)` delivery sequences under every policy and seed.
    #[test]
    fn delivery_order_matches_reference(
        sends in proptest::collection::vec((0u16..130, 0u8..5), 1..150),
        extra in proptest::collection::vec((0u16..130, 0u8..5), 0..60),
        seed in 0u64..200,
        num_pes in pe_counts(),
        reset_at in 0usize..120,
    ) {
        for policy in all_policies() {
            let mut pair = Pair::new(num_pes, policy, seed);
            for &send in &sends {
                pair.send(send);
            }
            let ctx = format!("policy {policy:?} seed {seed}");
            pair.drain(&extra, reset_at, &ctx)?;
        }
    }

    /// Expunge and relane rebuild the indexes correctly: post-surgery
    /// delivery still matches the reference applied to the same surgery.
    #[test]
    fn surgery_then_delivery_matches_reference(
        sends in proptest::collection::vec((0u16..130, 0u8..5), 1..100),
        drop_mod in 2u32..5,
        seed in 0u64..100,
        num_pes in pe_counts(),
        reset_at in 0usize..60,
    ) {
        for policy in all_policies() {
            let mut pair = Pair::new(num_pes, policy, seed);
            for &send in &sends {
                pair.send(send);
            }
            pair.surgery(drop_mod);
            let ctx = format!("policy {policy:?} seed {seed}");
            pair.drain(&[], reset_at, &ctx)?;
        }
    }

    /// A `Fifo` / `Lifo` mirror exists from its lane's first pick, is
    /// dropped by surgery and rebuilt by the next pick. The first picks
    /// land after sends; surgery then runs while the mirrors exist, and
    /// again after `warm` more picks with a send after each, and the
    /// drain that follows still matches the reference under every policy.
    #[test]
    fn lazily_built_mirrors_match_reference(
        sends in proptest::collection::vec((0u16..130, 0u8..5), 1..80),
        warm in 0usize..40,
        first_mod in 2u32..5,
        second_mod in 2u32..5,
        seed in 0u64..100,
        num_pes in pe_counts(),
    ) {
        for policy in all_policies() {
            let ctx = format!("policy {policy:?} seed {seed}");
            let mut pair = Pair::new(num_pes, policy, seed);
            for &send in &sends {
                pair.send(send);
            }
            pair.step(&ctx, 0)?;
            pair.surgery(first_mod);
            for (step, &send) in sends.iter().cycle().take(warm).enumerate() {
                pair.step(&ctx, 1 + step)?;
                pair.send(send);
            }
            pair.surgery(second_mod);
            pair.drain(&sends, usize::MAX, &ctx)?;
        }
    }
}
