//! The Section 6 space optimization: marking with **two words per PE**.
//!
//! The paper remarks that the per-vertex `mt-cnt` / `mt-par` fields "incur
//! a high space overhead" and that "it is possible to combine all of the
//! mt-cnt's and mt-par's into just two words on each PE" \[6\]. This module
//! implements that design: the marking tree is built over *processing
//! elements* rather than vertices, with Dijkstra–Scholten-style engagement:
//!
//! * each PE keeps a **deficit** counter (outstanding remote marks plus
//!   its local work) and a **parent PE** — two words;
//! * vertices carry only the mark *bit* (no transient state, no counter,
//!   no parent);
//! * marks local to a PE are chased through the PE's own work list at no
//!   protocol cost; a mark crossing to PE `k` increments the sender's
//!   deficit and is eventually acknowledged by `k`;
//! * a PE first engaged by PE `j` records `j` as its tree parent and
//!   withholds that acknowledgement until its own deficit is zero and its
//!   work list empty; later engagements are acknowledged immediately;
//! * marking terminates when the initiating environment receives the
//!   root PE's acknowledgement.
//!
//! The trade: per-vertex space drops from two full slots to one bit, at
//! the cost of acknowledgement messages (one per cross-PE mark) and of
//! losing the vertex-granular `transient` state the cooperating mutator
//! primitives key on — so this variant is for marking **quiescent**
//! partitions (the paper likewise presents the compression as an
//! implementation technique, with the concurrent protocol unchanged).

use std::collections::VecDeque;

use dgr_graph::{Color, GraphStore, PartitionMap, PartitionStrategy, Slot, VertexId};

/// Per-PE marking state: exactly the two words the paper promises.
#[derive(Debug, Clone, Copy, Default)]
struct PeState {
    /// Outstanding cross-PE marks sent plus (while engaged) the pending
    /// engagement acknowledgement.
    deficit: u64,
    /// The PE that first engaged this one (`u16::MAX` = engaged by the
    /// external initiator; `None` = disengaged).
    parent: Option<u16>,
}

/// Cost accounting for a compressed pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressedStats {
    /// Vertices marked.
    pub marked: usize,
    /// Marks that crossed a partition boundary.
    pub remote_marks: u64,
    /// Acknowledgement messages sent.
    pub acks: u64,
    /// Local (intra-PE) mark steps.
    pub local_steps: u64,
}

const EXTERNAL: u16 = u16::MAX;

enum Msg {
    Mark { v: VertexId, from: u16 },
    Ack { to: u16 },
}

/// Runs a complete compressed `mark1` pass over a quiescent graph,
/// marking the R slot's color bit of every root-reachable vertex.
///
/// # Panics
///
/// Panics if the graph has no root.
pub fn run_mark1_compressed(
    g: &mut GraphStore,
    num_pes: u16,
    strategy: PartitionStrategy,
) -> CompressedStats {
    let root = g.root().expect("marking needs a root");
    crate::driver::reset_slot(g, Slot::R);
    let partition = PartitionMap::new(num_pes, g.capacity(), strategy);
    let mut pes: Vec<PeState> = vec![PeState::default(); num_pes as usize];
    // Per-PE local work lists (vertices to mark on that PE).
    let mut local: Vec<Vec<VertexId>> = vec![Vec::new(); num_pes as usize];
    let mut net: VecDeque<Msg> = VecDeque::new();
    let mut stats = CompressedStats::default();
    let mut done = false;

    net.push_back(Msg::Mark {
        v: root,
        from: EXTERNAL,
    });

    // One scheduler turn: deliver a network message or advance one PE's
    // local work list; a PE with an empty list and zero deficit
    // acknowledges its engagement.
    loop {
        if let Some(msg) = net.pop_front() {
            match msg {
                Msg::Mark { v, from } => {
                    let me = partition.pe_of(v).raw();
                    if pes[me as usize].parent.is_none() && !done {
                        // First engagement: adopt the sender as parent;
                        // the engagement ack is withheld (counted in the
                        // deficit) until this PE quiesces.
                        pes[me as usize].parent = Some(from);
                        pes[me as usize].deficit += 1;
                    } else {
                        // Already engaged (or finished): acknowledge the
                        // extra engagement immediately.
                        if from != EXTERNAL {
                            net.push_back(Msg::Ack { to: from });
                            stats.acks += 1;
                        }
                    }
                    local[me as usize].push(v);
                }
                Msg::Ack { to } => {
                    if to == EXTERNAL {
                        done = true;
                    } else {
                        let pe = &mut pes[to as usize];
                        debug_assert!(pe.deficit > 0);
                        pe.deficit -= 1;
                    }
                }
            }
            continue;
        }
        // No network traffic: advance local work, round-robin.
        let mut progressed = false;
        for me in 0..num_pes {
            if let Some(v) = local[me as usize].pop() {
                progressed = true;
                stats.local_steps += 1;
                if g.is_free(v) || !g.mark(v, Slot::R).is_unmarked() {
                    continue;
                }
                g.mark_mut(v, Slot::R).color = Color::Marked;
                stats.marked += 1;
                g.vertex(v).for_each_r_child(|c| {
                    let dst = partition.pe_of(c).raw();
                    if dst == me {
                        local[me as usize].push(c);
                    } else {
                        stats.remote_marks += 1;
                        pes[me as usize].deficit += 1;
                        net.push_back(Msg::Mark { v: c, from: me });
                    }
                });
            }
        }
        if progressed {
            continue;
        }
        // Everything idle: disengage PEs whose deficit is only their own
        // withheld engagement ack.
        let mut any_disengaged = false;
        for me in 0..num_pes as usize {
            if pes[me].parent.is_some() && pes[me].deficit == 1 && local[me].is_empty() {
                let parent = pes[me].parent.take().unwrap();
                pes[me].deficit = 0;
                stats.acks += 1;
                net.push_back(Msg::Ack { to: parent });
                any_disengaged = true;
            }
        }
        if !any_disengaged {
            break;
        }
    }
    assert!(done, "compressed marking drained without termination");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{oracle, NodeLabel};

    fn assert_matches_oracle(g: &GraphStore) {
        let want = oracle::reachable_r(g);
        for v in g.live_ids() {
            assert_eq!(
                want.contains(v),
                g.mark(v, Slot::R).is_marked(),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn compressed_marks_exactly_r_on_random_graphs() {
        for seed in 0..10 {
            for pes in [1u16, 3, 8] {
                let mut g = dgr_workloads_free::random_digraph(300, 2.5, seed);
                let stats = run_mark1_compressed(&mut g, pes, PartitionStrategy::Modulo);
                assert_matches_oracle(&g);
                assert!(stats.marked > 0);
                if pes == 1 {
                    assert_eq!(stats.remote_marks, 0);
                }
            }
        }
    }

    #[test]
    fn compressed_handles_cycles() {
        let mut g = GraphStore::with_capacity(4);
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        g.connect(a, b);
        g.connect(b, a);
        g.connect(a, a);
        g.set_root(a);
        let stats = run_mark1_compressed(&mut g, 2, PartitionStrategy::Modulo);
        assert_eq!(stats.marked, 2);
        assert_matches_oracle(&g);
    }

    #[test]
    fn ack_traffic_tracks_remote_marks() {
        let mut g = dgr_workloads_free::random_digraph(500, 3.0, 1);
        let stats = run_mark1_compressed(&mut g, 8, PartitionStrategy::Modulo);
        // Every remote mark is eventually acknowledged (immediately or as
        // a withheld engagement ack) and the external engagement adds one.
        assert_eq!(stats.acks, stats.remote_marks + 1);
    }

    /// Minimal local copy of the random-graph generator (dgr-workloads
    /// depends on this crate, so the real one is unavailable here).
    mod dgr_workloads_free {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        pub fn random_digraph(n: usize, avg_degree: f64, seed: u64) -> GraphStore {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = GraphStore::with_capacity(n);
            let ids: Vec<VertexId> = (0..n)
                .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
                .collect();
            for &v in &ids {
                let d = rng.gen_range(0..=(2.0 * avg_degree) as usize);
                for _ in 0..d {
                    let t = ids[rng.gen_range(0..n)];
                    g.connect(v, t);
                }
            }
            g.set_root(ids[0]);
            g
        }
    }
}
