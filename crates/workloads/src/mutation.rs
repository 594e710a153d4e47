//! Random-but-valid mutation scripts applied during marking.
//!
//! The canonical mutation (Section 4.2's motivating scenario) is a *move*:
//! `add-reference(a, b, c)` followed by `delete-reference(b, c)`, which
//! re-homes `c` from `b` to `a` without changing root-reachability. A
//! stream of moves therefore keeps the oracle's `R` fixed while constantly
//! changing the connectivity marking has to chase — exactly the adversary
//! the cooperating mutator primitives exist for.

use dgr_core::{coop, MarkMsg, MarkState};
use dgr_graph::{GraphStore, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates and applies random move mutations.
#[derive(Debug)]
pub struct MoveMutator {
    rng: StdRng,
    /// Moves applied so far.
    pub applied: u64,
    /// Attempts that found no eligible path.
    pub misses: u64,
}

impl MoveMutator {
    /// Creates a mutator with the given seed.
    pub fn new(seed: u64) -> Self {
        MoveMutator {
            rng: StdRng::seed_from_u64(seed),
            applied: 0,
            misses: 0,
        }
    }

    /// Finds a random path `a → b → c` among live vertices.
    fn find_path(&mut self, g: &GraphStore) -> Option<(VertexId, VertexId, VertexId)> {
        let n = g.capacity();
        if n == 0 {
            return None;
        }
        for _ in 0..32 {
            let a = VertexId::new(self.rng.gen_range(0..n as u32));
            if g.is_free(a) {
                continue;
            }
            let a_args = g.vertex(a).args();
            if a_args.is_empty() {
                continue;
            }
            let b = a_args[self.rng.gen_range(0..a_args.len())];
            let b_args = g.vertex(b).args();
            if b_args.is_empty() {
                continue;
            }
            let c = b_args[self.rng.gen_range(0..b_args.len())];
            return Some((a, b, c));
        }
        None
    }

    /// Applies one move through the cooperating primitives (or raw
    /// primitives when `state.cooperation_enabled` is false, which is the
    /// T-abl ablation). Returns `true` if a mutation was applied.
    pub fn step<S>(&mut self, state: &mut MarkState, g: &mut GraphStore, sink: &mut S) -> bool
    where
        S: FnMut(MarkMsg) + ?Sized,
    {
        let Some((a, b, c)) = self.find_path(g) else {
            self.misses += 1;
            return false;
        };
        coop::add_reference(state, g, a, b, c, sink).expect("path found above is adjacent");
        coop::delete_reference(g, b, c);
        self.applied += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::binary_tree;
    use dgr_graph::oracle;

    #[test]
    fn moves_preserve_reachability() {
        let mut g = binary_tree(6);
        let before = oracle::reachable_r(&g);
        let mut state = MarkState::new();
        let mut mutator = MoveMutator::new(3);
        let mut sink = |_m: MarkMsg| {};
        for _ in 0..500 {
            mutator.step(&mut state, &mut g, &mut sink);
        }
        // Moves flatten the tree toward a star over time, so later steps
        // may find no 2-path; plenty must still have applied.
        assert!(
            mutator.applied > 50,
            "applied {} mutations",
            mutator.applied
        );
        let after = oracle::reachable_r(&g);
        assert_eq!(before, after, "moves never change R");
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut g = binary_tree(5);
            let mut state = MarkState::new();
            let mut m = MoveMutator::new(seed);
            let mut sink = |_m: MarkMsg| {};
            for _ in 0..100 {
                m.step(&mut state, &mut g, &mut sink);
            }
            let o = oracle::reachable_r(&g);
            (m.applied, o.len())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn no_path_in_leafless_graph() {
        let mut g = GraphStore::with_capacity(2);
        g.alloc(dgr_graph::NodeLabel::lit_int(0)).unwrap();
        let mut state = MarkState::new();
        let mut m = MoveMutator::new(0);
        let mut sink = |_m: MarkMsg| {};
        assert!(!m.step(&mut state, &mut g, &mut sink));
        assert_eq!(m.misses, 1);
    }
}
