//! Reduction-engine statistics.

/// Counters kept by the reduction engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedStats {
    /// Request tasks executed.
    pub requests: u64,
    /// Return tasks executed.
    pub returns: u64,
    /// Requests executed whose demand kind was eager (speculation).
    pub eager_requests: u64,
    /// Supercombinator expansions (`expand-node` invocations).
    pub expansions: u64,
    /// `add-reference` invocations (grandchild access).
    pub add_references: u64,
    /// Speculative branches dereferenced (the start of an irrelevant
    /// sub-workload).
    pub dereferences: u64,
    /// Eager arcs upgraded to vital when the speculation proved needed.
    pub upgrades: u64,
    /// Returns dropped because the target no longer awaits them (e.g. a
    /// dereferenced speculative branch replied anyway).
    pub stale_returns: u64,
    /// Requests dropped because the destination was already reclaimed —
    /// always zero in a correctly restructured system.
    pub dangling_requests: u64,
    /// Times the store had to grow because the free list was exhausted.
    pub grows: u64,
    /// Reductions that produced `⊥` (type errors, division by zero, …).
    pub bottoms: u64,
    /// Requests whose new wait edge may have closed a cycle of waits: the
    /// requester was found among the vertices the destination already
    /// waits on, or the walk looking for it hit its bound. Zero means no
    /// vertex can be deadlocked, so `GcDriver` need not run `M_T`.
    pub wait_cycles: u64,
}

impl RedStats {
    /// Total reduction tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.requests + self.returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = RedStats {
            requests: 3,
            returns: 4,
            ..Default::default()
        };
        assert_eq!(s.total_tasks(), 7);
    }
}
