//! Stop-the-world tracing collection.
//!
//! The conventional alternative to the paper's concurrent marking: halt
//! every PE, trace the graph sequentially, reclaim, resume. Exact, but the
//! entire trace is a *pause* — no reduction task executes while it runs.
//! The T1 experiment compares this pause against the concurrent
//! collector's cycles, during which reduction keeps executing
//! (`CycleReport::reduction_events_during_marking > 0`).

use dgr_graph::GraphStore;
use dgr_telemetry::LifecycleTracker;

/// What one stop-the-world collection did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StwReport {
    /// Vertices traced (≈ work done while the world is stopped; grows with
    /// the live set).
    pub traced: usize,
    /// Vertices reclaimed.
    pub reclaimed: usize,
    /// Total pause "work units": trace plus the sweep over all slots.
    pub pause_units: usize,
}

/// Halts the world (there is nothing running — the caller guarantees
/// that), traces from the root, and reclaims everything else.
pub fn collect_stw(g: &mut GraphStore) -> StwReport {
    let mut lc = LifecycleTracker::new();
    lc.begin_cycle(0);
    let r = collect_stw_observed(g, &mut lc);
    lc.end_cycle();
    r
}

/// [`collect_stw`] with the vertex lifecycle observed through `lc`.
///
/// The caller owns the cycle bracket: call `lc.begin_cycle` before and
/// `lc.end_cycle` after, so that a sequence of collections over a mutating
/// graph shares one ledger and latencies span collections. Every garbage
/// vertex is censused from the oracle set this collector already computes
/// and stamped reclaimed next to its `free` — STW never floats garbage
/// within a collection, but garbage that *arose* since the previous
/// collection carries its true cross-collection latency. STW exchanges no
/// messages, so the meter records zeros (and a zero bound).
pub fn collect_stw_observed(g: &mut GraphStore, lc: &mut LifecycleTracker) -> StwReport {
    let (traced, reclaimed) = crate::reclaim_unreachable(g, lc);
    lc.meter_msgs(0, 0, 0);
    StwReport {
        traced,
        reclaimed,
        pause_units: traced + g.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::NodeLabel;

    #[test]
    fn collects_exactly_the_unreachable() {
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let live = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let dead1 = g.alloc(NodeLabel::lit_int(2)).unwrap();
        let dead2 = g.alloc(NodeLabel::lit_int(3)).unwrap();
        g.connect(root, live);
        g.connect(dead1, dead2);
        g.connect(dead2, dead1); // cyclic garbage: no problem for tracing
        g.set_root(root);

        let r = collect_stw(&mut g);
        assert_eq!(r.traced, 2);
        assert_eq!(r.reclaimed, 2);
        assert!(g.is_free(dead1) && g.is_free(dead2));
        assert!(!g.is_free(root) && !g.is_free(live));
    }

    #[test]
    fn pause_grows_with_live_set() {
        let mut small = dgr_workloads::graphs::binary_tree(4);
        let mut big = dgr_workloads::graphs::binary_tree(8);
        let rs = collect_stw(&mut small);
        let rb = collect_stw(&mut big);
        assert!(rb.pause_units > 10 * rs.pause_units / 2);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn observed_stw_stamps_every_reclaim_exactly() {
        use dgr_workloads::graphs::random_digraph;
        let mut g = random_digraph(128, 2.5, 7);
        let mut lc = LifecycleTracker::new();
        lc.begin_cycle(0);
        let r = collect_stw_observed(&mut g, &mut lc);
        lc.end_cycle();
        let s = lc.snapshot();
        assert!(r.reclaimed > 0, "workload produced no garbage");
        assert_eq!(s.reclaimed, r.reclaimed as u64);
        assert_eq!(s.exact, s.reclaimed, "census precedes every free");
        assert_eq!(s.float_now, 0, "STW leaves nothing floating");
        assert_eq!(s.msgs_mt + s.msgs_mr, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn observed_stw_latency_spans_collections() {
        use dgr_graph::NodeLabel;
        let mut g = GraphStore::with_capacity(8);
        let root = g.alloc(NodeLabel::If).unwrap();
        let held = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(root, held);
        g.set_root(root);

        let mut lc = LifecycleTracker::new();
        lc.begin_cycle(0);
        collect_stw_observed(&mut g, &mut lc);
        lc.end_cycle();
        g.disconnect(root, held); // becomes garbage between collections
        lc.begin_cycle(3);
        let r = collect_stw_observed(&mut g, &mut lc);
        lc.end_cycle();
        assert_eq!(r.reclaimed, 1);
        let s = lc.snapshot();
        // First censused at cycle 3, reclaimed at cycle 3: latency 0 —
        // cross-collection delay is only visible when an intermediate
        // census sees the vertex floating; that path belongs to GcDriver.
        assert_eq!(s.reclaimed, 1);
        assert_eq!(s.exact, 1);
    }

    #[test]
    fn idempotent() {
        let mut g = dgr_workloads::graphs::binary_tree(4);
        let first = collect_stw(&mut g);
        let second = collect_stw(&mut g);
        assert_eq!(first.reclaimed, 0);
        assert_eq!(second.traced, first.traced);
    }
}
