//! Baseline collectors the paper argues against.
//!
//! * [`refcount`] — distributed **reference counting**, the alternative the
//!   paper says "has particular deficiencies that make it unsuitable": it
//!   cannot reclaim self-referencing structures, and it cannot perform the
//!   tracing needed to identify task types or deadlock. The implementation
//!   here demonstrates the first deficiency quantitatively (T2) and the
//!   second by construction (there is nothing to query).
//! * [`stw`] — a **stop-the-world** tracing collector: exact, but performs
//!   all of its work while the reduction process is halted (T1's
//!   comparison partner for the concurrent collector).
//! * [`noncoop`] — the decentralized marking algorithm run **without
//!   mutator cooperation**, i.e. under the static-graph assumption of the
//!   Chandy–Misra-style algorithms the paper contrasts itself with;
//!   mutation during marking makes it lose live vertices (T-abl).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod noncoop;
pub mod refcount;
pub mod stw;

use dgr_graph::{oracle, GraphStore, Requester};
use dgr_telemetry::LifecycleTracker;

/// Reclaims every vertex the root cannot reach, observed through `lc`:
/// censuses the garbage, purges it from the live vertices' requester sets
/// (the concurrent restructuring phase's hygiene: no value is ever
/// returned to a recycled vertex), then frees and stamps it. Returns the
/// reachable and the reclaimed vertex counts.
fn reclaim_unreachable(g: &mut GraphStore, lc: &mut LifecycleTracker) -> (usize, usize) {
    let reach = oracle::reachable_r(g);
    let garbage = oracle::garbage(g, &reach);
    if lc.enabled() {
        for w in garbage.iter() {
            lc.garbage_vertex(w.index());
        }
    }
    let live: Vec<_> = g.live_ids().filter(|&v| !garbage.contains(v)).collect();
    for v in live {
        g.vertex_mut(v).retain_requesters(|r| match r {
            Requester::Vertex(x) => !garbage.contains(x),
            Requester::External => true,
        });
    }
    for w in garbage.iter() {
        g.free(w);
        lc.reclaim_vertex(w.index());
    }
    (reach.len(), garbage.len())
}
