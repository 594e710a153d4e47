//! Space-overhead accounting (the Section 6 remark).
//!
//! The paper notes that the algorithm "as presented incurs a high space
//! overhead, in that each vertex requires space for mt-cnt, mt-par, and
//! marking bits", and points to a compression (all `mt-cnt`s and `mt-par`s
//! folded into two words per PE) described in the companion report \[6\].
//! This module measures the uncompressed overhead this implementation
//! actually pays — experiment T4 reports it — and documents the compressed
//! bound for comparison.

use dgr_graph::{MarkSlot, Vertex};

/// Byte-level footprint of the marking machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// Size of one marking slot (`color` + `mt-cnt` + `mt-par` + `prior`).
    pub slot_bytes: usize,
    /// Marking overhead per vertex: two slots (one for `M_R`, one `M_T`).
    pub per_vertex_marking_bytes: usize,
    /// Size of a vertex record, marking slots included. The record *is*
    /// the vertex — label, arcs with their request kinds and returned
    /// values, requesters, value — as long as it has at most three arcs
    /// and two requesters, which covers every label a combinator graph
    /// has. A longer list moves into a boxed spill block this number
    /// leaves out: 72 + 21 bytes per arc of capacity for arcs,
    /// 24 + 8 per requester for requesters, before allocator overhead.
    pub vertex_bytes: usize,
    /// Fraction of the vertex record spent on marking state (0..=1);
    /// exact for a vertex that has not spilled, an upper bound for one
    /// that has.
    pub marking_fraction: f64,
    /// The paper's compressed design: two machine words per PE,
    /// independent of vertex count.
    pub compressed_per_pe_bytes: usize,
}

/// Measures the current layout.
pub fn measure() -> Footprint {
    let slot_bytes = std::mem::size_of::<MarkSlot>();
    let per_vertex_marking_bytes = 2 * slot_bytes;
    let vertex_bytes = std::mem::size_of::<Vertex>();
    Footprint {
        slot_bytes,
        per_vertex_marking_bytes,
        vertex_bytes,
        marking_fraction: per_vertex_marking_bytes as f64 / vertex_bytes as f64,
        compressed_per_pe_bytes: 2 * std::mem::size_of::<usize>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_sane() {
        let f = measure();
        assert!(f.slot_bytes > 0);
        assert_eq!(f.per_vertex_marking_bytes, 2 * f.slot_bytes);
        assert!(f.vertex_bytes > f.per_vertex_marking_bytes);
        assert!(f.marking_fraction > 0.0 && f.marking_fraction < 1.0);
        assert_eq!(f.compressed_per_pe_bytes, 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn slot_stays_small() {
        // The slot is a color, a counter, an optional parent and a
        // priority; it should stay within a few machine words.
        let f = measure();
        assert!(
            f.slot_bytes <= 4 * std::mem::size_of::<usize>(),
            "marking slot grew to {} bytes",
            f.slot_bytes
        );
    }
}
