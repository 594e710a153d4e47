//! Identifier newtypes for vertices and processing elements.

use std::fmt;

/// Identifier of a vertex in the computation graph.
///
/// A `VertexId` is an index into the [`GraphStore`](crate::GraphStore) that
/// allocated it. Identifiers are reused after a vertex is returned to the
/// free list, exactly as cell addresses are in the paper's model.
///
/// # Example
///
/// ```
/// use dgr_graph::VertexId;
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex identifier from a raw index.
    pub const fn new(index: u32) -> Self {
        VertexId(index)
    }

    /// Returns the raw index of this identifier.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` behind this identifier.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for VertexId {
    fn from(index: u32) -> Self {
        VertexId(index)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a processing element (PE).
///
/// Each PE owns a partition of the computation graph and has only local
/// store; work moves between PEs as tasks addressed to vertices.
///
/// # Example
///
/// ```
/// use dgr_graph::PeId;
/// let pe = PeId::new(2);
/// assert_eq!(pe.index(), 2);
/// assert_eq!(pe.to_string(), "pe2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(u16);

impl PeId {
    /// Creates a PE identifier from a raw index.
    pub const fn new(index: u16) -> Self {
        PeId(index)
    }

    /// Returns the raw index of this identifier.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u16` behind this identifier.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl From<u16> for PeId {
    fn from(index: u16) -> Self {
        PeId(index)
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(VertexId::from(42u32), v);
    }

    #[test]
    fn vertex_id_ordering_follows_index() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert_eq!(VertexId::new(7), VertexId::new(7));
    }

    #[test]
    fn pe_id_roundtrip() {
        let p = PeId::new(3);
        assert_eq!(p.index(), 3);
        assert_eq!(p.raw(), 3);
        assert_eq!(PeId::from(3u16), p);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VertexId::new(0).to_string(), "v0");
        assert_eq!(PeId::new(9).to_string(), "pe9");
    }
}
