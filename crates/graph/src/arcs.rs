//! The arcs record of a vertex: `args(v)` and, parallel to it, how each
//! arc was requested and the value it returned.
//!
//! Three arcs live in the vertex record itself — enough for every label a
//! combinator graph has (`If` 3, `Prim` / `Cons` ≤ 2, `Ind` 1, `head` /
//! `tail` after `add-reference` 2), so building, visiting and completing
//! such a vertex touches one place and never the allocator. A longer list
//! (an n-ary `Apply`, a high out-degree vertex of a synthetic digraph)
//! moves *whole* into one boxed spill block, and back when it shrinks to
//! three again: each column is one contiguous slice either way, which is
//! what lets [`Vertex::args`](crate::Vertex::args) and its siblings keep
//! returning slices.

use crate::ids::VertexId;
use crate::value::Value;
use crate::vertex::RequestKind;

/// Arcs held in the vertex record. A private constant, not an option:
/// nothing outside this module can tell an inline list from a spilled one.
const INLINE: usize = 3;

/// What an unused inline target slot holds.
const NO_TARGET: VertexId = VertexId::new(0);

/// The out-of-line form of a list longer than [`INLINE`].
#[derive(Debug, Clone, PartialEq)]
struct Spill {
    targets: Vec<VertexId>,
    kinds: Vec<Option<RequestKind>>,
    values: Vec<Option<Value>>,
}

/// `args(v)` with its parallel request kinds and returned values.
///
/// Exactly one of the two forms holds the list, and the other is in its
/// default state — so equality and cloning are the derived ones:
/// `spill` is `Some` iff the list is longer than [`INLINE`], and then
/// `len == 0`; otherwise the list is the first `len` inline slots. Inline
/// slots past `len` hold [`NO_TARGET`] / `None` / `None`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Arcs {
    targets: [VertexId; INLINE],
    kinds: [Option<RequestKind>; INLINE],
    values: [Option<Value>; INLINE],
    len: u8,
    spill: Option<Box<Spill>>,
}

impl Default for Arcs {
    fn default() -> Self {
        Arcs {
            targets: [NO_TARGET; INLINE],
            kinds: [None; INLINE],
            values: [const { None }; INLINE],
            len: 0,
            spill: None,
        }
    }
}

impl Arcs {
    /// The arc targets, in insertion order.
    #[inline]
    pub(crate) fn targets(&self) -> &[VertexId] {
        match &self.spill {
            Some(s) => &s.targets,
            None => &self.targets[..usize::from(self.len)],
        }
    }

    /// Request kinds parallel to [`Arcs::targets`].
    #[inline]
    pub(crate) fn kinds(&self) -> &[Option<RequestKind>] {
        match &self.spill {
            Some(s) => &s.kinds,
            None => &self.kinds[..usize::from(self.len)],
        }
    }

    /// Returned values parallel to [`Arcs::targets`].
    #[inline]
    pub(crate) fn values(&self) -> &[Option<Value>] {
        match &self.spill {
            Some(s) => &s.values,
            None => &self.values[..usize::from(self.len)],
        }
    }

    /// Appends an unrequested arc with no value.
    #[inline]
    pub(crate) fn push(&mut self, target: VertexId) {
        let n = usize::from(self.len);
        if let Some(s) = &mut self.spill {
            s.targets.push(target);
            s.kinds.push(None);
            s.values.push(None);
        } else if n < INLINE {
            self.targets[n] = target;
            self.len += 1;
        } else {
            self.spill_with(target);
        }
    }

    /// The arc after the last inline one: the whole list moves out.
    #[cold]
    fn spill_with(&mut self, target: VertexId) {
        let mut s = Box::new(Spill {
            targets: Vec::with_capacity(2 * INLINE),
            kinds: Vec::with_capacity(2 * INLINE),
            values: Vec::with_capacity(2 * INLINE),
        });
        s.targets.extend_from_slice(&self.targets);
        s.targets.push(target);
        s.kinds.extend_from_slice(&self.kinds);
        s.kinds.push(None);
        s.values.extend(std::mem::take(&mut self.values));
        s.values.push(None);
        *self = Arcs {
            spill: Some(s),
            ..Arcs::default()
        };
    }

    /// Removes arc `i`, returning its target and request kind.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn remove(&mut self, i: usize) -> (VertexId, Option<RequestKind>) {
        if let Some(s) = &mut self.spill {
            let removed = (s.targets.remove(i), s.kinds.remove(i));
            s.values.remove(i);
            if s.targets.len() == INLINE {
                self.unspill();
            }
            return removed;
        }
        let n = usize::from(self.len);
        assert!(i < n, "arc index {i} out of bounds (len {n})");
        let removed = (self.targets[i], self.kinds[i]);
        // The removed arc goes to the end of the live prefix, then that
        // slot returns to its unused state.
        self.targets[i..n].rotate_left(1);
        self.kinds[i..n].rotate_left(1);
        self.values[i..n].rotate_left(1);
        self.targets[n - 1] = NO_TARGET;
        self.kinds[n - 1] = None;
        self.values[n - 1] = None;
        self.len -= 1;
        removed
    }

    /// A spilled list shrank to [`INLINE`] arcs: it moves back in and the
    /// block is released.
    fn unspill(&mut self) {
        let s = *self.spill.take().expect("called on a spilled list");
        self.len = INLINE as u8;
        self.targets.copy_from_slice(&s.targets);
        self.kinds.copy_from_slice(&s.kinds);
        for (slot, v) in self.values.iter_mut().zip(s.values) {
            *slot = v;
        }
    }

    /// Sets the request kind of arc `i`, returning the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn set_kind(&mut self, i: usize, kind: Option<RequestKind>) -> Option<RequestKind> {
        let n = usize::from(self.len);
        let kinds = match &mut self.spill {
            Some(s) => &mut s.kinds[..],
            None => &mut self.kinds[..n],
        };
        std::mem::replace(&mut kinds[i], kind)
    }

    /// Records the value returned along arc `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn set_value(&mut self, i: usize, v: Value) {
        let n = usize::from(self.len);
        let values = match &mut self.spill {
            Some(s) => &mut s.values[..],
            None => &mut self.values[..n],
        };
        values[i] = Some(v);
    }

    /// Drops every arc (and the spill block, if any).
    #[inline]
    pub(crate) fn clear(&mut self) {
        *self = Arcs::default();
    }

    /// Replaces the list by `targets`, all unrequested and without values.
    #[inline]
    pub(crate) fn replace(&mut self, targets: impl IntoIterator<Item = VertexId>) {
        self.clear();
        for t in targets {
            self.push(t);
        }
    }
}
