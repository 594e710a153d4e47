//! `requested(v)`: the parties awaiting a vertex's value.
//!
//! Almost every vertex of a reduction has one requester and a shared one
//! two, so two live in the vertex record; a longer list moves whole into a
//! boxed spill block and back when it shrinks to two again — the rule of
//! the arcs record next door, for the same reason: no allocation on a
//! request, none on the reply to it, and one slice to hand out either way.

use std::ops::Deref;

use crate::vertex::Requester;

/// Requesters held in the vertex record (a private constant, not an
/// option).
const INLINE: usize = 2;

/// What an unused inline slot holds.
const NOBODY: Requester = Requester::External;

/// The out-of-line form of a list longer than [`INLINE`]. A struct of its
/// own so the record holds one thin pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spill(Vec<Requester>);

/// The requesters of a vertex, in arrival order (duplicates allowed).
/// Reads as a slice.
///
/// Exactly one of the two forms holds the list and the other is in its
/// default state, so equality is the derived one: `spill` is `Some` iff the
/// list is longer than [`INLINE`], and then `len == 0`; otherwise the list
/// is the first `len` inline slots and the rest hold [`NOBODY`].
///
/// # Example
///
/// ```
/// use dgr_graph::{NodeLabel, Requester, Vertex};
/// let mut v = Vertex::new(NodeLabel::If);
/// v.add_requester(Requester::External);
/// let waiting = v.take_requested();
/// assert_eq!(&waiting[..], &[Requester::External]);
/// assert!(v.requested().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requesters {
    inline: [Requester; INLINE],
    len: u8,
    spill: Option<Box<Spill>>,
}

impl Default for Requesters {
    fn default() -> Self {
        Requesters {
            inline: [NOBODY; INLINE],
            len: 0,
            spill: None,
        }
    }
}

impl Deref for Requesters {
    type Target = [Requester];

    #[inline]
    fn deref(&self) -> &[Requester] {
        match &self.spill {
            Some(s) => &s.0,
            None => &self.inline[..usize::from(self.len)],
        }
    }
}

impl Requesters {
    /// Appends a requester.
    #[inline]
    pub(crate) fn push(&mut self, r: Requester) {
        let n = usize::from(self.len);
        if let Some(s) = &mut self.spill {
            s.0.push(r);
        } else if n < INLINE {
            self.inline[n] = r;
            self.len += 1;
        } else {
            let mut list = Vec::with_capacity(2 * INLINE);
            list.extend_from_slice(&self.inline);
            list.push(r);
            *self = Requesters {
                spill: Some(Box::new(Spill(list))),
                ..Requesters::default()
            };
        }
    }

    /// Keeps the requesters `keep` accepts, returning how many went.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(Requester) -> bool) -> usize {
        if let Some(s) = &mut self.spill {
            let before = s.0.len();
            s.0.retain(|&r| keep(r));
            let kept = s.0.len();
            if kept <= INLINE {
                // Short enough for the record again: move back in and
                // release the block.
                let s = self.spill.take().expect("matched above");
                self.inline[..kept].copy_from_slice(&s.0);
                self.len = kept as u8;
            }
            return before - kept;
        }
        let n = usize::from(self.len);
        let mut kept = 0;
        for i in 0..n {
            let r = std::mem::replace(&mut self.inline[i], NOBODY);
            if keep(r) {
                self.inline[kept] = r;
                kept += 1;
            }
        }
        self.len = kept as u8;
        n - kept
    }

    /// Removes the first occurrence of `r`, returning whether there was one.
    pub(crate) fn remove(&mut self, r: Requester) -> bool {
        let mut found = false;
        self.retain(|x| {
            let hit = !found && x == r;
            found |= hit;
            !hit
        }) == 1
    }
}
