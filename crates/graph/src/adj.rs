//! Sorted adjacency sets.
//!
//! An [`AdjSet`] is the value type of the distributed key-value store: the
//! neighbours of one data vertex, sorted ascending by vertex id. Keeping the
//! sets sorted lets every `Intersect` instruction run as a linear merge (or
//! a galloping search when operand sizes are skewed) without hashing or
//! allocation beyond the output buffer.
//!
//! A set may additionally carry the bitset-block representation of
//! [`crate::view`] (see [`AdjSet::with_blocks`]); [`AdjSet::view`] hands
//! both to the intersection kernels, which dispatch to block-wise code
//! when a dense operand is present.

use crate::view::{AdjView, BlockSet};
use crate::VertexId;

/// A sorted, duplicate-free set of vertex ids — the adjacency set
/// `Γ_G(v)` of one data vertex.
///
/// Invariant: `self.ids` is strictly increasing, and `self.blocks` (when
/// present) encodes exactly the same membership. Equality and hashing
/// look at the ids only, so building blocks never changes observable
/// identity.
#[derive(Clone, Debug, Default)]
pub struct AdjSet {
    ids: Vec<VertexId>,
    blocks: Option<BlockSet>,
}

impl PartialEq for AdjSet {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
    }
}

impl Eq for AdjSet {}

impl std::hash::Hash for AdjSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ids.hash(state);
    }
}

impl AdjSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AdjSet {
            ids: Vec::new(),
            blocks: None,
        }
    }

    /// Creates a set from a vector that is already sorted and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(v: Vec<VertexId>) -> Self {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "AdjSet not sorted");
        AdjSet {
            ids: v,
            blocks: None,
        }
    }

    /// Creates a set from arbitrary input, sorting and deduplicating it.
    pub fn from_unsorted(mut v: Vec<VertexId>) -> Self {
        v.sort_unstable();
        v.dedup();
        AdjSet {
            ids: v,
            blocks: None,
        }
    }

    /// Builds the bitset-block representation when the degree reaches
    /// `threshold` (see [`crate::view::DENSE_BLOCK_THRESHOLD`]); a
    /// no-op below it. Store loaders call this once per decoded value
    /// so the per-vertex representation decision is made at build time,
    /// not in the enumeration hot loop.
    pub fn with_blocks(mut self, threshold: usize) -> Self {
        if self.ids.len() >= threshold.max(1) {
            self.blocks = Some(BlockSet::from_sorted(&self.ids));
        }
        self
    }

    /// The dual-representation borrow handed to the intersection
    /// kernels.
    pub fn view(&self) -> AdjView<'_> {
        AdjView {
            ids: &self.ids,
            blocks: self.blocks.as_ref(),
        }
    }

    /// True when the set carries the block representation.
    pub fn has_blocks(&self) -> bool {
        self.blocks.is_some()
    }

    /// Number of vertices in the set (the degree, when this is `Γ_G(v)`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted ids as a slice.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.ids
    }

    /// Membership test via binary search.
    pub fn contains(&self, v: VertexId) -> bool {
        self.ids.binary_search(&v).is_ok()
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, VertexId> {
        self.ids.iter()
    }

    /// Approximate heap footprint in bytes; used for cache budgeting and
    /// frontier accounting (4 bytes per neighbour id; the optional block
    /// sidecar is excluded so budgets stay representation-independent).
    pub fn size_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<VertexId>()
    }
}

impl From<Vec<VertexId>> for AdjSet {
    fn from(v: Vec<VertexId>) -> Self {
        AdjSet::from_unsorted(v)
    }
}

impl<'a> IntoIterator for &'a AdjSet {
    type Item = &'a VertexId;
    type IntoIter = std::slice::Iter<'a, VertexId>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter()
    }
}

impl FromIterator<VertexId> for AdjSet {
    fn from_iter<T: IntoIterator<Item = VertexId>>(iter: T) -> Self {
        AdjSet::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = AdjSet::from_unsorted(vec![5, 1, 3, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = AdjSet::from_sorted(vec![2, 4, 8, 16]);
        assert!(s.contains(8));
        assert!(!s.contains(9));
        assert!(!s.contains(0));
        assert!(!s.contains(17));
    }

    #[test]
    fn size_bytes_counts_ids() {
        let s = AdjSet::from_sorted(vec![1, 2, 3]);
        assert_eq!(s.size_bytes(), 12);
    }

    #[test]
    fn empty_set() {
        let s = AdjSet::new();
        assert!(s.is_empty());
        assert_eq!(s.size_bytes(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn collect_from_iterator() {
        let s: AdjSet = [9u32, 1, 9, 4].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 4, 9]);
    }

    #[test]
    fn with_blocks_respects_threshold_and_preserves_identity() {
        let small = AdjSet::from_sorted(vec![1, 2, 3]).with_blocks(4);
        assert!(!small.has_blocks(), "below threshold stays slice-only");
        let ids: Vec<u32> = (0..8).map(|x| x * 10).collect();
        let dense = AdjSet::from_sorted(ids.clone()).with_blocks(4);
        assert!(dense.has_blocks());
        assert_eq!(dense.view().blocks.map(|b| b.num_blocks()), Some(2));
        // Blocks never change observable identity: equality, hash
        // input, size and slice all ignore the sidecar.
        let plain = AdjSet::from_sorted(ids);
        assert_eq!(dense, plain);
        assert_eq!(dense.size_bytes(), plain.size_bytes());
        assert_eq!(dense.as_slice(), plain.as_slice());
    }
}
