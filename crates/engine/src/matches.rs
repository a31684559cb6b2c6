//! Collected embeddings as rows of one buffer.

use benu_graph::VertexId;
use std::slice::ChunksExact;

/// A list of embeddings held row-major in one flat buffer: row `i` is
/// `flat[i * arity..(i + 1) * arity]`, indexed by pattern vertex. The only
/// representation of collected embeddings from the RES instruction to the
/// caller — a million rows are one allocation, not a million.
///
/// The arity is fixed by the first row pushed; a set nothing was ever
/// pushed into has none and equals every other empty set.
#[derive(Clone, Debug, Default)]
pub struct MatchSet {
    arity: usize,
    flat: Vec<VertexId>,
}

impl MatchSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.flat.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when no row is held.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Vertices per row (0 until the first push).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is empty or its length differs from the rows
    /// already held.
    #[inline]
    pub fn push(&mut self, row: &[VertexId]) {
        self.adopt_arity(row.len());
        self.flat.extend_from_slice(row);
    }

    /// Appends the first `rows` rows of `other` (all of them if it holds
    /// fewer) as one copy.
    ///
    /// # Panics
    ///
    /// Panics if both sets hold rows and their arities differ.
    pub fn extend_prefix(&mut self, other: &MatchSet, rows: usize) {
        let rows = rows.min(other.len());
        if rows > 0 {
            self.adopt_arity(other.arity);
            self.flat
                .extend_from_slice(&other.flat[..rows * other.arity]);
        }
    }

    fn adopt_arity(&mut self, arity: usize) {
        if self.flat.is_empty() {
            assert!(arity > 0, "an embedding maps at least one pattern vertex");
            self.arity = arity;
        } else {
            assert_eq!(arity, self.arity, "rows of one set share one arity");
        }
    }

    /// The rows, in order.
    pub fn rows(&self) -> ChunksExact<'_, VertexId> {
        self.flat.chunks_exact(self.arity.max(1))
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[VertexId] {
        &self.flat[i * self.arity..(i + 1) * self.arity]
    }

    /// Overwrites row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `row` has the wrong length.
    pub fn set_row(&mut self, i: usize, row: &[VertexId]) {
        self.flat[i * self.arity..(i + 1) * self.arity].copy_from_slice(row);
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.flat.truncate(rows * self.arity);
    }

    /// Sorts the rows lexicographically. Rows of up to eight vertices are
    /// sorted in place as `[VertexId; N]` values; wider ones through a
    /// sorted index and one gather.
    pub fn sort(&mut self) {
        macro_rules! in_place {
            ($($n:literal)*) => {
                match self.arity {
                    $($n => self.flat.as_chunks_mut::<$n>().0.sort_unstable(),)*
                    _ => self.sort_by_index(),
                }
            };
        }
        in_place!(1 2 3 4 5 6 7 8)
    }

    fn sort_by_index(&mut self) {
        let mut index: Vec<usize> = (0..self.len()).collect();
        index.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
        let mut flat = Vec::with_capacity(self.flat.len());
        for i in index {
            flat.extend_from_slice(self.get(i));
        }
        self.flat = flat;
    }

    /// Merges sorted sets into one sorted set: a k-way cursor into one
    /// buffer reserved at its final size. The parts are consumed, and a
    /// single non-empty part is handed back as it is.
    ///
    /// # Panics
    ///
    /// Panics if two non-empty parts differ in arity.
    pub fn merge_sorted(mut parts: Vec<MatchSet>) -> MatchSet {
        parts.retain(|part| !part.is_empty());
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_default();
        }
        let mut merged = MatchSet {
            arity: parts[0].arity,
            flat: Vec::with_capacity(parts.iter().map(|part| part.flat.len()).sum()),
        };
        let mut cursors: Vec<_> = parts.iter().map(|part| part.rows().peekable()).collect();
        loop {
            let mut least: Option<(usize, &[VertexId])> = None;
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if let Some(&row) = cursor.peek() {
                    // Ties go to the earlier part; equal rows are
                    // indistinguishable either way.
                    if least.is_none_or(|(_, best)| row < best) {
                        least = Some((i, row));
                    }
                }
            }
            let Some((i, row)) = least else {
                return merged;
            };
            merged.push(row);
            cursors[i].next();
        }
    }

    /// The rows as individually owned vectors — for tests and callers
    /// that compare against nested-vector oracles; the result path itself
    /// never calls it.
    pub fn to_vecs(&self) -> Vec<Vec<VertexId>> {
        self.rows().map(<[VertexId]>::to_vec).collect()
    }
}

impl PartialEq for MatchSet {
    fn eq(&self, other: &Self) -> bool {
        self.flat == other.flat && (self.flat.is_empty() || self.arity == other.arity)
    }
}

impl Eq for MatchSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn set(rows: &[Vec<VertexId>]) -> MatchSet {
        let mut out = MatchSet::default();
        rows.iter().for_each(|row| out.push(row));
        out
    }

    /// Rows over a small alphabet, so duplicates and shared prefixes are
    /// common.
    fn random_rows(rng: &mut ChaCha8Rng, arity: usize, rows: usize) -> Vec<Vec<VertexId>> {
        (0..rows)
            .map(|_| (0..arity).map(|_| rng.gen_range(0..4)).collect())
            .collect()
    }

    #[test]
    fn sort_agrees_with_nested_vectors_on_both_sides_of_the_width_split() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for arity in 1..=10 {
            let mut rows = random_rows(&mut rng, arity, 300);
            let mut flat = set(&rows);
            assert_eq!((flat.len(), flat.arity()), (300, arity));
            flat.sort();
            rows.sort_unstable();
            assert_eq!(flat.to_vecs(), rows, "arity {arity}");
        }
    }

    #[test]
    fn merging_any_partition_of_sorted_parts_is_the_global_sort() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for case in 0..60 {
            let (arity, count, ways) = (
                rng.gen_range(1..=10),
                rng.gen_range(0..200),
                rng.gen_range(1..=5),
            );
            let mut rows = random_rows(&mut rng, arity, count);
            let mut parts = vec![MatchSet::default(); ways];
            for row in &rows {
                // Half of the rows land in part 0, so other parts often
                // stay empty.
                let part = rng.gen_range(0..ways) * rng.gen_range(0..2usize);
                parts[part].push(row);
            }
            parts.iter_mut().for_each(MatchSet::sort);
            let merged = MatchSet::merge_sorted(parts);
            rows.sort_unstable();
            assert_eq!(merged.to_vecs(), rows, "case {case}: {ways} ways");
            assert_eq!(merged.len(), rows.len());
        }
    }

    #[test]
    fn a_single_non_empty_part_is_returned_not_copied() {
        let part = set(&[vec![1, 2], vec![3, 4]]);
        let buffer = part.flat.as_ptr();
        let merged = MatchSet::merge_sorted(vec![MatchSet::default(), part, MatchSet::default()]);
        assert_eq!(merged.flat.as_ptr(), buffer);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merged_buffer_is_reserved_once_at_its_final_size() {
        let parts = vec![set(&[vec![1], vec![4], vec![6]]), set(&[vec![2], vec![5]])];
        let merged = MatchSet::merge_sorted(parts);
        assert_eq!(merged.to_vecs(), [[1], [2], [4], [5], [6]]);
        assert_eq!(merged.flat.capacity(), 5);
    }

    #[test]
    fn rows_can_be_read_overwritten_cut_and_pushed_again() {
        let mut s = set(&[vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(s.get(1), [3, 4]);
        s.set_row(1, &[9, 9]);
        assert_eq!(s.rows().collect::<Vec<_>>(), [[1, 2], [9, 9], [5, 6]]);
        s.truncate(2);
        assert_eq!(s.to_vecs(), [[1, 2], [9, 9]]);
        s.push(&[7, 8]);
        assert_eq!((s.len(), s.get(2)), (3, &[7, 8][..]));
        // Cut to nothing, the set takes a new arity.
        s.truncate(0);
        assert!(s.is_empty());
        s.push(&[1, 2, 3]);
        assert_eq!((s.len(), s.arity()), (1, 3));
    }

    #[test]
    fn extend_prefix_copies_the_leading_rows() {
        let chunk = set(&[vec![1, 2], vec![3, 4], vec![5, 6]]);
        let mut kept = MatchSet::default();
        kept.extend_prefix(&chunk, 2);
        kept.extend_prefix(&chunk, 0);
        kept.extend_prefix(&MatchSet::default(), 3);
        kept.extend_prefix(&chunk, 9);
        assert_eq!(
            kept.to_vecs(),
            [[1, 2], [3, 4], [1, 2], [3, 4], [5, 6]],
            "a count past the end takes every row"
        );
    }

    #[test]
    fn empty_sets_are_equal_whatever_their_arity() {
        let never_pushed = MatchSet::default();
        assert_eq!((never_pushed.len(), never_pushed.arity()), (0, 0));
        assert_eq!(never_pushed.rows().count(), 0);
        let mut emptied = set(&[vec![1, 2, 3]]);
        emptied.truncate(0);
        assert_eq!(emptied.arity(), 3);
        assert_eq!(never_pushed, emptied);
        assert_eq!(MatchSet::merge_sorted(vec![]), emptied);
        // Non-empty sets compare by shape as well as content.
        assert_ne!(set(&[vec![1, 2]]), set(&[vec![1], vec![2]]));
        assert_ne!(set(&[vec![1, 2]]), never_pushed);
    }

    #[test]
    #[should_panic(expected = "share one arity")]
    fn a_row_of_another_width_is_refused() {
        set(&[vec![1, 2]]).push(&[1, 2, 3]);
    }
}
