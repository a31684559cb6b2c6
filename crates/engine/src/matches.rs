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

    /// Sorts the rows lexicographically, in place. Rows of up to eight
    /// vertices are sorted as `[VertexId; N]` values; wider ones through
    /// a sorted index whose cycles then move the rows.
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
        // `index[i]` is the row that belongs at row `i`.
        let mut index: Vec<usize> = (0..self.len()).collect();
        index.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
        let arity = self.arity;
        let mut held = vec![0; arity];
        for start in 0..index.len() {
            if index[start] == start {
                continue;
            }
            // Walk the cycle through `start`: each row moves into the
            // hole the previous move left, and `start`'s own row, held
            // aside, fills the last one.
            held.copy_from_slice(self.get(start));
            let mut hole = start;
            loop {
                let from = std::mem::replace(&mut index[hole], hole);
                if from == start {
                    self.set_row(hole, &held);
                    break;
                }
                self.flat
                    .copy_within(from * arity..(from + 1) * arity, hole * arity);
                hole = from;
            }
        }
    }

    /// Merges sorted sets into one sorted set, in place: the largest part
    /// grows to the total and is filled from the back, each step taking
    /// the greatest remaining last row of all parts, and every other
    /// part is freed as it empties. The parts are consumed; the result's
    /// capacity is its length, and a single non-empty part is handed
    /// back as it is.
    ///
    /// # Panics
    ///
    /// Panics if two non-empty parts differ in arity.
    pub fn merge_sorted(mut parts: Vec<MatchSet>) -> MatchSet {
        parts.retain(|part| !part.is_empty());
        let Some(largest) = (0..parts.len()).max_by_key(|&i| parts[i].flat.len()) else {
            return MatchSet::default();
        };
        let mut merged = parts.swap_remove(largest);
        if parts.is_empty() {
            return merged;
        }
        let arity = merged.arity;
        assert!(
            parts.iter().all(|part| part.arity == arity),
            "rows of one set share one arity"
        );
        // `own` ends the merged part's rows not yet moved, `ends[i]` part
        // i's; whatever lies between `own` and `write` is free, and
        // `write` always equals `own` plus the parts' rows left, so the
        // merged part's own rows are in place once the others run out.
        let mut own = merged.flat.len();
        let mut ends: Vec<usize> = parts.iter().map(|part| part.flat.len()).collect();
        let mut write = own + ends.iter().sum::<usize>();
        merged.flat.reserve_exact(write - own);
        merged.flat.resize(write, 0);
        merged.flat.shrink_to_fit();
        while write > own {
            let mut greatest: Option<usize> = None;
            let mut top = &merged.flat[own.saturating_sub(arity)..own];
            for (i, &end) in ends.iter().enumerate() {
                let row = &parts[i].flat[end.saturating_sub(arity)..end];
                // Equal rows are indistinguishable: either may go first.
                if row > top {
                    (greatest, top) = (Some(i), row);
                }
            }
            write -= arity;
            match greatest {
                None => {
                    merged.flat.copy_within(own - arity..own, write);
                    own -= arity;
                }
                Some(i) => {
                    let end = ends[i];
                    merged.flat[write..write + arity]
                        .copy_from_slice(&parts[i].flat[end - arity..end]);
                    ends[i] -= arity;
                    if ends[i] == 0 {
                        parts[i] = MatchSet::default();
                    }
                }
            }
        }
        merged
    }

    /// A set with room for exactly `rows` rows of `arity` vertices.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> MatchSet {
        let mut set = MatchSet {
            arity,
            flat: Vec::new(),
        };
        set.flat.reserve_exact(arity * rows);
        set
    }

    /// Frees the buffer's capacity beyond its rows.
    pub fn shrink_to_fit(&mut self) {
        self.flat.shrink_to_fit();
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
            let buffer = (flat.flat.as_ptr(), flat.flat.capacity());
            flat.sort();
            rows.sort_unstable();
            assert_eq!(flat.to_vecs(), rows, "arity {arity}");
            assert_eq!(
                (flat.flat.as_ptr(), flat.flat.capacity()),
                buffer,
                "arity {arity}: sorted in its own buffer"
            );
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
            let merging = parts.iter().filter(|part| !part.is_empty()).count() > 1;
            let merged = MatchSet::merge_sorted(parts);
            rows.sort_unstable();
            assert_eq!(merged.to_vecs(), rows, "case {case}: {ways} ways");
            assert_eq!(merged.len(), rows.len());
            if merging {
                assert_eq!(merged.flat.capacity(), merged.flat.len(), "case {case}");
            }
        }
    }

    #[test]
    fn the_back_merge_fills_the_largest_part_in_place() {
        // The largest part sits in the middle, holds the smallest and
        // the greatest rows, and has spare capacity; the empty parts
        // around it are skipped.
        let mut largest = set(&[vec![0, 0], vec![2, 2], vec![2, 2], vec![9, 9]]);
        largest.flat.reserve_exact(64);
        let parts = vec![
            MatchSet::default(),
            set(&[vec![1, 1], vec![2, 2]]),
            largest,
            set(&[vec![3, 3]]),
            set(&[vec![1, 2], vec![1, 2], vec![8, 9]]),
            MatchSet::default(),
        ];
        let merged = MatchSet::merge_sorted(parts);
        assert_eq!(
            merged.to_vecs(),
            [
                [0, 0],
                [1, 1],
                [1, 2],
                [1, 2],
                [2, 2],
                [2, 2],
                [2, 2],
                [3, 3],
                [8, 9],
                [9, 9]
            ]
        );
        assert_eq!(merged.flat.capacity(), 20, "the spare room is given back");
        // Only empty parts: nothing, of no arity.
        let empty = MatchSet::merge_sorted(vec![MatchSet::default(); 3]);
        assert_eq!((empty.len(), empty.arity()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "share one arity")]
    fn merging_parts_of_different_widths_is_refused() {
        MatchSet::merge_sorted(vec![set(&[vec![1, 2]]), set(&[vec![1, 2, 3]])]);
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
