//! Sorted-set kernels backing the `Intersect` instructions.
//!
//! All kernels operate on strictly increasing `&[VertexId]` slices and write
//! into a caller-supplied output buffer so the hot enumeration loop performs
//! no allocation. Two strategies are used:
//!
//! * **merge scan** — linear two-pointer walk, best when the operands have
//!   comparable sizes;
//! * **galloping** — for each element of the small side, exponential +
//!   binary search in the large side; best when `|small| ≪ |large|`.
//!
//! [`intersect_into`] picks between them with the classical `len ratio`
//! heuristic (switch to galloping when one side is 32× larger), following
//! the adaptive designs used by high-performance set-intersection code.

use crate::VertexId;

/// Size ratio beyond which galloping beats the linear merge.
const GALLOP_RATIO: usize = 32;

/// Intersects two sorted slices into `out` (cleared first).
///
/// Chooses merge vs galloping automatically.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / small.len() >= GALLOP_RATIO {
        gallop_intersect_into(small, large, out);
    } else {
        merge_intersect_into(a, b, out);
    }
}

/// Two-pointer merge intersection.
pub fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            out.push(x);
            i += 1;
            j += 1;
        }
    }
}

/// Galloping intersection: for each element of the (small) `a`, gallop in
/// `b`. Requires `a.len() <= b.len()` for the intended complexity but is
/// correct regardless.
pub fn gallop_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let mut lo = 0usize;
    for &x in a {
        // Exponential probe from the last position.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < b.len() && b[hi] < x {
            lo = hi;
            hi += step;
            step <<= 1;
        }
        // `hi` now sits on the first probed element `>= x` (or past the
        // end); include it in the search window.
        let hi = (hi + 1).min(b.len());
        match b[lo..hi].binary_search(&x) {
            Ok(off) => {
                out.push(x);
                lo += off + 1;
            }
            Err(off) => {
                lo += off;
            }
        }
        if lo >= b.len() {
            break;
        }
    }
}

/// Counts `|a ∩ b|` without materialising the result.
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            n += 1;
            i += 1;
            j += 1;
        }
    }
    n
}

/// Intersects `k ≥ 1` sorted slices into `out`, smallest-first to keep the
/// running intermediate minimal. `scratch` is a reusable temporary.
pub fn intersect_many_into(
    sets: &[&[VertexId]],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
) {
    let mut order = Vec::new();
    intersect_many_by(sets.len(), |i| sets[i], &mut order, out, scratch);
}

/// Intersects `k` sorted slices, addressed by index through `get`, into
/// `out`. The index indirection lets callers keep operands in a slot
/// file (or any other owner) without materialising a `Vec<&[VertexId]>`
/// per call, and `order` is a caller-owned index buffer reused across
/// calls, so a steady-state caller performs no allocation at all.
/// Operands are visited smallest-first; the loop short-circuits as soon
/// as the running intermediate is empty.
pub fn intersect_many_by<'a>(
    k: usize,
    get: impl Fn(usize) -> &'a [VertexId],
    order: &mut Vec<usize>,
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
) {
    out.clear();
    match k {
        0 => {}
        1 => out.extend_from_slice(get(0)),
        _ => {
            order.clear();
            order.extend(0..k);
            order.sort_unstable_by_key(|&i| get(i).len());
            intersect_into(get(order[0]), get(order[1]), out);
            for &i in &order[2..] {
                if out.is_empty() {
                    return;
                }
                std::mem::swap(out, scratch);
                intersect_into(scratch, get(i), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn merge_matches_naive() {
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![2, 3, 5, 8, 9, 10];
        let mut out = Vec::new();
        merge_intersect_into(&a, &b, &mut out);
        assert_eq!(out, naive(&a, &b));
    }

    #[test]
    fn gallop_matches_naive_on_skewed_input() {
        let big: Vec<u32> = (0..10_000).map(|x| x * 3).collect();
        let small = vec![0, 3, 7, 9_999, 12_000, 29_997];
        let mut out = Vec::new();
        gallop_intersect_into(&small, &big, &mut out);
        assert_eq!(out, naive(&small, &big));
    }

    #[test]
    fn adaptive_picks_correct_result_both_ways() {
        let big: Vec<u32> = (0..5_000).collect();
        let small = vec![10, 4_999, 6_000];
        let mut out = Vec::new();
        intersect_into(&small, &big, &mut out);
        assert_eq!(out, vec![10, 4_999]);
        intersect_into(&big, &small, &mut out);
        assert_eq!(out, vec![10, 4_999]);
    }

    #[test]
    fn count_matches_materialised_len() {
        let a = vec![1, 2, 3, 10, 20];
        let b = vec![2, 3, 4, 20, 21];
        assert_eq!(intersect_count(&a, &b), 3);
    }

    #[test]
    fn many_way_intersection() {
        let a = vec![1, 2, 3, 4, 5, 6];
        let b = vec![2, 4, 6, 8];
        let c = vec![4, 5, 6, 7];
        let sets: Vec<&[u32]> = vec![&a, &b, &c];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        intersect_many_into(&sets, &mut out, &mut scratch);
        assert_eq!(out, vec![4, 6]);
    }

    #[test]
    fn many_way_single_and_empty() {
        let a = vec![3, 9];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        intersect_many_into(&[&a], &mut out, &mut scratch);
        assert_eq!(out, vec![3, 9]);
        intersect_many_into(&[], &mut out, &mut scratch);
        assert!(out.is_empty());
    }

    #[test]
    fn many_way_short_circuits_on_empty_intermediate() {
        let a = vec![1, 2];
        let b = vec![3, 4];
        let c = vec![1, 3];
        let sets: Vec<&[u32]> = vec![&a, &b, &c];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        intersect_many_into(&sets, &mut out, &mut scratch);
        assert!(out.is_empty());
    }

    /// Deterministic xorshift so the adversarial fan needs no external
    /// RNG crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_sorted_set(seed: &mut u64, len: usize, universe: u64) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len)
            .map(|_| (xorshift(seed) % universe.max(1)) as u32)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Property fan: the adaptive dispatch must agree with the naive
    /// intersection on size ratios that straddle `GALLOP_RATIO` (the
    /// merge→gallop switchover), where a bug in either kernel or in the
    /// dispatch predicate would show as a divergence.
    #[test]
    fn adaptive_dispatch_matches_naive_across_the_gallop_boundary() {
        let mut seed = 0x5eed_cafe_u64;
        let small_lens = [1usize, 2, 3, 7, 16];
        // Ratios just below, at, and above the switchover, plus extremes.
        let ratios = [
            GALLOP_RATIO - 1,
            GALLOP_RATIO,
            GALLOP_RATIO + 1,
            2 * GALLOP_RATIO,
            1,
        ];
        let mut out = Vec::new();
        for &small_len in &small_lens {
            for &ratio in &ratios {
                for universe_scale in [1u64, 4, 64] {
                    let large_len = small_len * ratio;
                    let universe = (large_len as u64 * universe_scale).max(2);
                    let a = random_sorted_set(&mut seed, small_len, universe);
                    let b = random_sorted_set(&mut seed, large_len, universe);
                    let expect = naive(&a, &b);
                    intersect_into(&a, &b, &mut out);
                    assert_eq!(out, expect, "a={a:?} b={b:?}");
                    intersect_into(&b, &a, &mut out);
                    assert_eq!(out, expect, "operand order must not matter");
                    assert_eq!(intersect_count(&a, &b), expect.len());
                }
            }
        }
    }

    #[test]
    fn adaptive_dispatch_handles_empty_and_disjoint_operands() {
        let mut out = vec![99];
        intersect_into(&[], &[1, 2, 3], &mut out);
        assert!(out.is_empty(), "empty small side");
        let big: Vec<u32> = (0..1_000).map(|x| x * 2).collect();
        intersect_into(&[1, 3, 5], &big, &mut out);
        assert!(out.is_empty(), "disjoint skewed operands");
    }

    #[test]
    fn intersect_many_by_matches_slice_api_and_reuses_order_buffer() {
        let a = vec![1u32, 2, 3, 4, 5, 6];
        let b = vec![2, 4, 6, 8];
        let c = vec![4, 5, 6, 7];
        let slots = [a.clone(), b.clone(), c.clone()];
        let (mut out, mut scratch, mut order) = (Vec::new(), Vec::new(), Vec::new());
        intersect_many_by(3, |i| &slots[i], &mut order, &mut out, &mut scratch);
        assert_eq!(out, vec![4, 6]);
        let order_cap = order.capacity();
        // A second call reuses the order buffer's capacity.
        intersect_many_by(3, |i| &slots[i], &mut order, &mut out, &mut scratch);
        assert_eq!(out, vec![4, 6]);
        assert_eq!(order.capacity(), order_cap);
        // And the slice-based API is a thin wrapper over the same code.
        let sets: Vec<&[u32]> = vec![&a, &b, &c];
        intersect_many_into(&sets, &mut out, &mut scratch);
        assert_eq!(out, vec![4, 6]);
    }
}
