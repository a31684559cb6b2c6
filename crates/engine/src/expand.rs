//! VCBC code expansion: turning `(helve, conditional image sets)` codes
//! back into embeddings, or just counting them.
//!
//! The plan compiler drops two kinds of constraints when it removes a
//! non-cover vertex's ENU instruction: injectivity *between non-cover
//! vertices* and symmetry-breaking order *between non-cover vertices*
//! (constraints against cover vertices stay baked into the image-set
//! filters). Expansion re-applies them.
//!
//! Counting uses two fast paths before falling back to backtracking:
//!
//! * disjoint constraint components multiply independently;
//! * a component whose image sets are all identical counts as a falling
//!   factorial (injectivity only) or a binomial coefficient (full order
//!   chain) — the common cases produced by syntactically-equivalent
//!   pattern vertices such as star leaves or clique tails.

use crate::compile::ExpansionInfo;
use crate::consumer::MatchConsumer;
use benu_graph::ops::intersect_count;
use benu_graph::{TotalOrder, VertexId};

/// The component partition [`count_code_embeddings`] builds per code,
/// kept by the caller so that counting a code allocates nothing once the
/// buffers have grown to the plan's non-cover count.
#[derive(Debug, Default)]
pub struct CountScratch {
    comp: Vec<usize>,
    members: Vec<usize>,
}

/// Counts the embeddings encoded by one compressed code whose image sets
/// are `images[t]` for `info.non_cover[t]`.
pub fn count_code_embeddings(
    info: &ExpansionInfo,
    images: &[&[VertexId]],
    order: &TotalOrder,
    scratch: &mut CountScratch,
) -> u64 {
    let t = info.non_cover.len();
    if t == 0 {
        return 1;
    }
    if images.iter().any(|s| s.is_empty()) {
        return 0;
    }
    // Partition positions into components connected by "may interact":
    // overlapping image sets or an order constraint.
    let CountScratch { comp, members } = scratch;
    comp.clear();
    comp.extend(0..t);
    for a in 0..t {
        for b in (a + 1)..t {
            let interacting =
                info.pair_order[a][b].is_some() || intersect_count(images[a], images[b]) > 0;
            if interacting {
                let (ra, rb) = (root(comp, a), root(comp, b));
                if ra != rb {
                    comp[ra.max(rb)] = ra.min(rb);
                }
            }
        }
    }
    let mut total = 1u64;
    for c in 0..t {
        if root(comp, c) != c {
            continue;
        }
        members.clear();
        members.extend((0..t).filter(|&x| root(comp, x) == c));
        total = total.saturating_mul(count_component(info, images, order, members));
    }
    total
}

fn root(comp: &mut [usize], mut x: usize) -> usize {
    while comp[x] != x {
        comp[x] = comp[comp[x]];
        x = comp[x];
    }
    x
}

fn count_component(
    info: &ExpansionInfo,
    images: &[&[VertexId]],
    order: &TotalOrder,
    members: &[usize],
) -> u64 {
    let k = members.len();
    if k == 1 {
        return images[members[0]].len() as u64;
    }
    // Fast path: identical sets.
    let first = images[members[0]];
    let identical = members[1..].iter().all(|&m| images[m] == first);
    if identical {
        let s = first.len() as u64;
        if s < k as u64 {
            return 0;
        }
        let all_chained = members.iter().enumerate().all(|(i, &a)| {
            members[i + 1..]
                .iter()
                .all(|&b| info.pair_order[a.min(b)][a.max(b)].is_some())
        });
        if all_chained {
            // Any assignment order is forced: C(s, k) choices.
            return binomial(s, k as u64);
        }
        let none_chained = members.iter().enumerate().all(|(i, &a)| {
            members[i + 1..]
                .iter()
                .all(|&b| info.pair_order[a.min(b)][a.max(b)].is_none())
        });
        if none_chained {
            // Injectivity only: falling factorial.
            return (0..k as u64).map(|i| s - i).product();
        }
    }
    // Injectivity-only components count in closed form via
    // inclusion–exclusion over set partitions — crucial for dense
    // workloads where per-code embedding counts reach billions.
    let unordered = members.iter().enumerate().all(|(i, &a)| {
        members[i + 1..]
            .iter()
            .all(|&b| info.pair_order[a.min(b)][a.max(b)].is_none())
    });
    if unordered && k <= 6 {
        return count_injective_inclusion_exclusion(images, members);
    }
    // General case: backtracking over the (small) component.
    let mut chosen: Vec<VertexId> = Vec::with_capacity(k);
    count_backtrack(info, images, order, members, &mut chosen)
}

/// Counts injective systems of representatives of the member image sets
/// by inclusion–exclusion over set partitions:
/// `Σ_partitions Π_blocks (−1)^{|B|−1} (|B|−1)! · |∩_{i∈B} C_i|`.
/// Exact for any overlap structure; cost is `O(2^k)` subset
/// intersections plus `Bell(k)` partition terms — independent of the
/// (possibly astronomical) embedding count.
fn count_injective_inclusion_exclusion(images: &[&[VertexId]], members: &[usize]) -> u64 {
    let k = members.len();
    // |∩_{i∈S} C_i| for every non-empty subset mask S.
    let mut subset_size = vec![0i128; 1 << k];
    let mut scratch: Vec<VertexId> = Vec::new();
    let mut tmp: Vec<VertexId> = Vec::new();
    let mut cache: Vec<Option<Vec<VertexId>>> = vec![None; 1 << k];
    for mask in 1usize..(1 << k) {
        if mask.count_ones() == 1 {
            let i = mask.trailing_zeros() as usize;
            subset_size[mask] = images[members[i]].len() as i128;
            cache[mask] = Some(images[members[i]].to_vec());
            continue;
        }
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let low_set = cache[low].as_ref().expect("singleton cached");
        let rest_set = cache[rest].as_ref().expect("smaller mask cached");
        benu_graph::ops::intersect_into(low_set, rest_set, &mut scratch);
        std::mem::swap(&mut scratch, &mut tmp);
        subset_size[mask] = tmp.len() as i128;
        cache[mask] = Some(std::mem::take(&mut tmp));
    }
    // Enumerate set partitions of {0..k} (restricted growth strings).
    let mut total: i128 = 0;
    let mut blocks: Vec<usize> = Vec::new(); // block masks
    fn rec(pos: usize, k: usize, blocks: &mut Vec<usize>, subset_size: &[i128], total: &mut i128) {
        if pos == k {
            let mut term: i128 = 1;
            for &b in blocks.iter() {
                let sz = b.count_ones() as i128;
                let mut factorial = 1i128;
                for f in 1..sz {
                    factorial *= f;
                }
                let sign = if (sz - 1) % 2 == 0 { 1 } else { -1 };
                term *= sign * factorial * subset_size[b];
            }
            *total += term;
            return;
        }
        for i in 0..blocks.len() {
            blocks[i] |= 1 << pos;
            rec(pos + 1, k, blocks, subset_size, total);
            blocks[i] &= !(1 << pos);
        }
        blocks.push(1 << pos);
        rec(pos + 1, k, blocks, subset_size, total);
        blocks.pop();
    }
    rec(0, k, &mut blocks, &subset_size, &mut total);
    total.max(0) as u64
}

fn count_backtrack(
    info: &ExpansionInfo,
    images: &[&[VertexId]],
    order: &TotalOrder,
    members: &[usize],
    chosen: &mut Vec<VertexId>,
) -> u64 {
    let depth = chosen.len();
    if depth == members.len() {
        return 1;
    }
    let cur = members[depth];
    let mut count = 0;
    for &x in images[cur] {
        let fits =
            (chosen.iter().zip(members)).all(|(&y, &prev)| admits(info, order, prev, y, cur, x));
        if fits {
            chosen.push(x);
            count += count_backtrack(info, images, order, members, chosen);
            chosen.pop();
        }
    }
    count
}

/// True when `x` may image non-cover vertex `cur` beside `y` imaging
/// non-cover vertex `prev`: the two differ (injectivity) and satisfy the
/// symmetry order the pair carries, if any.
#[inline]
fn admits(
    info: &ExpansionInfo,
    order: &TotalOrder,
    prev: usize,
    y: VertexId,
    cur: usize,
    x: VertexId,
) -> bool {
    // `lo` images the lower non-cover index of the pair.
    let (lo, hi) = if prev < cur { (y, x) } else { (x, y) };
    x != y
        && match info.pair_order[prev.min(cur)][prev.max(cur)] {
            Some(true) => order.less(lo, hi),
            Some(false) => order.less(hi, lo),
            None => true,
        }
}

/// Enumerates the embeddings of one code, writing each non-cover mapping
/// into `f` and handing it to `consumer` (cover vertices must already be
/// set in `f`).
pub fn expand_code<C: MatchConsumer + ?Sized>(
    info: &ExpansionInfo,
    images: &[&[VertexId]],
    order: &TotalOrder,
    f: &mut [VertexId],
    consumer: &mut C,
) {
    expand_rec(info, images, order, f, 0, consumer);
}

fn expand_rec<C: MatchConsumer + ?Sized>(
    info: &ExpansionInfo,
    images: &[&[VertexId]],
    order: &TotalOrder,
    f: &mut [VertexId],
    depth: usize,
    consumer: &mut C,
) {
    if depth == info.non_cover.len() {
        consumer.on_match(f);
        return;
    }
    let cur_vertex = info.non_cover[depth];
    for &x in images[depth] {
        if (0..depth).all(|prev| admits(info, order, prev, f[info.non_cover[prev]], depth, x)) {
            f[cur_vertex] = x;
            expand_rec(info, images, order, f, depth + 1, consumer);
        }
    }
    f[cur_vertex] = VertexId::MAX;
}

/// Binomial coefficient `C(n, k)` with saturation.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::FnConsumer;
    use crate::matches::MatchSet;

    fn expand_all(
        info: &ExpansionInfo,
        images: &[&[VertexId]],
        order: &TotalOrder,
        f: &mut [VertexId],
    ) -> MatchSet {
        let mut seen = MatchSet::default();
        expand_code(
            info,
            images,
            order,
            f,
            &mut FnConsumer(|row: &[VertexId]| seen.push(row)),
        );
        seen
    }

    fn count_code_embeddings(
        info: &ExpansionInfo,
        images: &[&[VertexId]],
        order: &TotalOrder,
    ) -> u64 {
        super::count_code_embeddings(info, images, order, &mut CountScratch::default())
    }

    fn info(non_cover: Vec<usize>, pairs: &[(usize, usize, Option<bool>)]) -> ExpansionInfo {
        let t = non_cover.len();
        let mut pair_order = vec![vec![None; t]; t];
        for &(a, b, ord) in pairs {
            pair_order[a][b] = ord;
        }
        ExpansionInfo {
            non_cover,
            image_reg: vec![0; t],
            pair_order,
        }
    }

    fn identity_order(n: usize) -> TotalOrder {
        TotalOrder::identity(n)
    }

    #[test]
    fn disjoint_sets_multiply() {
        let i = info(vec![0, 1], &[]);
        let order = identity_order(10);
        let a: Vec<u32> = vec![1, 2, 3];
        let b: Vec<u32> = vec![7, 8];
        assert_eq!(count_code_embeddings(&i, &[&a, &b], &order), 6);
    }

    #[test]
    fn identical_sets_injectivity_only_is_falling_factorial() {
        let i = info(vec![0, 1, 2], &[]);
        let order = identity_order(10);
        let s: Vec<u32> = vec![1, 2, 3, 4];
        assert_eq!(count_code_embeddings(&i, &[&s, &s, &s], &order), 4 * 3 * 2);
    }

    #[test]
    fn identical_sets_full_chain_is_binomial() {
        let i = info(
            vec![0, 1, 2],
            &[(0, 1, Some(true)), (0, 2, Some(true)), (1, 2, Some(true))],
        );
        let order = identity_order(10);
        let s: Vec<u32> = vec![1, 2, 3, 4, 5];
        assert_eq!(count_code_embeddings(&i, &[&s, &s, &s], &order), 10); // C(5,3)
    }

    #[test]
    fn empty_image_set_counts_zero() {
        let i = info(vec![0, 1], &[]);
        let order = identity_order(4);
        let a: Vec<u32> = vec![1];
        let b: Vec<u32> = vec![];
        assert_eq!(count_code_embeddings(&i, &[&a, &b], &order), 0);
    }

    #[test]
    fn partial_overlap_counts_by_backtracking() {
        let i = info(vec![0, 1], &[]);
        let order = identity_order(10);
        let a: Vec<u32> = vec![1, 2];
        let b: Vec<u32> = vec![2, 3];
        // pairs: (1,2),(1,3),(2,3) — (2,2) excluded.
        assert_eq!(count_code_embeddings(&i, &[&a, &b], &order), 3);
    }

    #[test]
    fn order_constraint_halves_symmetric_pairs() {
        let i = info(vec![0, 1], &[(0, 1, Some(true))]);
        let order = identity_order(10);
        let s: Vec<u32> = vec![1, 2, 3];
        // {a < b}: C(3,2) = 3 of the 6 injective pairs.
        assert_eq!(count_code_embeddings(&i, &[&s, &s], &order), 3);
    }

    #[test]
    fn expansion_enumerates_exactly_counted_embeddings() {
        let i = info(vec![0, 2], &[(0, 1, Some(true))]);
        let order = identity_order(10);
        let a: Vec<u32> = vec![1, 2, 4];
        let b: Vec<u32> = vec![2, 4];
        let count = count_code_embeddings(&i, &[&a, &b], &order);
        let mut f = vec![u32::MAX; 3];
        f[1] = 9; // pretend cover vertex
        let seen = expand_all(&i, &[&a, &b], &order, &mut f);
        assert_eq!(seen.len() as u64, count);
        // Every emitted embedding respects injectivity.
        for m in seen.rows() {
            assert_ne!(m[0], m[2]);
        }
    }

    #[test]
    fn reversed_order_constraint_respected() {
        let i = info(vec![0, 1], &[(0, 1, Some(false))]); // f[1] ≺ f[0]
        let order = identity_order(10);
        let a: Vec<u32> = vec![1, 2, 3];
        assert_eq!(count_code_embeddings(&i, &[&a, &a], &order), 3);
        let mut f = vec![u32::MAX; 2];
        let seen = expand_all(&i, &[&a, &a], &order, &mut f);
        assert!(seen.rows().all(|m| m[1] < m[0]));
    }

    #[test]
    fn inclusion_exclusion_matches_backtracking() {
        // Deterministic pseudo-random overlapping sets, injectivity only.
        let mut state = 0xDEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // One scratch across every case, as the engine holds it: a count
        // must not depend on what the previous code left behind.
        let mut scratch = CountScratch::default();
        for t in 2..=4usize {
            for _case in 0..30 {
                let sets: Vec<Vec<u32>> = (0..t)
                    .map(|_| {
                        let len = (next() % 6) as usize;
                        let mut v: Vec<u32> = (0..len).map(|_| (next() % 10) as u32).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
                let i = info((0..t).collect(), &[]);
                let order = identity_order(10);
                let via_ie = super::count_code_embeddings(&i, &slices, &order, &mut scratch);
                // Direct backtracking for the ground truth.
                let mut chosen = Vec::new();
                let members: Vec<usize> = (0..t).collect();
                let truth = if slices.iter().any(|s| s.is_empty()) {
                    0
                } else {
                    super::count_backtrack(&i, &slices, &order, &members, &mut chosen)
                };
                assert_eq!(via_ie, truth, "sets {sets:?}");
            }
        }
    }

    #[test]
    fn binomial_is_exact() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }
}
