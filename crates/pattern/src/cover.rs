//! Vertex-cover utilities for VCBC compression.
//!
//! VCBC compresses matching results around a vertex cover `V_c` of `P`:
//! matches of the induced core are "helves", and each non-cover vertex is
//! represented by its conditional image set. The plan compiler needs two
//! queries: the size of a minimum vertex cover (to judge matching orders)
//! and, for a concrete matching order, the shortest prefix that covers
//! every pattern edge.

use crate::pattern::{Pattern, PatternVertex};

/// True iff the vertex set `mask` covers every edge of `p`.
pub fn is_vertex_cover(p: &Pattern, mask: u64) -> bool {
    p.edges()
        .all(|(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
}

/// A minimum vertex cover of `p`, returned as a bitmask. Exhaustive search
/// by increasing cover size — exponential, but patterns are ≤ 10 vertices.
pub fn minimum_vertex_cover(p: &Pattern) -> u64 {
    let n = p.num_vertices();
    if p.num_edges() == 0 {
        return 0;
    }
    for k in 1..=n {
        if let Some(mask) = find_cover_of_size(p, k) {
            return mask;
        }
    }
    unreachable!("V(P) itself always covers E(P)")
}

fn find_cover_of_size(p: &Pattern, k: usize) -> Option<u64> {
    fn rec(p: &Pattern, mask: u64, next: usize, remaining: usize) -> Option<u64> {
        if is_vertex_cover(p, mask) {
            return Some(mask);
        }
        if remaining == 0 || next >= p.num_vertices() {
            return None;
        }
        // Branch: include `next` or not.
        if let Some(m) = rec(p, mask | (1 << next), next + 1, remaining - 1) {
            return Some(m);
        }
        rec(p, mask, next + 1, remaining)
    }
    rec(p, 0, 0, k)
}

/// Size of a minimum vertex cover.
pub fn min_cover_size(p: &Pattern) -> usize {
    minimum_vertex_cover(p).count_ones() as usize
}

/// For a matching order, the length `k` of the shortest prefix whose
/// vertices form a vertex cover of `p` (VCBC helve boundary, §IV-B).
/// Returns `order.len()` when only the full order covers (e.g. an
/// edgeless tail never happens because `P` is connected).
pub fn cover_prefix_len(p: &Pattern, order: &[PatternVertex]) -> usize {
    let mut mask = 0u64;
    for (i, &u) in order.iter().enumerate() {
        mask |= 1 << u;
        if is_vertex_cover(p, mask) {
            return i + 1;
        }
    }
    order.len()
}

/// The non-cover vertices of a prefix cover, in matching-order position.
pub fn non_cover_vertices(order: &[PatternVertex], cover_len: usize) -> Vec<PatternVertex> {
    order[cover_len..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn star_cover_is_centre() {
        let p = Pattern::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(minimum_vertex_cover(&p), 0b0001);
        assert_eq!(min_cover_size(&p), 1);
    }

    #[test]
    fn triangle_needs_two() {
        assert_eq!(min_cover_size(&queries::clique(3)), 2);
    }

    #[test]
    fn clique_needs_n_minus_one() {
        assert_eq!(min_cover_size(&queries::clique(5)), 4);
    }

    #[test]
    fn cycle5_needs_three() {
        assert_eq!(min_cover_size(&queries::q5()), 3);
    }

    #[test]
    fn demo_pattern_cover_prefix_matches_paper() {
        // Paper: matching order u1,u3,u5,u2,u6,u4 (0-based 0,2,4,1,5,3)
        // has its first three vertices {u1,u3,u5} as the vertex cover.
        let p = queries::demo_pattern();
        let order = [0, 2, 4, 1, 5, 3];
        assert_eq!(cover_prefix_len(&p, &order), 3);
        assert!(is_vertex_cover(&p, 0b010101));
        assert_eq!(non_cover_vertices(&order, 3), vec![1, 5, 3]);
    }

    #[test]
    fn cover_check_rejects_uncovered_edge() {
        let p = queries::clique(3);
        assert!(!is_vertex_cover(&p, 0b001));
        assert!(is_vertex_cover(&p, 0b011));
    }

    #[test]
    fn minimum_cover_is_actually_a_cover() {
        for (name, p) in queries::catalogue() {
            let mask = minimum_vertex_cover(&p);
            assert!(is_vertex_cover(&p, mask), "cover invalid for {name}");
        }
    }
}
