//! Vertex-cover utilities for VCBC compression.
//!
//! VCBC compresses matching results around a vertex cover `V_c` of `P`:
//! matches of the induced core are "helves", and each non-cover vertex is
//! represented by its conditional image set. The plan compiler needs one
//! query: for a concrete matching order, the shortest prefix that covers
//! every pattern edge.

use crate::pattern::{Pattern, PatternVertex};

/// True iff the vertex set `mask` covers every edge of `p`.
pub fn is_vertex_cover(p: &Pattern, mask: u64) -> bool {
    p.edges()
        .all(|(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn demo_pattern_cover_prefix_matches_paper() {
        // Paper: matching order u1,u3,u5,u2,u6,u4 (0-based 0,2,4,1,5,3)
        // has its first three vertices {u1,u3,u5} as the vertex cover.
        let p = queries::demo_pattern();
        let order = [0, 2, 4, 1, 5, 3];
        assert_eq!(cover_prefix_len(&p, &order), 3);
        assert!(is_vertex_cover(&p, 0b010101));
    }

    #[test]
    fn cover_check_rejects_uncovered_edge() {
        let p = queries::clique(3);
        assert!(!is_vertex_cover(&p, 0b001));
        assert!(is_vertex_cover(&p, 0b011));
    }
}
