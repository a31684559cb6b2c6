//! Syntactic equivalence (Ren & Wang \[17\]).
//!
//! Two pattern vertices are syntactically equivalent (`u_i ≃ u_j`) iff
//! `Γ_P(u_i) − {u_j} = Γ_P(u_j) − {u_i}` — they can be swapped in any
//! matching order without changing the plan's cost. The best-plan search
//! uses this for *dual pruning*: only the matching orders in which
//! SE-equivalent vertices appear in ascending index order are explored.

use crate::pattern::{Pattern, PatternVertex};

/// Pairwise syntactic-equivalence relation over `V(P)`.
#[derive(Clone, Debug)]
pub struct SyntacticEquivalence {
    n: usize,
    /// `rows[u]` has bit `v` set iff `u ≃ v` (including `u ≃ u`).
    rows: Vec<u64>,
}

impl SyntacticEquivalence {
    /// Computes the relation in `O(n²)` bitmask operations.
    pub fn compute(p: &Pattern) -> Self {
        let n = p.num_vertices();
        let mut rows = vec![0u64; n];
        for u in 0..n {
            rows[u] |= 1 << u;
            for v in (u + 1)..n {
                if p.label(u) != p.label(v) {
                    continue;
                }
                let gu = p.neighbor_mask(u) & !(1 << v);
                let gv = p.neighbor_mask(v) & !(1 << u);
                if gu == gv {
                    rows[u] |= 1 << v;
                    rows[v] |= 1 << u;
                }
            }
        }
        SyntacticEquivalence { n, rows }
    }

    /// True iff `u ≃ v`.
    pub fn equivalent(&self, u: PatternVertex, v: PatternVertex) -> bool {
        (self.rows[u] >> v) & 1 == 1
    }

    /// Number of pattern vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the relation covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The dual-pruning admissibility test of Algorithm 3 line 11: vertex
    /// `u` may be appended to the matching order only if no SE-equivalent
    /// vertex with a smaller index is still unused (`unused` is a bitmask
    /// over `V(P)` including `u`).
    pub fn passes_dual_condition(&self, u: PatternVertex, unused: u64) -> bool {
        let smaller_equiv = self.rows[u] & unused & ((1u64 << u) - 1);
        smaller_equiv == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn square_has_two_se_pairs() {
        // q4-style square 0-1-2-3-0: opposite corners are SE
        // (Γ(0)\{2} = {1,3} = Γ(2)\{0}).
        let p = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let se = SyntacticEquivalence::compute(&p);
        assert!(se.equivalent(0, 2));
        assert!(se.equivalent(1, 3));
        assert!(!se.equivalent(0, 1));
    }

    #[test]
    fn clique_vertices_all_equivalent() {
        let p = queries::clique(4);
        let se = SyntacticEquivalence::compute(&p);
        for u in 0..4 {
            for v in 0..4 {
                assert!(se.equivalent(u, v));
            }
        }
    }

    #[test]
    fn adjacent_twins_are_equivalent() {
        // 0 and 1 adjacent, both adjacent to 2: Γ(0)\{1} = {2} = Γ(1)\{0}.
        let p = Pattern::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let se = SyntacticEquivalence::compute(&p);
        assert!(se.equivalent(0, 1));
    }

    #[test]
    fn path_endpoints_not_equivalent() {
        let p = Pattern::from_edges(3, &[(0, 1), (1, 2)]);
        let se = SyntacticEquivalence::compute(&p);
        assert!(!se.equivalent(0, 1));
        assert!(se.equivalent(0, 2)); // both have Γ = {1}
    }

    #[test]
    fn dual_condition_rejects_out_of_order_equivalents() {
        let p = queries::clique(3);
        let se = SyntacticEquivalence::compute(&p);
        let all_unused = 0b111;
        assert!(se.passes_dual_condition(0, all_unused));
        assert!(!se.passes_dual_condition(1, all_unused)); // 0 ≃ 1 still unused
        assert!(!se.passes_dual_condition(2, all_unused));
        // Once 0 is used, 1 becomes admissible.
        assert!(se.passes_dual_condition(1, 0b110));
    }

    #[test]
    fn se_is_reflexive_and_symmetric_on_catalogue() {
        for (_, p) in queries::catalogue() {
            let se = SyntacticEquivalence::compute(&p);
            for u in 0..p.num_vertices() {
                assert!(se.equivalent(u, u));
                for v in 0..p.num_vertices() {
                    assert_eq!(se.equivalent(u, v), se.equivalent(v, u));
                }
            }
        }
    }
}
