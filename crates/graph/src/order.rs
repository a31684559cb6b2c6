//! The total order `≺` on `V(G)` used by symmetry breaking.
//!
//! The paper adopts the order of SEED (Lai et al., PVLDB 2016): `u ≺ v` iff
//! `d(u) < d(v)`, or the degrees are equal and `id(u) < id(v)`. Ordering by
//! degree first concentrates the "smallest" vertices on the sparse side,
//! which keeps the candidate sets filtered by symmetry-breaking conditions
//! small in power-law graphs.
//!
//! [`TotalOrder`] precomputes a rank per vertex so each symmetry-breaking
//! filter check is a single integer comparison in the hot loop.

use crate::{Graph, VertexId};

/// Precomputed degree-then-id total order `≺` over the vertices of a data
/// graph.
#[derive(Clone, Debug)]
pub struct TotalOrder {
    /// `rank[v]` is the position of vertex `v` in `≺`-ascending order.
    rank: Vec<u32>,
}

impl TotalOrder {
    /// Computes the order for `g` in `O(N log N)`.
    pub fn new(g: &Graph) -> Self {
        let mut by_order: Vec<VertexId> = g.vertices().collect();
        by_order.sort_unstable_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0u32; g.num_vertices()];
        for (r, &v) in by_order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        TotalOrder { rank }
    }

    /// An identity order (rank = vertex id); handy for tests and for graphs
    /// whose ids are already degree-sorted.
    pub fn identity(n: usize) -> Self {
        TotalOrder {
            rank: (0..n as u32).collect(),
        }
    }

    /// The rank of `v` under `≺` (0 = smallest).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// True iff `a ≺ b`.
    #[inline]
    pub fn less(&self, a: VertexId, b: VertexId) -> bool {
        self.rank[a as usize] < self.rank[b as usize]
    }

    /// Number of vertices covered by the order.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True if the order covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_dominates_id() {
        // 0 has degree 3; 1,2,3 have degree 1 each plus edges among
        // themselves: make 3 have degree 2.
        let g = Graph::from_edges([(0, 1), (0, 2), (0, 3), (2, 3)]);
        let ord = TotalOrder::new(&g);
        // degrees: 0->3, 1->1, 2->2, 3->2
        assert!(ord.less(1, 2)); // lower degree first
        assert!(ord.less(2, 3)); // tie broken by id
        assert!(ord.less(3, 0));
        assert!(!ord.less(0, 1));
    }

    #[test]
    fn order_is_total_and_antisymmetric() {
        let g = Graph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let ord = TotalOrder::new(&g);
        for a in g.vertices() {
            assert!(!ord.less(a, a));
            for b in g.vertices() {
                if a != b {
                    assert!(ord.less(a, b) ^ ord.less(b, a));
                }
            }
        }
    }

    #[test]
    fn identity_order() {
        let ord = TotalOrder::identity(4);
        assert!(ord.less(0, 3));
        assert!(!ord.less(3, 0));
        assert_eq!(ord.len(), 4);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = Graph::from_edges([(0, 3), (1, 3), (2, 3)]);
        let ord = TotalOrder::new(&g);
        let mut ranks: Vec<u32> = (0..g.num_vertices() as u32).map(|v| ord.rank(v)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }
}
