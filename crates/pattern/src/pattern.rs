//! The pattern graph `P`.
//!
//! Patterns are tiny (the paper never exceeds 10 vertices), so each vertex's
//! adjacency is a single `u64` bitmask row. Vertices are `0-based` in code;
//! the paper's `u1..un` map to `0..n-1`.

/// Index of a pattern vertex (`0 ..= 63`).
pub type PatternVertex = usize;

/// Maximum supported pattern size (bitmask rows are `u64`).
pub const MAX_PATTERN_VERTICES: usize = 64;

/// A small undirected simple graph stored as bitmask adjacency rows,
/// optionally vertex-labeled (the property-graph extension the paper
/// lists as future work: a labeled pattern vertex only matches data
/// vertices carrying the same label).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pattern {
    n: usize,
    /// `rows[u]` has bit `v` set iff `(u, v) ∈ E(P)`.
    rows: Vec<u64>,
    /// Vertex labels; `None` for the unlabeled patterns of the paper.
    labels: Option<Vec<u32>>,
}

impl Pattern {
    /// Creates an edgeless pattern with `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_PATTERN_VERTICES`].
    pub fn empty(n: usize) -> Self {
        assert!(
            (1..=MAX_PATTERN_VERTICES).contains(&n),
            "pattern size {n} out of range"
        );
        Pattern {
            n,
            rows: vec![0; n],
            labels: None,
        }
    }

    /// Attaches vertex labels (property-graph extension). Automorphisms,
    /// syntactic equivalence and isomorphism checks become label-aware.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != n`.
    pub fn with_labels(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(labels.len(), self.n, "one label per pattern vertex");
        self.labels = Some(labels);
        self
    }

    /// The label of `u`, if the pattern is labeled.
    pub fn label(&self, u: PatternVertex) -> Option<u32> {
        self.labels.as_ref().map(|l| l[u])
    }

    /// All labels, if the pattern is labeled.
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// True when the pattern carries vertex labels.
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Builds a pattern with `n` vertices from an undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, edges: &[(PatternVertex, PatternVertex)]) -> Self {
        let mut p = Pattern::empty(n);
        for &(u, v) in edges {
            p.add_edge(u, v);
        }
        p
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, u: PatternVertex, v: PatternVertex) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self-loop on pattern vertex {u}");
        self.rows[u] |= 1 << v;
        self.rows[v] |= 1 << u;
    }

    /// Number of vertices `n = |V(P)|`.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges `m = |E(P)|`.
    pub fn num_edges(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// Degree of `u` in `P`.
    pub fn degree(&self, u: PatternVertex) -> usize {
        self.rows[u].count_ones() as usize
    }

    /// Edge membership test.
    pub fn has_edge(&self, u: PatternVertex, v: PatternVertex) -> bool {
        u < self.n && v < self.n && (self.rows[u] >> v) & 1 == 1
    }

    /// The adjacency row of `u` as a bitmask.
    pub fn neighbor_mask(&self, u: PatternVertex) -> u64 {
        self.rows[u]
    }

    /// Iterates the neighbours of `u` in ascending order.
    pub fn neighbors(&self, u: PatternVertex) -> impl Iterator<Item = PatternVertex> + '_ {
        BitIter(self.rows[u])
    }

    /// Iterates all undirected edges with `u < v` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (PatternVertex, PatternVertex)> + '_ {
        (0..self.n).flat_map(move |u| {
            BitIter(self.rows[u] & !((1u128 << (u + 1)) - 1) as u64).map(move |v| (u, v))
        })
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = PatternVertex> {
        0..self.n
    }

    /// The induced subgraph on the vertex subset given as a bitmask,
    /// *keeping original vertex indices* (vertices outside the mask become
    /// isolated and are excluded from edge/degree accounting by the
    /// caller). For a compact re-indexed copy use [`Pattern::induced`].
    pub fn induced_mask_edges(&self, mask: u64) -> usize {
        let mut m = 0usize;
        for u in BitIter(mask) {
            m += (self.rows[u] & mask).count_ones() as usize;
        }
        m / 2
    }

    /// The induced subgraph on `verts` with vertices re-indexed to
    /// `0..verts.len()` in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `verts` contains duplicates or out-of-range indices.
    pub fn induced(&self, verts: &[PatternVertex]) -> Pattern {
        let mut p = Pattern::empty(verts.len().max(1));
        p.n = verts.len();
        p.rows.truncate(verts.len().max(1));
        if verts.is_empty() {
            p.rows.clear();
            return p;
        }
        let mut seen = 0u64;
        for &v in verts {
            assert!(v < self.n, "vertex {v} out of range");
            assert!(seen & (1 << v) == 0, "duplicate vertex {v}");
            seen |= 1 << v;
        }
        for (i, &u) in verts.iter().enumerate() {
            for (j, &v) in verts.iter().enumerate().skip(i + 1) {
                if self.has_edge(u, v) {
                    p.add_edge(i, j);
                }
            }
        }
        if let Some(labels) = &self.labels {
            p.labels = Some(verts.iter().map(|&v| labels[v]).collect());
        }
        p
    }

    /// True if the pattern is connected (single-vertex patterns count as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let full = if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        };
        self.component_of(0) == full
    }

    /// Bitmask of the connected component containing `start`.
    pub fn component_of(&self, start: PatternVertex) -> u64 {
        let mut comp = 1u64 << start;
        loop {
            let mut next = comp;
            for u in BitIter(comp) {
                next |= self.rows[u];
            }
            if next == comp {
                return comp;
            }
            comp = next;
        }
    }

    /// Connected components of the sub-vertex-set `mask`, each returned as
    /// a bitmask. Used by the cost model, which multiplies per-component
    /// match estimates for disconnected partial patterns.
    pub fn components_within(&self, mask: u64) -> Vec<u64> {
        let mut remaining = mask;
        let mut comps = Vec::new();
        while remaining != 0 {
            let start = remaining.trailing_zeros() as usize;
            let mut comp = 1u64 << start;
            loop {
                let mut next = comp;
                for u in BitIter(comp) {
                    next |= self.rows[u] & mask;
                }
                if next == comp {
                    break;
                }
                comp = next;
            }
            comps.push(comp);
            remaining &= !comp;
        }
        comps
    }

    /// Tests whether `perm` (a bijection `old -> new` of `0..n`) is an
    /// isomorphism from `self` onto `other`.
    pub fn is_isomorphism_to(&self, other: &Pattern, perm: &[PatternVertex]) -> bool {
        if self.n != other.n || perm.len() != self.n {
            return false;
        }
        self.edges().all(|(u, v)| other.has_edge(perm[u], perm[v]))
            && self.num_edges() == other.num_edges()
            && (0..self.n).all(|u| self.label(u) == other.label(perm[u]))
    }

    /// True if some bijection of the vertices carries `self`'s edges and
    /// labels onto `other`'s: the [`crate::automorphism`] map search with
    /// nothing fixed.
    pub fn is_isomorphic(&self, other: &Pattern) -> bool {
        crate::automorphism::extends_to_isomorphism(self, other, &[])
    }

    /// The pattern with vertices renumbered by `perm` (a bijection
    /// `old -> new` of `0..n`): edge `(u, v)` becomes
    /// `(perm[u], perm[v])`, labels follow their vertices. The result is
    /// isomorphic to `self` by construction — the property-test
    /// workhorse of [`crate::canonical`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabeled(&self, perm: &[PatternVertex]) -> Pattern {
        assert_eq!(perm.len(), self.n, "one image per vertex");
        let mut seen = 0u64;
        for &v in perm {
            assert!(v < self.n, "image {v} out of range");
            assert!(seen & (1 << v) == 0, "duplicate image {v}");
            seen |= 1 << v;
        }
        let edges: Vec<_> = self.edges().map(|(u, v)| (perm[u], perm[v])).collect();
        let mut p = Pattern::from_edges(self.n, &edges);
        if let Some(labels) = &self.labels {
            let mut new_labels = vec![0u32; self.n];
            for (u, &l) in labels.iter().enumerate() {
                new_labels[perm[u]] = l;
            }
            p.labels = Some(new_labels);
        }
        p
    }

    /// A hash equal across every member of this pattern's isomorphism
    /// class (relabelings, automorphic images) and — hash collisions
    /// aside — distinct across classes. See [`crate::canonical`].
    pub fn canonical_hash(&self) -> u64 {
        crate::canonical::canonical_hash(self)
    }

    /// The canonical representative of this pattern's isomorphism class
    /// plus the placement mapping back to this numbering. See
    /// [`crate::canonical`].
    pub fn canonical_form(&self) -> crate::canonical::CanonicalForm {
        crate::canonical::canonical_form(self)
    }
}

/// Iterator over set bit positions of a `u64`, ascending.
#[derive(Clone, Copy, Debug)]
pub struct BitIter(pub u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let b = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Pattern {
        Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn counts_and_degrees() {
        let p = square();
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.num_edges(), 4);
        assert!(p.vertices().all(|v| p.degree(v) == 2));
    }

    #[test]
    fn edges_iterate_once_each() {
        let p = square();
        let edges: Vec<_> = p.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Pattern::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn neighbors_sorted() {
        let p = Pattern::from_edges(4, &[(2, 0), (2, 3), (2, 1)]);
        let nbrs: Vec<_> = p.neighbors(2).collect();
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn induced_subgraph_reindexes() {
        let p = square();
        let sub = p.induced(&[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2); // 1-2 and 2-3 survive
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn connectivity() {
        assert!(square().is_connected());
        let two = Pattern::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!two.is_connected());
        let comps = two.components_within(0b1111);
        assert_eq!(comps, vec![0b0011, 0b1100]);
        // Restricting the mask splits components further.
        let comps = two.components_within(0b0101);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn isomorphism_detects_relabeling() {
        let a = square();
        // Same square with vertices relabeled.
        let b = Pattern::from_edges(4, &[(0, 2), (2, 1), (1, 3), (3, 0)]);
        assert!(a.is_isomorphic(&b));
        let c = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]); // path + chord, not a cycle
        assert!(!a.is_isomorphic(&c));
    }

    #[test]
    fn is_isomorphism_to_checks_specific_map() {
        let a = Pattern::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let b = a.clone();
        assert!(a.is_isomorphism_to(&b, &[1, 2, 0]));
        let path = Pattern::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!path.is_isomorphism_to(&a, &[0, 1, 2]) || a.num_edges() == path.num_edges());
    }

    #[test]
    fn bit_iter_yields_ascending() {
        let bits: Vec<_> = BitIter(0b1010_0110).collect();
        assert_eq!(bits, vec![1, 2, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
    }

    #[test]
    fn induced_mask_edges_counts() {
        let p = square();
        assert_eq!(p.induced_mask_edges(0b1111), 4);
        assert_eq!(p.induced_mask_edges(0b0111), 2);
        assert_eq!(p.induced_mask_edges(0b0101), 0);
    }
}
