//! The data graph `G` in compressed sparse row (CSR) form.
//!
//! The paper assumes undirected, unlabeled *simple* graphs with vertices
//! numbered consecutively. [`GraphBuilder`] normalises arbitrary edge input
//! (drops self-loops and duplicate edges) and produces a [`Graph`] whose
//! adjacency sets are sorted — the exact value layout stored in the
//! distributed key-value store.

use crate::{AdjSet, Edge, VertexId};

/// An immutable undirected simple graph in CSR form.
///
/// Adjacency of vertex `v` occupies `adj[offsets[v] .. offsets[v + 1]]` and
/// is sorted ascending. Vertices are `0 .. num_vertices()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<VertexId>,
    num_edges: usize,
}

impl Graph {
    /// Builds a graph from an edge list; convenience wrapper over
    /// [`GraphBuilder`]. The vertex count is inferred as `max id + 1`.
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices `N = |V(G)|` (isolated vertices included).
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `M = |E(G)|`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// The sorted adjacency set `Γ_G(v)` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The degree `d_G(v)`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Edge membership test (binary search in the smaller endpoint's set).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over undirected edges with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Clones `Γ_G(v)` into an owned [`AdjSet`] (the KV-store value).
    pub fn adj_set(&self, v: VertexId) -> AdjSet {
        AdjSet::from_sorted(self.neighbors(v).to_vec())
    }

    /// Total size of all adjacency sets in bytes — the "size of the data
    /// graph" used for relative cache-capacity accounting in Exp-3.
    pub fn adjacency_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<VertexId>()
    }
}

/// Incremental builder that normalises input into a simple graph.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    num_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the graph has at least `n` vertices even if some are
    /// isolated.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        self.num_vertices = self.num_vertices.max(n);
        self
    }

    /// Adds an undirected edge. Self-loops are ignored; duplicates are
    /// removed at build time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        if u == v {
            return self;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        self.num_vertices = self.num_vertices.max(e.1 as usize + 1);
        self.edges.push(e);
        self
    }

    /// Finalises into a CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_vertices;
        let mut degrees = vec![0usize; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as VertexId; acc];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edges were processed in sorted order, so each vertex's neighbour
        // run is already sorted for the second endpoints but the first
        // endpoints interleave; sort each run to restore the invariant.
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            offsets,
            adj,
            num_edges: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = Graph::from_edges([(0, 1), (1, 0), (1, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn reserve_vertices_keeps_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).reserve_vertices(5);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn adjacency_bytes_counts_both_directions() {
        let g = Graph::from_edges([(0, 1)]);
        assert_eq!(g.adjacency_bytes(), 8); // two directed entries × 4 bytes
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
