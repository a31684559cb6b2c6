//! Closed-form subgraph counts, independent of every layer under test.
//!
//! Every pattern the benchmark runs against a data graph has a count
//! that follows from local quantities of the graph, so the benchmark can
//! check the program's answer at any seed without running a second
//! enumerator built from the same engine. Only `Graph::{num_vertices, vertices,
//! neighbors}` is used. Counts are of distinct (non-induced) subgraph
//! occurrences — what a symmetry-broken plan reports.

use benu_graph::{Graph, VertexId};

/// Calls `common` with every id present in both ascending slices.
fn for_each_common(a: &[VertexId], b: &[VertexId], mut common: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn common_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut n = 0;
    for_each_common(a, b, |_| n += 1);
    n
}

/// Triangles through each edge `(u, v)`, `u < v`.
fn edge_triangles(g: &Graph) -> impl Iterator<Item = u64> + '_ {
    g.vertices().flat_map(move |u| {
        g.neighbors(u)
            .iter()
            .filter(move |&&v| u < v)
            .map(move |&v| common_count(g.neighbors(u), g.neighbors(v)))
    })
}

/// Every triangle is seen from its three edges.
pub fn triangles(g: &Graph) -> u64 {
    edge_triangles(g).sum::<u64>() / 3
}

/// A chordal square is two triangles sharing their chord.
pub fn chordal_squares(g: &Graph) -> u64 {
    edge_triangles(g).map(|t| t * t.saturating_sub(1) / 2).sum()
}

/// Paths on three vertices: two neighbours of a middle vertex.
pub fn wedges(g: &Graph) -> u64 {
    g.vertices()
        .map(|v| {
            let d = g.neighbors(v).len() as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// 4-cycles: two vertices and two of their common neighbours, each
/// cycle seen from both of its diagonals.
pub fn four_cycles(g: &Graph) -> u64 {
    let n = g.num_vertices();
    let mut common = vec![0u64; n];
    let mut twice = 0;
    for u in g.vertices() {
        common.fill(0);
        for &k in g.neighbors(u) {
            for &v in g.neighbors(k).iter().filter(|&&v| v > u) {
                common[v as usize] += 1;
            }
        }
        twice += common
            .iter()
            .map(|&c| c * c.saturating_sub(1) / 2)
            .sum::<u64>();
    }
    twice / 2
}

/// 5-cycles by the Harary–Manvel trace formula,
/// `(tr A⁵ − 5 Σᵢ (dᵢ − 1)(A³)ᵢᵢ) / 10`, over dense `n × n` walk-count
/// matrices — the workload's graph has a few hundred vertices.
pub fn five_cycles(g: &Graph) -> u64 {
    let n = g.num_vertices();
    let mut a2 = vec![0u64; n * n];
    for i in g.vertices() {
        for &k in g.neighbors(i) {
            for &j in g.neighbors(k) {
                a2[i as usize * n + j as usize] += 1;
            }
        }
    }
    let mut a3 = vec![0u64; n * n];
    for i in g.vertices() {
        let (row, i) = (i as usize * n, i as usize);
        for &k in g.neighbors(i as VertexId) {
            let krow = k as usize * n;
            for j in 0..n {
                a3[row + j] += a2[krow + j];
            }
        }
    }
    // A is symmetric, so (A³)ⱼᵢ = (A³)ᵢⱼ and tr A⁵ = Σᵢⱼ (A²)ᵢⱼ (A³)ᵢⱼ.
    let trace5: u128 = a2
        .iter()
        .zip(&a3)
        .map(|(&x, &y)| x as u128 * y as u128)
        .sum();
    let closed3: u128 = g
        .vertices()
        .map(|i| {
            let d = g.neighbors(i).len() as u128;
            d.saturating_sub(1) * a3[i as usize * n + i as usize] as u128
        })
        .sum();
    ((trace5 - 5 * closed3) / 10) as u64
}

/// `k`-cliques by recursive intersection over the id-oriented graph
/// (each clique is found once, from its smallest vertex upwards).
pub fn cliques(g: &Graph, k: usize) -> u64 {
    assert!(k >= 2, "a clique needs two vertices");
    fn higher(g: &Graph, v: VertexId) -> &[VertexId] {
        let adj = g.neighbors(v);
        &adj[adj.partition_point(|&w| w <= v)..]
    }
    fn extend(
        g: &Graph,
        cand: &[VertexId],
        remaining: usize,
        bufs: &mut Vec<Vec<VertexId>>,
    ) -> u64 {
        if remaining == 1 {
            return cand.len() as u64;
        }
        let mut next = bufs.pop().unwrap_or_default();
        let mut total = 0;
        for &u in cand {
            next.clear();
            for_each_common(cand, higher(g, u), |w| next.push(w));
            if next.len() + 1 >= remaining {
                total += extend(g, &next, remaining - 1, bufs);
            }
        }
        bufs.push(next);
        total
    }
    let mut bufs = Vec::new();
    g.vertices()
        .map(|v| extend(g, higher(g, v), k - 1, &mut bufs))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::count_embeddings;
    use benu_graph::gen;
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    #[test]
    fn closed_forms_agree_with_the_engine() {
        for seed in 0..4 {
            let g = gen::erdos_renyi_gnm(60, 420, seed);
            let engine = |p| count_embeddings(&PlanBuilder::new(&p).best_plan(), &g);
            assert_eq!(triangles(&g), engine(queries::triangle()));
            assert_eq!(chordal_squares(&g), engine(queries::chordal_square()));
            assert_eq!(wedges(&g), engine(queries::path(3)));
            assert_eq!(four_cycles(&g), engine(queries::square()));
            assert_eq!(five_cycles(&g), engine(queries::q5()));
            assert_eq!(cliques(&g, 4), engine(queries::clique(4)));
            assert_eq!(cliques(&g, 5), engine(queries::clique(5)));
        }
    }

    #[test]
    fn known_small_graphs() {
        let k6 = gen::complete(6);
        assert_eq!(triangles(&k6), 20);
        assert_eq!(cliques(&k6, 5), 6);
        assert_eq!(chordal_squares(&gen::complete(4)), 6);
        assert_eq!(wedges(&gen::complete(4)), 12);
        assert_eq!(four_cycles(&gen::complete(4)), 3);
        assert_eq!(five_cycles(&gen::cycle(5)), 1);
        assert_eq!(five_cycles(&gen::complete(5)), 12);
    }
}
