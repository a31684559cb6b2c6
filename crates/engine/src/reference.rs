//! An independent brute-force enumerator used to verify the plan compiler
//! and the engine.
//!
//! It implements Algorithm 1 directly on the graph — no execution plans,
//! no caches, no intersection kernels — so a disagreement with the engine
//! localises the bug to the plan machinery. Exponential in the pattern
//! size; use on small graphs only.

use benu_graph::{Graph, TotalOrder, VertexId};
use benu_pattern::{Pattern, SymmetryBreaking};

/// Enumerates every match of `pattern` in `g` satisfying the
/// symmetry-breaking constraints, sorted lexicographically. Each match is
/// indexed by pattern vertex.
pub fn enumerate(g: &Graph, pattern: &Pattern, symmetry: &SymmetryBreaking) -> Vec<Vec<VertexId>> {
    enumerate_labeled(g, pattern, symmetry, None)
}

/// Label-aware variant: when `data_labels` is given and the pattern is
/// labeled, a pattern vertex only maps to data vertices with its label.
pub fn enumerate_labeled(
    g: &Graph,
    pattern: &Pattern,
    symmetry: &SymmetryBreaking,
    data_labels: Option<&[u32]>,
) -> Vec<Vec<VertexId>> {
    let order = TotalOrder::new(g);
    let n = pattern.num_vertices();
    let mut f: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut out = Vec::new();
    backtrack(
        g,
        pattern,
        symmetry,
        &order,
        data_labels,
        &mut f,
        0,
        &mut out,
    );
    out.sort_unstable();
    out
}

/// Counts matches without materialising them.
pub fn count(g: &Graph, pattern: &Pattern, symmetry: &SymmetryBreaking) -> u64 {
    enumerate(g, pattern, symmetry).len() as u64
}

/// Counts matches with the symmetry-breaking order computed from the
/// pattern — i.e. the number of subgraphs of `g` isomorphic to `pattern`.
pub fn count_subgraphs(g: &Graph, pattern: &Pattern) -> u64 {
    count(g, pattern, &SymmetryBreaking::compute(pattern))
}

/// Label-aware subgraph count.
pub fn count_subgraphs_labeled(g: &Graph, pattern: &Pattern, data_labels: &[u32]) -> u64 {
    enumerate_labeled(
        g,
        pattern,
        &SymmetryBreaking::compute(pattern),
        Some(data_labels),
    )
    .len() as u64
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    g: &Graph,
    pattern: &Pattern,
    symmetry: &SymmetryBreaking,
    order: &TotalOrder,
    data_labels: Option<&[u32]>,
    f: &mut Vec<VertexId>,
    u: usize,
    out: &mut Vec<Vec<VertexId>>,
) {
    let n = pattern.num_vertices();
    if u == n {
        out.push(f.clone());
        return;
    }
    'cand: for v in g.vertices() {
        // Injectivity.
        if f[..u].contains(&v) {
            continue;
        }
        // Label constraint (property-graph extension).
        if let (Some(need), Some(labels)) = (pattern.label(u), data_labels) {
            if labels[v as usize] != need {
                continue;
            }
        }
        // Match condition against already-mapped neighbours.
        for w in pattern.neighbors(u) {
            if w < u && !g.has_edge(f[w], v) {
                continue 'cand;
            }
        }
        // Symmetry-breaking partial order.
        for (w, &fw) in f.iter().enumerate().take(u) {
            match symmetry.between(w, u) {
                Some(true) if !order.less(fw, v) => continue 'cand,
                Some(false) if !order.less(v, fw) => continue 'cand,
                _ => {}
            }
        }
        f[u] = v;
        backtrack(g, pattern, symmetry, order, data_labels, f, u + 1, out);
        f[u] = VertexId::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;
    use benu_pattern::automorphism::automorphism_count;
    use benu_pattern::queries;

    #[test]
    fn triangle_count_matches_formula() {
        assert_eq!(count_subgraphs(&gen::complete(6), &queries::triangle()), 20);
        // C(6,3)
    }

    #[test]
    fn without_symmetry_each_subgraph_counted_aut_times() {
        let g = gen::erdos_renyi_gnm(20, 60, 4);
        for (name, p) in [
            ("triangle", queries::triangle()),
            ("square", queries::square()),
        ] {
            let with = count(&g, &p, &SymmetryBreaking::compute(&p));
            let without = count(&g, &p, &SymmetryBreaking::none());
            assert_eq!(
                without,
                with * automorphism_count(&p) as u64,
                "{name}: |Aut| duplication factor"
            );
        }
    }

    #[test]
    fn matches_respect_pattern_edges() {
        let g = gen::erdos_renyi_gnm(15, 40, 2);
        let p = queries::q1();
        for m in enumerate(&g, &p, &SymmetryBreaking::compute(&p)) {
            for (a, b) in p.edges() {
                assert!(g.has_edge(m[a], m[b]));
            }
            let mut sorted = m.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), m.len(), "injective");
        }
    }

    #[test]
    fn engine_agrees_with_reference_on_catalogue() {
        let g = gen::erdos_renyi_gnm(30, 100, 77);
        for (name, p) in queries::catalogue() {
            let expected = count_subgraphs(&g, &p);
            let plan = benu_plan::PlanBuilder::new(&p).best_plan();
            let got = crate::count_embeddings(&plan, &g);
            assert_eq!(got, expected, "{name}: engine vs brute force");
        }
    }

    #[test]
    fn engine_agrees_with_reference_on_clustered_graph() {
        // Triangle-rich graph exercises the TRC instructions heavily.
        let g = gen::chung_lu_power_law(benu_graph::gen::PowerLawConfig {
            n: 60,
            m: 240,
            gamma: 2.3,
            clustering: 0.4,
            seed: 5,
        });
        for (name, p) in queries::evaluation_queries() {
            let expected = count_subgraphs(&g, &p);
            let plan = benu_plan::PlanBuilder::new(&p).compressed(true).best_plan();
            let got = crate::count_embeddings(&plan, &g);
            assert_eq!(got, expected, "{name}: compressed engine vs brute force");
        }
    }

    #[test]
    fn engine_matches_reference_match_sets_exactly() {
        let g = gen::erdos_renyi_gnm(25, 80, 11);
        for (name, p) in [("q1", queries::q1()), ("demo", queries::demo_pattern())] {
            let sb = SymmetryBreaking::compute(&p);
            let expected = enumerate(&g, &p, &sb);
            let plan = benu_plan::PlanBuilder::new(&p).best_plan();
            let got = crate::collect_embeddings(&plan, &g);
            assert_eq!(got.to_vecs(), expected, "{name}: full match sets");
        }
    }
}
