//! The one search over vertex maps in the pattern layer.
//!
//! `extends_to_isomorphism` answers "does the partial map `fixed`
//! extend to an isomorphism `p → q`?" by backtracking with degree, label
//! and adjacency pruning, stopping at the first full map. Everything the
//! planner needs from `Aut(P)` is asked of it, never enumerated:
//! [`Pattern::is_isomorphic`] is the search with nothing fixed, [`orbits`]
//! asks it one `u ↦ v` at a time under a pointwise stabiliser,
//! [`crate::symmetry`] walks the stabiliser chain with `orbits`,
//! [`crate::canonical`] prunes its root level with `orbits(p, &[])`, and
//! [`automorphism_count`] multiplies the chain's orbit sizes. No group is
//! ever materialised — `K_9`'s 362 880 automorphisms included.

use crate::pattern::{Pattern, PatternVertex};
use crate::symmetry::SymmetryBreaking;

/// True if the partial map `fixed` (pairs `u ↦ v` over distinct `u`)
/// extends to an isomorphism `p → q`: a bijection of the vertices that
/// keeps degrees, labels and adjacency. Fixed vertices are placed first,
/// each with its one candidate, so their images are taken before any free
/// vertex is placed; the free vertices follow in index order.
pub(crate) fn extends_to_isomorphism(
    p: &Pattern,
    q: &Pattern,
    fixed: &[(PatternVertex, PatternVertex)],
) -> bool {
    if p.num_vertices() != q.num_vertices() {
        return false;
    }
    let pinned = fixed.iter().fold(0u64, |acc, &(u, _)| acc | (1 << u));
    let mut order: Vec<PatternVertex> = fixed.iter().map(|&(u, _)| u).collect();
    order.extend(p.vertices().filter(|&u| pinned & (1 << u) == 0));
    place(p, q, &order, fixed, &mut Vec::with_capacity(order.len()))
}

/// Places `order[images.len()]`, then recurses; `images[i]` is the image
/// of `order[i]`.
fn place(
    p: &Pattern,
    q: &Pattern,
    order: &[PatternVertex],
    fixed: &[(PatternVertex, PatternVertex)],
    images: &mut Vec<PatternVertex>,
) -> bool {
    let i = images.len();
    let Some(&u) = order.get(i) else { return true };
    let used = images.iter().fold(0u64, |acc, &v| acc | (1 << v));
    for cand in q.vertices() {
        if used & (1 << cand) != 0
            || fixed.get(i).is_some_and(|&(_, v)| v != cand)
            || q.degree(cand) != p.degree(u)
            || q.label(cand) != p.label(u)
        {
            continue;
        }
        let consistent = (order[..i].iter().zip(images.iter()))
            .all(|(&w, &image)| p.has_edge(u, w) == q.has_edge(cand, image));
        if consistent {
            images.push(cand);
            if place(p, q, order, fixed, images) {
                return true;
            }
            images.pop();
        }
    }
    false
}

/// The orbit partition of the pointwise stabiliser of `fixed` in
/// `Aut(p)`: `orbit[u]` is the smallest vertex an automorphism fixing
/// every vertex of `fixed` can map `u` to (fixed vertices are their own
/// orbits).
pub fn orbits(p: &Pattern, fixed: &[PatternVertex]) -> Vec<PatternVertex> {
    let pinned: Vec<_> = fixed.iter().map(|&u| (u, u)).collect();
    let moves = |u, v| {
        !fixed.contains(&u)
            && !fixed.contains(&v)
            && extends_to_isomorphism(p, p, &[&pinned[..], &[(u, v)][..]].concat())
    };
    let mut orbit: Vec<PatternVertex> = p.vertices().collect();
    for v in p.vertices() {
        // The representatives below `v` are the minima of their orbits,
        // so the first one that reaches `v` is the minimum of `v`'s.
        if let Some(u) = (0..v).find(|&u| orbit[u] == u && moves(u, v)) {
            orbit[v] = u;
        }
    }
    orbit
}

/// `|Aut(P)|` by orbit–stabiliser. Along the stabiliser chain
/// [`SymmetryBreaking::compute`] walks, each anchor's orbit is the anchor
/// plus the vertices it is constrained below, and the group's order is the
/// product of those orbit sizes.
pub fn automorphism_count(p: &Pattern) -> usize {
    let sb = SymmetryBreaking::compute(p);
    p.vertices()
        .map(|a| 1 + sb.constraints().iter().filter(|&&(x, _)| x == a).count())
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn triangle_has_six_automorphisms() {
        let p = Pattern::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(automorphism_count(&p), 6);
    }

    #[test]
    fn square_has_eight() {
        let p = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(automorphism_count(&p), 8); // dihedral group D4
    }

    #[test]
    fn path_has_two() {
        let p = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(automorphism_count(&p), 2);
    }

    #[test]
    fn clique_has_factorial() {
        let p = queries::clique(5);
        assert_eq!(automorphism_count(&p), 120);
        assert_eq!(automorphism_count(&queries::clique(9)), 362_880);
    }

    #[test]
    fn asymmetric_graph_is_rigid() {
        // Smallest asymmetric graphs have 6 vertices; this is one of them:
        // a triangle with pendant paths of lengths 1, 2 hanging off two
        // distinct corners.
        let p = Pattern::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (4, 5)]);
        assert_eq!(automorphism_count(&p), 1);
        assert_eq!(orbits(&p, &[]), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn demo_pattern_group_is_the_stated_one() {
        // Fig. 1a pattern: Aut = {id, (u2 u6)(u3 u5)} (1-based), i.e.
        // 0-based fixes 0 and 3 and swaps 1<->5, 2<->4.
        let p = queries::demo_pattern();
        assert_eq!(automorphism_count(&p), 2);
        assert_eq!(orbits(&p, &[]), vec![0, 1, 2, 3, 2, 1]);
        assert!(extends_to_isomorphism(&p, &p, &[(1, 5)]));
        assert!(!extends_to_isomorphism(&p, &p, &[(1, 5), (2, 2)]));
    }

    #[test]
    fn orbits_of_star_and_its_stabiliser() {
        // Star S3: centre 0, leaves 1..3 form one orbit; fixing leaf 1
        // leaves 2 and 3 swappable.
        let p = Pattern::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(orbits(&p, &[]), vec![0, 1, 1, 1]);
        assert_eq!(orbits(&p, &[1]), vec![0, 1, 2, 2]);
        assert_eq!(orbits(&p, &[1, 2]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_fixed_pair_restricts_the_search() {
        let p = queries::path(4);
        assert!(extends_to_isomorphism(&p, &p, &[(0, 3)]));
        assert!(!extends_to_isomorphism(&p, &p, &[(0, 1)]));
        assert!(!extends_to_isomorphism(&p, &p, &[(0, 3), (1, 1)]));
        assert!(!extends_to_isomorphism(&p, &queries::star(3), &[]));
    }
}
