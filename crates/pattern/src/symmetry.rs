//! Symmetry breaking (Grochow–Kellis \[15\]).
//!
//! Enumerating all matches of `P` reports each isomorphic subgraph
//! `|Aut(P)|` times. Symmetry breaking computes a partial order `<` on
//! `V(P)` such that, for any total order `≺` on `V(G)`, every subgraph has
//! *exactly one* match satisfying `u_i < u_j ⇒ f(u_i) ≺ f(u_j)`.
//!
//! The construction walks a stabiliser chain of `Aut(P)`: it picks an
//! anchor vertex lying in a non-trivial orbit, constrains it to be the
//! `≺`-minimum of its orbit, fixes it, and repeats on the stabiliser of
//! the anchors so far until every orbit is trivial. Each level's orbits
//! are asked of [`crate::automorphism::orbits`]; the group itself is never
//! enumerated. Anchors are picked by highest degree first (ties broken by
//! lowest index) — the choice that reproduces the paper's running
//! example, where the Fig. 1a pattern yields the single constraint
//! `u3 < u5`.

use crate::automorphism::orbits;
use crate::pattern::{Pattern, PatternVertex};

/// The symmetry-breaking partial order: a set of `(a, b)` pairs meaning
/// `f(a) ≺ f(b)` must hold in every reported match.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymmetryBreaking {
    constraints: Vec<(PatternVertex, PatternVertex)>,
}

impl SymmetryBreaking {
    /// Computes the partial order for `p`.
    pub fn compute(p: &Pattern) -> Self {
        let mut anchors = Vec::new();
        let mut constraints = Vec::new();
        loop {
            let orbit = orbits(p, &anchors);
            let moved = |u: PatternVertex| p.vertices().any(|w| w != u && orbit[w] == orbit[u]);
            // The anchor: highest degree in a non-trivial orbit, ties by
            // lowest index.
            let anchor = p.vertices().filter(|&u| moved(u)).max_by(|&a, &b| {
                p.degree(a).cmp(&p.degree(b)).then_with(|| b.cmp(&a)) // lower index wins ties
            });
            let Some(anchor) = anchor else { break };
            constraints.extend(
                p.vertices()
                    .filter(|&w| w != anchor && orbit[w] == orbit[anchor])
                    .map(|w| (anchor, w)),
            );
            // Descend into the stabiliser of the anchor.
            anchors.push(anchor);
        }
        constraints.sort_unstable();
        SymmetryBreaking { constraints }
    }

    /// An empty order (used when enumerating raw matches without
    /// deduplication).
    pub fn none() -> Self {
        SymmetryBreaking::default()
    }

    /// The `(a, b)` pairs with `f(a) ≺ f(b)` required, sorted.
    pub fn constraints(&self) -> &[(PatternVertex, PatternVertex)] {
        &self.constraints
    }

    /// The constraint between a pair, if any: `Some(true)` if `a < b`,
    /// `Some(false)` if `b < a`, `None` if unconstrained.
    pub fn between(&self, a: PatternVertex, b: PatternVertex) -> Option<bool> {
        let requires = |pair| self.constraints.binary_search(&pair).is_ok();
        if requires((a, b)) {
            Some(true)
        } else if requires((b, a)) {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn demo_pattern_matches_paper() {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        // Paper: the only constraint is u3 < u5, i.e. 0-based (2, 4).
        assert_eq!(sb.constraints(), &[(2, 4)]);
    }

    #[test]
    fn triangle_is_fully_ordered() {
        let p = queries::clique(3);
        let sb = SymmetryBreaking::compute(&p);
        // K3: first anchor constrains both others, stabilizer still swaps
        // the remaining two, so a second round adds one more constraint.
        assert_eq!(sb.constraints(), &[(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn rigid_graph_needs_no_constraints() {
        let p = Pattern::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (4, 5)]);
        let sb = SymmetryBreaking::compute(&p);
        assert!(sb.constraints().is_empty());
    }

    #[test]
    fn between_reports_direction() {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        assert_eq!(sb.between(2, 4), Some(true));
        assert_eq!(sb.between(4, 2), Some(false));
        assert_eq!(sb.between(0, 3), None);
    }
}
