//! Automorphism-canonical pattern forms.
//!
//! Two submissions of the *same* pattern under different vertex
//! numberings (a relabeling, or an automorphic image) must compile to
//! the same execution plan — the serving layer's plan cache keys on
//! that. This module computes a canonical representative of a pattern's
//! isomorphism class: the vertex ordering whose incremental adjacency
//! code is lexicographically smallest, found by a pruned backtracking
//! search: only locally minimal codes are extended, and the root level
//! opens one vertex per orbit of `Aut(P)`, asked of
//! [`crate::automorphism::orbits`].
//!
//! Patterns are tiny (`n ≤ 10` in the paper), so the exact search is
//! cheap except where orderings tie: below its one root, `K_n` visits
//! all `(n − 1)!` orderings.
//!
//! The canonical *hash* is an FNV-1a digest of the canonical form. The
//! plan cache still verifies the canonical [`Pattern`] on a hash hit,
//! so a (astronomically unlikely) collision can never serve a wrong
//! plan.

use crate::automorphism;
use crate::pattern::{Pattern, PatternVertex};

/// A pattern reduced to its isomorphism-class representative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The canonical representative (isomorphic to the input).
    pub pattern: Pattern,
    /// `placement[i]` is the input vertex placed at canonical position
    /// `i` — an isomorphism from the canonical form onto the input, so
    /// an embedding `f` of the canonical form maps back to the input's
    /// numbering as `f_input[placement[i]] = f[i]`.
    pub placement: Vec<PatternVertex>,
}

/// One step of the incremental ordering code: the candidate's adjacency
/// to the already-placed prefix (bit `j` ⇔ edge to position `j`), then
/// its label. Minimising `(code, label)` per level minimises the whole
/// adjacency matrix read row by row.
type Code = (u64, u32);

struct Search<'a> {
    p: &'a Pattern,
    placed: Vec<PatternVertex>,
    key: Vec<Code>,
    best_key: Vec<Code>,
    best_placed: Vec<PatternVertex>,
}

impl Search<'_> {
    fn label(&self, v: PatternVertex) -> u32 {
        self.p.label(v).unwrap_or(0)
    }

    /// The candidate's code against the current prefix.
    fn code_of(&self, v: PatternVertex) -> Code {
        let mut code = 0u64;
        for (j, &w) in self.placed.iter().enumerate() {
            if self.p.has_edge(v, w) {
                code |= 1 << j;
            }
        }
        (code, self.label(v))
    }

    /// `tight` is true while the current prefix key equals the best
    /// complete key's prefix — only then can the best key prune, and a
    /// tie at this level keeps the child tight.
    fn descend(&mut self, used: u64, tight: bool) {
        let level = self.placed.len();
        if level == self.p.num_vertices() {
            if self.best_placed.is_empty() || self.key < self.best_key {
                self.best_key = self.key.clone();
                self.best_placed = self.placed.clone();
            }
            return;
        }
        // Only candidates achieving the level's minimal code can open a
        // lexicographically minimal completion; ties all branch.
        let mut min: Option<Code> = None;
        for v in self.p.vertices() {
            if used & (1 << v) != 0 {
                continue;
            }
            let code = self.code_of(v);
            // `Option::is_none_or` needs rust 1.82; the MSRV is 1.75.
            #[allow(clippy::unnecessary_map_or)]
            if min.map_or(true, |m| code < m) {
                min = Some(code);
            }
        }
        let min = min.expect("a free vertex exists below n");
        let tight = tight && !self.best_placed.is_empty();
        if tight && min > self.best_key[level] {
            return;
        }
        let child_tight = tight && min == self.best_key[level];
        for v in self.p.vertices() {
            if used & (1 << v) != 0 || self.code_of(v) != min {
                continue;
            }
            self.placed.push(v);
            self.key.push(min);
            self.descend(used | (1 << v), child_tight);
            self.key.pop();
            self.placed.pop();
        }
    }
}

/// Computes the canonical form of `p`: the isomorphism-class
/// representative plus the placement mapping canonical positions back
/// to input vertices. Isomorphic inputs (any relabeling, any
/// automorphic image) produce byte-identical canonical patterns.
pub fn canonical_form(p: &Pattern) -> CanonicalForm {
    let mut search = Search {
        p,
        placed: Vec::with_capacity(p.num_vertices()),
        key: Vec::with_capacity(p.num_vertices()),
        best_key: Vec::new(),
        best_placed: Vec::new(),
    };
    // Root-level pruning: vertices in the same orbit of Aut(P) open
    // identical canonical completions, so one representative per orbit
    // suffices at level 0.
    let orbit = automorphism::orbits(p, &[]);
    let mut roots: Vec<PatternVertex> = p.vertices().filter(|&v| orbit[v] == v).collect();
    // Same local-minimality restriction as deeper levels: the root code
    // is `(0, label)`, so only minimal-label orbit representatives open.
    let min_label = roots
        .iter()
        .map(|&v| search.label(v))
        .min()
        .expect("patterns are non-empty");
    roots.retain(|&v| search.label(v) == min_label);
    for v in roots {
        search.placed.push(v);
        search.key.push((0, min_label));
        search.descend(1 << v, true);
        search.key.pop();
        search.placed.pop();
    }
    let placement = search.best_placed;
    let mut edges = Vec::with_capacity(p.num_edges());
    for i in 0..placement.len() {
        for j in (i + 1)..placement.len() {
            if p.has_edge(placement[i], placement[j]) {
                edges.push((i, j));
            }
        }
    }
    let mut pattern = Pattern::from_edges(p.num_vertices(), &edges);
    if p.is_labeled() {
        pattern = pattern.with_labels(
            placement
                .iter()
                .map(|&v| p.label(v).expect("labeled pattern"))
                .collect(),
        );
    }
    CanonicalForm { pattern, placement }
}

/// FNV-1a over a pattern's *exact* bytes (adjacency rows and labels,
/// numbering-sensitive). Only canonical forms should be fingerprinted
/// for cache keying — [`canonical_hash`] composes the two; the plan
/// cache calls this directly on an already-computed canonical form.
pub fn fingerprint(p: &Pattern) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    eat(p.num_vertices() as u8);
    for u in p.vertices() {
        for byte in p.neighbor_mask(u).to_le_bytes() {
            eat(byte);
        }
    }
    eat(u8::from(p.is_labeled()));
    if let Some(labels) = p.labels() {
        for &l in labels {
            for byte in l.to_le_bytes() {
                eat(byte);
            }
        }
    }
    h
}

/// FNV-1a over the canonical form: equal for every member of an
/// isomorphism class, and (collision aside — which the plan cache
/// verifies away) distinct across classes.
pub fn canonical_hash(p: &Pattern) -> u64 {
    fingerprint(&canonical_form(p).pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn canonical_form_is_isomorphic_via_placement() {
        for p in [queries::q5(), queries::clique(4), queries::star(5)] {
            let canon = canonical_form(&p);
            assert!(
                canon.pattern.is_isomorphism_to(&p, &canon.placement),
                "placement must be an isomorphism onto the input"
            );
        }
    }

    #[test]
    fn relabeled_square_matches() {
        let a = queries::square();
        let b = Pattern::from_edges(4, &[(0, 2), (2, 1), (1, 3), (3, 0)]);
        assert_eq!(canonical_form(&a).pattern, canonical_form(&b).pattern);
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn non_isomorphic_pairs_differ() {
        let square = queries::square();
        let chordal = queries::chordal_square();
        assert_ne!(canonical_hash(&square), canonical_hash(&chordal));
        assert_ne!(
            canonical_hash(&queries::path(4)),
            canonical_hash(&queries::star(4))
        );
    }

    #[test]
    fn labels_participate_in_the_form() {
        let plain = queries::triangle();
        let labeled = queries::triangle().with_labels(vec![1, 1, 2]);
        let relabeled = queries::triangle().with_labels(vec![1, 2, 1]);
        assert_ne!(canonical_hash(&plain), canonical_hash(&labeled));
        // The two labeled triangles are isomorphic (swap the vertices).
        assert_eq!(canonical_hash(&labeled), canonical_hash(&relabeled));
        let different = queries::triangle().with_labels(vec![2, 2, 1]);
        assert_ne!(canonical_hash(&labeled), canonical_hash(&different));
    }

    #[test]
    fn clique_canonicalises_fast() {
        // Worst case for the search (every ordering ties); must still be
        // instant at catalogue sizes.
        let canon = canonical_form(&queries::clique(7));
        assert_eq!(canon.pattern.num_edges(), 21);
    }
}
