//! Differential oracle for the pattern layer's one map search.
//!
//! The crate asks `automorphism::extends_to_isomorphism` for orbits,
//! symmetry breaking, `|Aut(P)|`, canonical-form root pruning and
//! isomorphism, and never enumerates `Aut(P)`. This suite keeps the
//! algorithm it replaced — enumerate the whole group, union-find its
//! orbits, shrink it to stabilisers with `retain` — and checks every
//! answer against it, on the catalogue, stars, cliques 3–9, 24 seeded
//! random connected 7- and 8-vertex patterns and two labeled patterns.

use benu_graph::gen::random_connected;
use benu_pattern::automorphism::{automorphism_count, orbits};
use benu_pattern::{queries, Pattern, PatternVertex, SymmetryBreaking};

/// Deterministic xorshift64* — no RNG dependency needed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn permutation(&mut self, n: usize) -> Vec<PatternVertex> {
        let mut perm: Vec<PatternVertex> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.below(i + 1));
        }
        perm
    }
}

fn suite() -> Vec<(String, Pattern)> {
    let mut out: Vec<(String, Pattern)> = queries::catalogue()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    out.extend((1..=6).map(|k| (format!("star{k}"), queries::star(k))));
    out.extend((3..=9).map(|k| (format!("clique{k}"), queries::clique(k))));
    let mut rng = XorShift(0x5EE9_0001);
    for n in [7usize, 8] {
        for i in 0..12 {
            let extra = 1 + rng.below(n);
            let shape = random_connected(n, extra, rng.next());
            let edges: Vec<_> = shape
                .edges()
                .map(|(u, v)| (u as usize, v as usize))
                .collect();
            out.push((format!("rand{n}_{i}"), Pattern::from_edges(n, &edges)));
        }
    }
    out.push((
        "demo_labeled".to_string(),
        queries::demo_pattern().with_labels(vec![0, 1, 1, 0, 1, 1]),
    ));
    out.push((
        "triangle_labeled".to_string(),
        queries::triangle().with_labels(vec![1, 1, 2]),
    ));
    out
}

// ---- The group-based algorithm the crate no longer runs ----

/// Up to `limit` isomorphisms `p → q` as image vectors, in lexicographic
/// order (for `p = q` the identity comes first).
fn isomorphisms(p: &Pattern, q: &Pattern, limit: usize) -> Vec<Vec<PatternVertex>> {
    fn search(
        p: &Pattern,
        q: &Pattern,
        limit: usize,
        perm: &mut Vec<PatternVertex>,
        out: &mut Vec<Vec<PatternVertex>>,
    ) {
        let u = perm.len();
        if u == p.num_vertices() {
            out.push(perm.clone());
            return;
        }
        let used: u64 = perm.iter().fold(0, |acc, &v| acc | (1 << v));
        for cand in q.vertices() {
            if out.len() == limit
                || used & (1 << cand) != 0
                || q.degree(cand) != p.degree(u)
                || q.label(cand) != p.label(u)
            {
                continue;
            }
            if (0..u).all(|w| p.has_edge(u, w) == q.has_edge(cand, perm[w])) {
                perm.push(cand);
                search(p, q, limit, perm, out);
                perm.pop();
            }
        }
    }
    let mut out = Vec::new();
    if p.num_vertices() == q.num_vertices() {
        search(p, q, limit, &mut Vec::new(), &mut out);
    }
    out
}

/// Orbit partition under a set of permutations by union-find: `orbit[u]`
/// is the smallest vertex of `u`'s orbit.
fn group_orbits(n: usize, perms: &[Vec<PatternVertex>]) -> Vec<PatternVertex> {
    fn find(parent: &mut [usize], x: usize) -> usize {
        if parent[x] != x {
            parent[x] = find(parent, parent[x]);
        }
        parent[x]
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for perm in perms {
        for (u, &image) in perm.iter().enumerate() {
            let (a, b) = (find(&mut parent, u), find(&mut parent, image));
            parent[a.max(b)] = a.min(b);
        }
    }
    (0..n).map(|u| find(&mut parent, u)).collect()
}

/// The canonical form by its definition: the first placement, in
/// lexicographic order, whose row-by-row code `(adjacency to earlier
/// positions, label)` is smallest. Branch and bound cuts only prefixes
/// strictly worse than the best complete code.
fn canonical_placement(p: &Pattern) -> Vec<PatternVertex> {
    type Best = Option<(Vec<(u64, u32)>, Vec<PatternVertex>)>;
    fn go(
        p: &Pattern,
        placed: &mut Vec<PatternVertex>,
        key: &mut Vec<(u64, u32)>,
        best: &mut Best,
    ) {
        if let Some((best_key, _)) = best {
            if key[..] > best_key[..key.len()] {
                return;
            }
        }
        if placed.len() == p.num_vertices() {
            let better = match best {
                Some((best_key, _)) => key < best_key,
                None => true,
            };
            if better {
                *best = Some((key.clone(), placed.clone()));
            }
            return;
        }
        for v in p.vertices() {
            if placed.contains(&v) {
                continue;
            }
            let adjacency = (placed.iter().enumerate())
                .filter(|&(_, &w)| p.has_edge(v, w))
                .fold(0u64, |acc, (j, _)| acc | (1 << j));
            key.push((adjacency, p.label(v).unwrap_or(0)));
            placed.push(v);
            go(p, placed, key, best);
            placed.pop();
            key.pop();
        }
    }
    let mut best = None;
    go(p, &mut Vec::new(), &mut Vec::new(), &mut best);
    best.expect("patterns are non-empty").1
}

/// `placement` maps canonical position → input vertex; relabeling the
/// input by its inverse yields the canonical pattern.
fn inverse(perm: &[PatternVertex]) -> Vec<PatternVertex> {
    let mut inv = vec![0; perm.len()];
    for (i, &v) in perm.iter().enumerate() {
        inv[v] = i;
    }
    inv
}

// ---- The checks ----

#[test]
fn the_stabiliser_chain_matches_the_enumerated_group() {
    for (name, p) in suite() {
        let n = p.num_vertices();
        let mut group = isomorphisms(&p, &p, usize::MAX);
        assert_eq!(automorphism_count(&p), group.len(), "{name}: |Aut|");
        let full = group.clone();
        // The parent's SymmetryBreaking::compute, checking each level's
        // orbits on the way down.
        let (mut anchors, mut constraints) = (Vec::new(), Vec::new());
        loop {
            let orbit = group_orbits(n, &group);
            assert_eq!(
                orbits(&p, &anchors),
                orbit,
                "{name}: orbits fixing {anchors:?}"
            );
            let moved = |u: PatternVertex| (0..n).any(|w| w != u && orbit[w] == orbit[u]);
            let anchor = (0..n)
                .filter(|&u| moved(u))
                .max_by(|&a, &b| p.degree(a).cmp(&p.degree(b)).then_with(|| b.cmp(&a)));
            let Some(anchor) = anchor else { break };
            for w in (0..n).filter(|&w| w != anchor && orbit[w] == orbit[anchor]) {
                constraints.push((anchor, w));
            }
            group.retain(|perm| perm[anchor] == anchor);
            anchors.push(anchor);
        }
        constraints.sort_unstable();
        let sb = SymmetryBreaking::compute(&p);
        assert_eq!(sb.constraints(), &constraints[..], "{name}: constraints");
        // Grochow–Kellis with G = P: exactly one automorphism respects
        // the order under the identity total order.
        let surviving = full
            .iter()
            .filter(|perm| sb.constraints().iter().all(|&(a, b)| perm[a] < perm[b]))
            .count();
        assert_eq!(surviving, 1, "{name}: one automorphism survives");
    }
}

#[test]
fn canonical_forms_match_the_definition() {
    for (name, p) in suite() {
        let canon = p.canonical_form();
        let placement = canonical_placement(&p);
        assert_eq!(canon.placement, placement, "{name}: placement");
        let expected = p.relabeled(&inverse(&placement));
        assert_eq!(canon.pattern, expected, "{name}: canonical pattern");
    }
}

#[test]
fn is_isomorphic_matches_the_enumerator() {
    let patterns = suite();
    for (a_name, a) in &patterns {
        for (b_name, b) in &patterns {
            let expected = !isomorphisms(a, b, 1).is_empty();
            assert_eq!(a.is_isomorphic(b), expected, "{a_name} vs {b_name}");
        }
    }
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for (name, p) in &patterns {
        for round in 0..20 {
            let image = p.relabeled(&rng.permutation(p.num_vertices()));
            assert!(
                !isomorphisms(p, &image, 1).is_empty(),
                "{name} round {round}"
            );
            assert!(p.is_isomorphic(&image), "{name} round {round}: p → image");
            assert!(image.is_isomorphic(p), "{name} round {round}: image → p");
        }
    }
}
