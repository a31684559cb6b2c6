//! A BFS-style join-based enumerator (the TwinTwig/SEED/CBF family).
//!
//! The pattern is decomposed into *star join units* (a centre plus its
//! still-uncovered incident edges, largest star first). Unit match
//! relations are materialised directly from adjacency lists and assembled
//! left-deep with hash joins. Every join round "shuffles" both input
//! relations — the partial matching results whose volume the BENU paper
//! identifies as the Achilles' heel of this family (Table V's CBF
//! communication column, 10–100× the data graph).
//!
//! Symmetry breaking is applied as in BENU: constraints inside a star are
//! checked during unit enumeration, cross-unit constraints (order and
//! injectivity) during the joins, so the final count equals BENU's.

use crate::BaselineOutcome;
use benu_graph::{Graph, TotalOrder, VertexId};
use benu_pattern::{Pattern, SymmetryBreaking};
use std::collections::HashMap;
use std::time::Instant;

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StarJoinConfig {
    /// Abort (reporting `completed = false`) when materialised relations
    /// exceed this many bytes — the paper's CRASH cells.
    pub memory_cap_bytes: u64,
}

impl Default for StarJoinConfig {
    fn default() -> Self {
        StarJoinConfig {
            memory_cap_bytes: 2 << 30,
        }
    }
}

/// A star join unit: `center` plus the leaves its uncovered edges reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Star {
    /// The star's centre pattern vertex.
    pub center: usize,
    /// Leaf pattern vertices (each edge `center–leaf` belongs to this
    /// unit).
    pub leaves: Vec<usize>,
}

/// Decomposes `pattern` into star units covering every edge exactly once:
/// repeatedly take the vertex with the most uncovered incident edges.
pub fn decompose(pattern: &Pattern) -> Vec<Star> {
    let n = pattern.num_vertices();
    let mut covered = vec![vec![false; n]; n];
    let mut stars = Vec::new();
    loop {
        let center = (0..n)
            .max_by_key(|&u| {
                let uncovered = pattern.neighbors(u).filter(|&v| !covered[u][v]).count();
                (uncovered, std::cmp::Reverse(u))
            })
            .unwrap();
        let leaves: Vec<usize> = pattern
            .neighbors(center)
            .filter(|&v| !covered[center][v])
            .collect();
        if leaves.is_empty() {
            break;
        }
        for &l in &leaves {
            covered[center][l] = true;
            covered[l][center] = true;
        }
        stars.push(Star { center, leaves });
    }
    stars
}

/// A materialised match relation over a set of pattern vertices.
struct Relation {
    /// Bound pattern vertices, in tuple-column order.
    vars: Vec<usize>,
    /// Flat tuples, stride `vars.len()`.
    tuples: Vec<VertexId>,
}

impl Relation {
    fn stride(&self) -> usize {
        self.vars.len()
    }

    fn len(&self) -> usize {
        if self.vars.is_empty() {
            0
        } else {
            self.tuples.len() / self.vars.len()
        }
    }

    fn bytes(&self) -> u64 {
        (self.tuples.len() * 4) as u64
    }
}

/// Runs the join-based baseline.
pub fn run(g: &Graph, pattern: &Pattern, config: &StarJoinConfig) -> BaselineOutcome {
    let started = Instant::now();
    let symmetry = SymmetryBreaking::compute(pattern);
    let total_order = TotalOrder::new(g);
    let mut outcome = BaselineOutcome {
        completed: true,
        ..Default::default()
    };

    let stars = decompose(pattern);
    debug_assert!(!stars.is_empty());

    // Join order: keep picking a star sharing a variable with the
    // accumulated relation (exists because the pattern is connected).
    let mut remaining = stars;
    let mut acc = match enumerate_star(
        g,
        &remaining.remove(0),
        &symmetry,
        &total_order,
        config,
        &mut outcome,
    ) {
        Some(rel) => rel,
        None => return abort(outcome, started),
    };
    outcome.shuffled_bytes += acc.bytes(); // the first unit is shuffled too
    outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(acc.bytes());

    while !remaining.is_empty() {
        let idx = remaining
            .iter()
            .position(|s| {
                acc.vars.contains(&s.center) || s.leaves.iter().any(|l| acc.vars.contains(l))
            })
            .expect("connected pattern always has a joinable star");
        let star = remaining.remove(idx);
        let Some(unit) = enumerate_star(g, &star, &symmetry, &total_order, config, &mut outcome)
        else {
            return abort(outcome, started);
        };
        outcome.rounds += 1;
        // Both join inputs are shuffled by key in a MapReduce round.
        outcome.shuffled_bytes += acc.bytes() + unit.bytes();
        let Some(joined) = hash_join(&acc, &unit, &symmetry, &total_order, config, &mut outcome)
        else {
            return abort(outcome, started);
        };
        acc = joined;
        if acc.len() == 0 {
            break;
        }
    }

    outcome.matches = acc.len() as u64;
    outcome.elapsed = started.elapsed();
    outcome
}

fn abort(mut outcome: BaselineOutcome, started: Instant) -> BaselineOutcome {
    outcome.completed = false;
    outcome.elapsed = started.elapsed();
    outcome
}

/// Checks the symmetry constraint between pattern vertices `a` (mapped to
/// `va`) and `b` (mapped to `vb`), plus injectivity.
fn pair_ok(
    symmetry: &SymmetryBreaking,
    order: &TotalOrder,
    a: usize,
    va: VertexId,
    b: usize,
    vb: VertexId,
) -> bool {
    if va == vb {
        return false;
    }
    match symmetry.between(a, b) {
        Some(true) => order.less(va, vb),
        Some(false) => order.less(vb, va),
        None => true,
    }
}

/// Materialises a star unit's match relation. Returns `None` on memory
/// overrun.
fn enumerate_star(
    g: &Graph,
    star: &Star,
    symmetry: &SymmetryBreaking,
    order: &TotalOrder,
    config: &StarJoinConfig,
    outcome: &mut BaselineOutcome,
) -> Option<Relation> {
    let mut vars = vec![star.center];
    vars.extend_from_slice(&star.leaves);
    let mut rel = Relation {
        vars,
        tuples: Vec::new(),
    };
    let k = star.leaves.len();
    let mut assignment: Vec<VertexId> = Vec::with_capacity(k);
    // The cap must be enforced *inside* the per-centre recursion: a
    // single hub can emit billions of tuples before returning.
    let cap_entries = (config.memory_cap_bytes / 4) as usize;
    for center in g.vertices() {
        if g.degree(center) < k {
            continue;
        }
        let ok = assign_leaves(
            g,
            star,
            symmetry,
            order,
            center,
            &mut assignment,
            &mut rel.tuples,
            cap_entries,
        );
        if !ok {
            outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(rel.bytes());
            return None;
        }
    }
    outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(rel.bytes());
    Some(rel)
}

/// Returns false when the entry cap was hit (memory overrun).
#[allow(clippy::too_many_arguments)]
fn assign_leaves(
    g: &Graph,
    star: &Star,
    symmetry: &SymmetryBreaking,
    order: &TotalOrder,
    center: VertexId,
    assignment: &mut Vec<VertexId>,
    out: &mut Vec<VertexId>,
    cap_entries: usize,
) -> bool {
    let depth = assignment.len();
    if depth == star.leaves.len() {
        if out.len() + depth + 1 > cap_entries {
            return false;
        }
        out.push(center);
        out.extend_from_slice(assignment);
        return true;
    }
    let leaf = star.leaves[depth];
    'cand: for &w in g.neighbors(center) {
        if !pair_ok(symmetry, order, star.center, center, leaf, w) {
            continue;
        }
        for (d, &prev) in assignment.iter().enumerate() {
            if !pair_ok(symmetry, order, star.leaves[d], prev, leaf, w) {
                continue 'cand;
            }
        }
        assignment.push(w);
        let ok = assign_leaves(
            g,
            star,
            symmetry,
            order,
            center,
            assignment,
            out,
            cap_entries,
        );
        assignment.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Approximate per-entry overhead of the probe hash table (key vector,
/// map slot, index list) charged against the memory cap in addition to
/// raw tuple bytes — without this, small-stride relations OOM the host
/// long before their tuple bytes reach the cap.
const HASH_ENTRY_OVERHEAD: u64 = 96;

/// Left-deep hash join with cross-unit injectivity and symmetry filters.
fn hash_join(
    left: &Relation,
    right: &Relation,
    symmetry: &SymmetryBreaking,
    order: &TotalOrder,
    config: &StarJoinConfig,
    outcome: &mut BaselineOutcome,
) -> Option<Relation> {
    // Key = shared pattern vertices; output = left vars ++ right-only vars.
    let key_vars: Vec<usize> = left
        .vars
        .iter()
        .copied()
        .filter(|v| right.vars.contains(v))
        .collect();
    let right_only: Vec<usize> = right
        .vars
        .iter()
        .copied()
        .filter(|v| !left.vars.contains(v))
        .collect();
    let left_key_pos: Vec<usize> = key_vars
        .iter()
        .map(|v| left.vars.iter().position(|x| x == v).unwrap())
        .collect();
    let right_key_pos: Vec<usize> = key_vars
        .iter()
        .map(|v| right.vars.iter().position(|x| x == v).unwrap())
        .collect();
    let right_only_pos: Vec<usize> = right_only
        .iter()
        .map(|v| right.vars.iter().position(|x| x == v).unwrap())
        .collect();

    // Build on the right relation; charge the table overhead first.
    let build_cost = right.bytes() + (right.len() as u64) * HASH_ENTRY_OVERHEAD;
    outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(build_cost);
    if build_cost > config.memory_cap_bytes {
        return None;
    }
    let mut table: HashMap<Vec<VertexId>, Vec<usize>> = HashMap::new();
    for (i, tuple) in right.tuples.chunks(right.stride()).enumerate() {
        let key: Vec<VertexId> = right_key_pos.iter().map(|&p| tuple[p]).collect();
        table.entry(key).or_default().push(i);
    }

    let mut vars = left.vars.clone();
    vars.extend_from_slice(&right_only);
    let mut out = Relation {
        vars,
        tuples: Vec::new(),
    };
    let mut key = Vec::with_capacity(key_vars.len());
    for ltuple in left.tuples.chunks(left.stride()) {
        key.clear();
        key.extend(left_key_pos.iter().map(|&p| ltuple[p]));
        let Some(matches) = table.get(&key) else {
            continue;
        };
        'probe: for &ri in matches {
            let rtuple = &right.tuples[ri * right.stride()..(ri + 1) * right.stride()];
            // Cross filters between left-only and right-only vertices.
            for (lp, &lv) in left.vars.iter().enumerate() {
                if key_vars.contains(&lv) {
                    continue;
                }
                for (ro_idx, &rv) in right_only.iter().enumerate() {
                    let rw = rtuple[right_only_pos[ro_idx]];
                    if !pair_ok(symmetry, order, lv, ltuple[lp], rv, rw) {
                        continue 'probe;
                    }
                }
            }
            out.tuples.extend_from_slice(ltuple);
            out.tuples.extend(right_only_pos.iter().map(|&p| rtuple[p]));
            if out.bytes() > config.memory_cap_bytes {
                outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(out.bytes());
                return None;
            }
        }
    }
    outcome.peak_memory_bytes = outcome.peak_memory_bytes.max(out.bytes());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::reference;
    use benu_graph::gen;
    use benu_pattern::queries;

    #[test]
    fn decomposition_covers_every_edge_once() {
        for (name, p) in queries::catalogue() {
            let stars = decompose(&p);
            let mut covered = std::collections::HashSet::new();
            for s in &stars {
                for &l in &s.leaves {
                    let e = (s.center.min(l), s.center.max(l));
                    assert!(covered.insert(e), "{name}: edge {e:?} covered twice");
                }
            }
            assert_eq!(covered.len(), p.num_edges(), "{name}: all edges covered");
        }
    }

    #[test]
    fn first_star_is_the_largest() {
        let stars = decompose(&queries::q3());
        assert_eq!(stars[0].center, 4); // the gem's apex
        assert_eq!(stars[0].leaves.len(), 4);
    }

    #[test]
    fn counts_match_reference_on_catalogue() {
        let g = gen::erdos_renyi_gnm(35, 140, 23);
        for (name, p) in queries::catalogue() {
            let expected = reference::count_subgraphs(&g, &p);
            let outcome = run(&g, &p, &StarJoinConfig::default());
            assert!(outcome.completed, "{name}");
            assert_eq!(outcome.matches, expected, "{name}: join vs brute force");
        }
    }

    #[test]
    fn memory_cap_aborts_like_the_papers_crash_cells() {
        let g = gen::complete(50);
        let outcome = run(
            &g,
            &queries::q8(),
            &StarJoinConfig {
                memory_cap_bytes: 50_000,
            },
        );
        assert!(!outcome.completed);
    }

    #[test]
    fn join_shuffles_intermediate_results() {
        let g = gen::barabasi_albert(200, 5, 7);
        let outcome = run(&g, &queries::q1(), &StarJoinConfig::default());
        assert!(outcome.completed);
        // The shuffle volume exceeds the data graph — the paper's core
        // observation about join-based methods.
        assert!(
            outcome.shuffled_bytes > g.adjacency_bytes() as u64,
            "shuffled {} vs graph {}",
            outcome.shuffled_bytes,
            g.adjacency_bytes()
        );
        assert!(outcome.rounds >= 1);
    }

    #[test]
    fn triangle_free_graph_yields_zero() {
        let g = gen::grid(6, 6);
        let outcome = run(&g, &queries::triangle(), &StarJoinConfig::default());
        assert!(outcome.completed);
        assert_eq!(outcome.matches, 0);
    }
}
