//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on five SNAP/LAW graphs that cannot be redistributed
//! here, so the benchmark harness builds seeded synthetic stand-ins from
//! these generators (see `datasets`). All generators take an explicit seed
//! and are reproducible across runs and platforms.

use crate::{Graph, GraphBuilder, VertexId};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges sampled uniformly.
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges `n(n-1)/2`.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_edges, "G(n,m): m={m} exceeds max {max_edges}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let dist = Uniform::new(0, n as VertexId);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    while chosen.len() < m {
        let u = dist.sample(&mut rng);
        let v = dist.sample(&mut rng);
        if u == v {
            continue;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(e) {
            b.add_edge(e.0, e.1);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `k` existing vertices chosen proportional to
/// degree. Produces a power-law degree distribution with heavy hubs.
pub fn barabasi_albert(n: usize, k: usize, seed: u64) -> Graph {
    assert!(k >= 1 && n > k, "BA requires n > k >= 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportional to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * k);
    // Seed clique over the first k+1 vertices.
    for u in 0..=(k as VertexId) {
        for v in (u + 1)..=(k as VertexId) {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (k + 1)..n {
        let v = v as VertexId;
        // Draw-ordered, not a HashSet: the targets feed back into
        // `endpoints`, so their iteration order shapes every later
        // degree-proportional draw — hash order would make the same
        // seed yield a different graph on every run.
        let mut targets: Vec<VertexId> = Vec::with_capacity(k);
        while targets.len() < k {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Parameters of the power-law stand-in generator used for dataset presets.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub n: usize,
    /// Target number of undirected edges (approximate; duplicates are
    /// dropped).
    pub m: usize,
    /// Power-law exponent of the expected-degree sequence (typically
    /// 2.0–3.0; lower = heavier hubs).
    pub gamma: f64,
    /// Fraction of edge budget spent on triangle-closing edges (0.0–1.0).
    /// Raises the clustering coefficient so motif-dense datasets like
    /// Orkut can be imitated.
    pub clustering: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Chung-Lu style power-law generator with an optional triangle-closing
/// pass.
///
/// Expected degrees follow `w_i ∝ (i + i0)^(-1/(gamma-1))`; edges are
/// sampled endpoint-by-endpoint proportional to weight. A `clustering`
/// fraction of the edge budget is then spent closing wedges (connecting two
/// neighbours of a random vertex), which mimics the high triangle/clique
/// density of social networks — the property every BENU experiment leans
/// on.
pub fn chung_lu_power_law(cfg: PowerLawConfig) -> Graph {
    let PowerLawConfig {
        n,
        m,
        gamma,
        clustering,
        seed,
    } = cfg;
    assert!(n >= 2, "need at least two vertices");
    assert!((0.0..=1.0).contains(&clustering), "clustering in [0,1]");
    assert!(gamma > 1.0, "gamma must exceed 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let alpha = 1.0 / (gamma - 1.0);
    // Expected-degree weights; i0 damps the largest hub so the max degree
    // stays below n.
    let i0 = 5.0_f64;
    let weights: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-alpha)).collect();
    // Cumulative distribution for endpoint sampling.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc;
    let sample_vertex = |rng: &mut ChaCha8Rng, cdf: &[f64]| -> VertexId {
        let x = rng.gen::<f64>() * total;
        match cdf.binary_search_by(|p| p.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => (i.min(cdf.len() - 1)) as VertexId,
        }
    };

    let m_rand = ((m as f64) * (1.0 - clustering)) as usize;
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    let mut edges = std::collections::HashSet::with_capacity(m * 2);
    let mut attempts = 0usize;
    let max_attempts = m_rand.saturating_mul(20).max(1000);
    while edges.len() < m_rand && attempts < max_attempts {
        attempts += 1;
        let u = sample_vertex(&mut rng, &cdf);
        let v = sample_vertex(&mut rng, &cdf);
        if u == v {
            continue;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        if edges.insert(e) {
            b.add_edge(e.0, e.1);
        }
    }
    // Triangle-closing pass over the random skeleton.
    if clustering > 0.0 {
        let skeleton = b.clone().build();
        let m_close = m.saturating_sub(edges.len());
        let mut closed = 0usize;
        let mut attempts = 0usize;
        let max_attempts = m_close.saturating_mul(30).max(1000);
        while closed < m_close && attempts < max_attempts {
            attempts += 1;
            let c = sample_vertex(&mut rng, &cdf);
            let nbrs = skeleton.neighbors(c);
            if nbrs.len() < 2 {
                continue;
            }
            let a = nbrs[rng.gen_range(0..nbrs.len())];
            let bv = nbrs[rng.gen_range(0..nbrs.len())];
            if a == bv {
                continue;
            }
            let e = if a < bv { (a, bv) } else { (bv, a) };
            if edges.insert(e) {
                b.add_edge(e.0, e.1);
                closed += 1;
            }
        }
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Cycle `C_n` (n ≥ 3).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new();
    for v in 0..n as VertexId {
        b.add_edge(v, ((v as usize + 1) % n) as VertexId);
    }
    b.build()
}

/// Path `P_n` with `n` vertices (n ≥ 2).
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "path needs at least 2 vertices");
    let mut b = GraphBuilder::new();
    for v in 0..(n - 1) as VertexId {
        b.add_edge(v, v + 1);
    }
    b.build()
}

/// Star `S_k`: centre 0 with `k` leaves.
pub fn star(k: usize) -> Graph {
    assert!(k >= 1, "star needs at least one leaf");
    let mut b = GraphBuilder::new();
    for v in 1..=k as VertexId {
        b.add_edge(0, v);
    }
    b.build()
}

/// 2-D grid graph `rows × cols`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new();
    b.reserve_vertices(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// Uniformly random *connected* simple graph on `n` vertices: a random
/// spanning tree plus `extra` random additional edges. Used by Exp-1's
/// "random pattern graphs" workload.
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    // Random attachment tree keeps connectivity.
    for v in 1..n as VertexId {
        let t = rng.gen_range(0..v);
        b.add_edge(v, t);
    }
    let max_edges = n * (n - 1) / 2;
    let target = (n - 1 + extra).min(max_edges);
    let mut edges: std::collections::HashSet<(VertexId, VertexId)> =
        b.clone().build().edges().collect();
    while edges.len() < target {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        if edges.insert(e) {
            b.add_edge(e.0, e.1);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count_and_is_deterministic() {
        let g1 = erdos_renyi_gnm(100, 300, 7);
        let g2 = erdos_renyi_gnm(100, 300, 7);
        assert_eq!(g1.num_edges(), 300);
        assert_eq!(g1, g2);
        let g3 = erdos_renyi_gnm(100, 300, 8);
        assert_ne!(g1, g3);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn gnm_rejects_impossible_m() {
        erdos_renyi_gnm(3, 4, 0);
    }

    #[test]
    fn ba_is_connected_with_heavy_hub() {
        let g = barabasi_albert(500, 3, 42);
        assert_eq!(g.num_vertices(), 500);
        // Every non-seed vertex attached k edges, so min degree >= 3.
        assert!(g.vertices().all(|v| g.degree(v) >= 3));
        // Preferential attachment concentrates degree.
        assert!(g.max_degree() > 20);
    }

    #[test]
    fn chung_lu_respects_budget_and_boosts_triangles() {
        let base = chung_lu_power_law(PowerLawConfig {
            n: 2000,
            m: 8000,
            gamma: 2.5,
            clustering: 0.0,
            seed: 1,
        });
        let boosted = chung_lu_power_law(PowerLawConfig {
            n: 2000,
            m: 8000,
            gamma: 2.5,
            clustering: 0.4,
            seed: 1,
        });
        assert!(base.num_edges() <= 8000);
        assert!(boosted.num_edges() <= 8000);
        let tri = |g: &Graph| {
            let mut t = 0usize;
            for u in g.vertices() {
                for &v in g.neighbors(u) {
                    if v > u {
                        t += crate::ops::intersect_count(g.neighbors(u), g.neighbors(v));
                    }
                }
            }
            t / 3
        };
        assert!(tri(&boosted) > tri(&base) * 2, "triangle closing works");
    }

    #[test]
    fn fixed_motifs() {
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(cycle(6).num_edges(), 6);
        assert_eq!(path(4).num_edges(), 3);
        assert_eq!(star(7).num_edges(), 7);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(12, 6, seed);
            // BFS from 0 reaches everything.
            let mut seen = vec![false; g.num_vertices()];
            let mut stack = vec![0u32];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                for &w in g.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "seed {seed} disconnected");
            assert_eq!(g.num_edges(), 12 - 1 + 6);
        }
    }
}
