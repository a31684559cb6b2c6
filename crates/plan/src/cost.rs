//! Plan cost estimation (paper §IV-C).
//!
//! The cost of a plan has two parts: the *communication cost* (total
//! execution times of DBQ instructions) and the *computation cost* (total
//! execution times of INT/TRC instructions). The execution times of an
//! instruction equal the number of matches of the partial pattern graph
//! `P_i` induced by the enumeration levels enclosing it, so everything
//! reduces to estimating match cardinalities.
//!
//! Three estimators implement the pluggable [`CardinalityEstimator`]
//! trait, in increasing order of fidelity:
//!
//! 1. [`GraphStatsEstimator`] — the static Erdős–Rényi model of SEED
//!    §5.1: a pattern component with `n'` vertices and `m'` edges has
//!    `E[matches] = N·(N−1)⋯(N−n'+1) · (2M / N(N−1))^{m'}` expected
//!    matches. Cheap (two scalars) but degree-oblivious, so it badly
//!    underestimates stars and cliques on power-law graphs.
//! 2. [`ChungLuEstimator`] — a degree-moment model that weights each
//!    pattern vertex by the data graph's degree moments `S_k = Σ d^k`,
//!    capturing heavy hubs. Static, but degree-aware.
//! 3. [`crate::feedback::FeedbackEstimator`] — blends a Chung-Lu prior
//!    with per-instruction cardinalities *observed* during a previous
//!    execution of a plan for the same pattern; exact on observed
//!    prefixes, prior-times-correction elsewhere.
//!
//! Disconnected partial patterns multiply their components' estimates (as
//! the paper prescribes). The trait is pluggable — the paper notes the
//! model "can be replaced if a more accurate model is proposed".

use crate::ir::{ExecutionPlan, InstrKind, Instruction};
use benu_pattern::pattern::BitIter;
use benu_pattern::Pattern;

/// Estimates the number of matches of small patterns in the data graph.
pub trait CardinalityEstimator: std::fmt::Debug {
    /// Expected number of matches of a *connected* pattern component with
    /// `n_vertices` and `n_edges`.
    fn estimate_component(&self, n_vertices: usize, n_edges: usize) -> f64;

    /// Degree-aware refinement: expected matches of a connected component
    /// whose vertices have the given degrees *within the component*.
    /// Defaults to the degree-oblivious estimate; degree-moment models
    /// override this.
    fn estimate_component_degrees(&self, degrees: &[usize], n_edges: usize) -> f64 {
        self.estimate_component(degrees.len(), n_edges)
    }

    /// Expected matches of an arbitrary (possibly disconnected) partial
    /// pattern: the product over connected components.
    fn estimate_pattern_subset(&self, pattern: &Pattern, vertex_mask: u64) -> f64 {
        if vertex_mask == 0 {
            return 1.0;
        }
        pattern
            .components_within(vertex_mask)
            .into_iter()
            .map(|comp| {
                let ne = pattern.induced_mask_edges(comp);
                let degrees: Vec<usize> = mask_vertices(comp)
                    .map(|u| (pattern.neighbor_mask(u) & comp).count_ones() as usize)
                    .collect();
                self.estimate_component_degrees(&degrees, ne)
            })
            .product()
    }
}

/// The Erdős–Rényi estimator parameterised by data-graph statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStatsEstimator {
    /// `N = |V(G)|`.
    pub num_vertices: f64,
    /// `M = |E(G)|`.
    pub num_edges: f64,
}

impl GraphStatsEstimator {
    /// Creates an estimator from graph statistics.
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        GraphStatsEstimator {
            num_vertices: num_vertices.max(2) as f64,
            num_edges: num_edges.max(1) as f64,
        }
    }

    /// A generic default (a million vertices, ten million edges) used when
    /// no data graph is at hand; plan *ranking* is fairly insensitive to
    /// the exact values because every candidate order is scored with the
    /// same statistics.
    pub fn generic() -> Self {
        GraphStatsEstimator {
            num_vertices: 1e6,
            num_edges: 1e7,
        }
    }
}

impl CardinalityEstimator for GraphStatsEstimator {
    fn estimate_component(&self, n_vertices: usize, n_edges: usize) -> f64 {
        let n = self.num_vertices;
        // A component with more vertices than the data graph admits no
        // injective embedding at all.
        if n_vertices as f64 > n {
            return 0.0;
        }
        // Edge probability of the G(N, M) model.
        let p = (2.0 * self.num_edges / (n * (n - 1.0))).min(1.0);
        let mut injective = 1.0;
        for i in 0..n_vertices {
            injective *= n - i as f64;
        }
        injective * p.powi(n_edges as i32)
    }
}

/// A degree-moment estimator based on the Chung-Lu random-graph model:
/// with vertex weights equal to the observed degrees, the probability of
/// edge `(u, v)` is `d_u·d_v / 2M`, so the expected match count of a
/// connected component factorises as
/// `Π_{a ∈ V(p')} S_{deg_{p'}(a)} / (2M)^{m'}` with the degree moments
/// `S_k = Σ_v d_v^k`. Unlike the Erdős–Rényi model it captures the heavy
/// hubs of power-law graphs, which dominate star- and clique-shaped
/// partial patterns.
#[derive(Clone, Debug, PartialEq)]
pub struct ChungLuEstimator {
    /// `moments[k] = S_k = Σ_v d_v^k` for `k = 0 ..= max_degree_supported`.
    moments: Vec<f64>,
    /// `2M`.
    two_m: f64,
}

impl ChungLuEstimator {
    /// Maximum pattern-vertex degree supported (patterns have ≤ 10
    /// vertices in the paper, so degree ≤ 9; 16 leaves headroom).
    pub const MAX_PATTERN_DEGREE: usize = 16;

    /// Computes the degree moments of a data graph (through its degree
    /// array: see [`ChungLuEstimator::from_degrees`]).
    pub fn from_graph(g: &benu_graph::Graph) -> Self {
        let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        Self::from_degrees(&degrees)
    }

    /// Builds directly from a degree histogram (`hist[d]` = #vertices of
    /// degree `d`), for callers without the graph at hand.
    pub fn from_degree_histogram(hist: &[usize]) -> Self {
        let mut moments = vec![0.0f64; Self::MAX_PATTERN_DEGREE + 1];
        let mut edges2 = 0.0f64;
        for (d, &count) in hist.iter().enumerate() {
            let d_f = d as f64;
            edges2 += d_f * count as f64;
            let mut p = 1.0;
            for m in moments.iter_mut() {
                *m += p * count as f64;
                p *= d_f;
            }
        }
        ChungLuEstimator {
            moments,
            two_m: edges2.max(1.0),
        }
    }

    /// Builds from a resident per-vertex degree array (`degrees[v]` is
    /// the degree of vertex `v`) — the prior both runtimes calibrate
    /// planning and feedback estimation with. Goes through the
    /// histogram so the moments sum in the same order either way.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        let max_d = degrees.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; max_d + 1];
        for &d in degrees {
            hist[d as usize] += 1;
        }
        Self::from_degree_histogram(&hist)
    }
}

impl CardinalityEstimator for ChungLuEstimator {
    fn estimate_component(&self, n_vertices: usize, n_edges: usize) -> f64 {
        // Degree-oblivious fallback: spread the edges evenly. The average
        // degree is fractional in general (a 3-vertex path has avg 4/3);
        // rounding it to the nearest integer collapses distinct densities
        // onto the same moment product, so interpolate geometrically
        // between the floor and ceil moment products instead:
        // `est = est_floor^(1-frac) · est_ceil^frac`.
        let avg = (2 * n_edges) as f64 / n_vertices.max(1) as f64;
        let lo = avg.floor() as usize;
        let hi = avg.ceil() as usize;
        let frac = avg - lo as f64;
        let lo_est = self.estimate_component_degrees(&vec![lo; n_vertices], n_edges);
        if lo == hi || frac == 0.0 {
            return lo_est;
        }
        let hi_est = self.estimate_component_degrees(&vec![hi; n_vertices], n_edges);
        if lo_est <= 0.0 || hi_est <= 0.0 {
            // Degenerate moments (e.g. an empty data graph): fall back to
            // the nearer integer rather than interpolating through zero.
            return if frac < 0.5 { lo_est } else { hi_est };
        }
        lo_est.powf(1.0 - frac) * hi_est.powf(frac)
    }

    fn estimate_component_degrees(&self, degrees: &[usize], n_edges: usize) -> f64 {
        let mut numerator = 1.0f64;
        for &d in degrees {
            let k = d.min(Self::MAX_PATTERN_DEGREE);
            numerator *= self.moments[k];
        }
        numerator / self.two_m.powi(n_edges as i32)
    }
}

/// The computation cost of a plan: Σ over INT/TRC instructions of the
/// match count of the enclosing partial pattern (Algorithm 3,
/// `EstimateComputationCost`). Instructions before the first ENU execute
/// once per task and are charged zero, exactly as the pseudocode does.
pub fn estimate_computation_cost(plan: &ExecutionPlan, est: &dyn CardinalityEstimator) -> f64 {
    let mut cost = 0.0;
    let mut cur_num = 0.0;
    // p' implicitly contains the Init vertex so that after the i-th ENU it
    // equals the partial pattern P_{i+1}.
    let mut mask: u64 = 1 << plan.start_vertex();
    for instr in &plan.instructions {
        match instr.kind() {
            InstrKind::Enu => {
                if let Instruction::Foreach { vertex, .. } = instr {
                    mask |= 1 << vertex;
                }
                cur_num = est.estimate_pattern_subset(&plan.pattern, mask);
            }
            InstrKind::Int | InstrKind::Trc => cost += cur_num,
            _ => {}
        }
    }
    cost
}

/// The communication cost of a plan: Σ over DBQ instructions of the match
/// count of the enclosing partial pattern. The leading `A_{k1} :=
/// GetAdj(f_{k1})` executes once per task, i.e. `N` times in total.
pub fn estimate_communication_cost(plan: &ExecutionPlan, est: &dyn CardinalityEstimator) -> f64 {
    let mut cost = 0.0;
    let mut cur_num = est.estimate_pattern_subset(&plan.pattern, 1 << plan.start_vertex());
    let mut mask: u64 = 1 << plan.start_vertex();
    for instr in &plan.instructions {
        match instr.kind() {
            InstrKind::Enu => {
                if let Instruction::Foreach { vertex, .. } = instr {
                    mask |= 1 << vertex;
                }
                cur_num = est.estimate_pattern_subset(&plan.pattern, mask);
            }
            InstrKind::Dbq => cost += cur_num,
            _ => {}
        }
    }
    cost
}

/// Iterates the vertices of a mask (re-export convenience for callers).
pub fn mask_vertices(mask: u64) -> impl Iterator<Item = usize> {
    BitIter(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::raw_plan;
    use crate::optimize::{optimize, OptLevel};
    use benu_pattern::{queries, SymmetryBreaking};

    #[test]
    fn er_estimator_matches_hand_calculation() {
        let est = GraphStatsEstimator::new(100, 450);
        // Single vertex: N matches.
        assert!((est.estimate_component(1, 0) - 100.0).abs() < 1e-9);
        // Edge: N(N-1)·p with p = 900/9900.
        let p = 900.0 / 9900.0;
        assert!((est.estimate_component(2, 1) - 100.0 * 99.0 * p).abs() < 1e-6);
        // Triangle: N(N-1)(N-2)·p³.
        let expect = 100.0 * 99.0 * 98.0 * p.powi(3);
        assert!((est.estimate_component(3, 3) - expect).abs() < 1e-6);
    }

    #[test]
    fn disconnected_subsets_multiply() {
        let est = GraphStatsEstimator::new(1000, 5000);
        let p = queries::path(3); // 0-1-2
                                  // Mask {0, 2}: two isolated vertices → N².
        let got = est.estimate_pattern_subset(&p, 0b101);
        assert!((got - 1e6).abs() / 1e6 < 1e-9);
        // Mask {0, 1}: one edge component.
        let edge = est.estimate_component(2, 1);
        assert!((est.estimate_pattern_subset(&p, 0b011) - edge).abs() < 1e-9);
    }

    #[test]
    fn empty_mask_estimates_one() {
        let est = GraphStatsEstimator::new(10, 20);
        assert_eq!(est.estimate_pattern_subset(&queries::triangle(), 0), 1.0);
    }

    #[test]
    fn computation_cost_counts_int_per_level() {
        let p = queries::triangle();
        let sb = SymmetryBreaking::compute(&p);
        let plan = raw_plan(&p, &[0, 1, 2], &sb);
        let est = GraphStatsEstimator::new(1000, 10_000);
        // Triangle raw plan: C1 := Int(A0)[...] before the first ENU
        // (cost 0), then T2 := Int(A0, A1) and C2 := Int(T2)[...] inside
        // the first level (each costs the match count of the edge P_2).
        let cost = estimate_computation_cost(&plan, &est);
        let edge_matches = est.estimate_component(2, 1);
        assert!((cost - 2.0 * edge_matches).abs() / edge_matches < 1e-9);
    }

    #[test]
    fn communication_cost_counts_dbq() {
        let p = queries::triangle();
        let sb = SymmetryBreaking::compute(&p);
        let plan = raw_plan(&p, &[0, 1, 2], &sb);
        let est = GraphStatsEstimator::new(1000, 10_000);
        // DBQs: A0 (once per task: N) + A1 (once per edge match).
        let cost = estimate_communication_cost(&plan, &est);
        let expect = 1000.0 + est.estimate_component(2, 1);
        assert!((cost - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn optimization_reduces_estimated_computation_cost() {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        let order = [0, 2, 4, 1, 5, 3];
        // Dense statistics (avg degree 200) put the model in the regime
        // the paper targets, where partial-match counts grow with each
        // enumeration level and hoisting pays off.
        let est = GraphStatsEstimator::new(10_000, 1_000_000);
        let raw = raw_plan(&p, &order, &sb);
        let mut opt = raw.clone();
        optimize(&mut opt, OptLevel::Opt2);
        assert!(
            estimate_computation_cost(&opt, &est) < estimate_computation_cost(&raw, &est),
            "hoisting must reduce modeled computation"
        );
    }

    #[test]
    fn chung_lu_matches_histogram_construction() {
        let g = benu_graph::gen::barabasi_albert(200, 3, 9);
        let from_graph = ChungLuEstimator::from_graph(&g);
        let hist = benu_graph::stats::degree_histogram(&g);
        let from_hist = ChungLuEstimator::from_degree_histogram(&hist);
        let p = queries::triangle();
        let a = from_graph.estimate_pattern_subset(&p, 0b111);
        let b = from_hist.estimate_pattern_subset(&p, 0b111);
        assert!((a - b).abs() / a < 1e-9);
    }

    #[test]
    fn chung_lu_beats_er_on_hubby_graphs() {
        // BA graphs have far more wedges/triangle-closures than ER graphs
        // of the same size; the degree-moment model must predict more
        // ordered triangle maps than the ER model.
        let g = benu_graph::gen::barabasi_albert(500, 4, 3);
        let cl = ChungLuEstimator::from_graph(&g);
        let er = GraphStatsEstimator::new(g.num_vertices(), g.num_edges());
        let p = queries::triangle();
        let cl_est = cl.estimate_pattern_subset(&p, 0b111);
        let er_est = er.estimate_pattern_subset(&p, 0b111);
        assert!(cl_est > er_est * 2.0, "cl {cl_est} vs er {er_est}");
        // And it should be the closer one to the truth (6 ordered maps per
        // triangle).
        let truth = 6.0 * benu_graph::stats::count_triangles(&g) as f64;
        assert!(
            (cl_est.ln() - truth.ln()).abs() < (er_est.ln() - truth.ln()).abs(),
            "cl {cl_est} er {er_est} truth {truth}"
        );
    }

    #[test]
    fn chung_lu_degrees_matter() {
        let g = benu_graph::gen::star(50);
        let cl = ChungLuEstimator::from_graph(&g);
        // A star pattern centred on a high-degree vertex is far more
        // likely than a path with the same edge count.
        let star3 = cl.estimate_component_degrees(&[3, 1, 1, 1], 3);
        let path4 = cl.estimate_component_degrees(&[1, 2, 2, 1], 3);
        assert!(star3 > path4);
    }

    #[test]
    fn denser_components_are_rarer() {
        let est = GraphStatsEstimator::new(10_000, 100_000);
        let path3 = est.estimate_component(3, 2);
        let tri = est.estimate_component(3, 3);
        assert!(tri < path3);
    }

    #[test]
    fn oversized_components_estimate_zero() {
        // Regression: the injective factor used to clamp each term with
        // .max(1.0), so a 10-vertex component in a 5-vertex graph got a
        // *positive* estimate. It must be exactly zero.
        let est = GraphStatsEstimator::new(5, 8);
        assert_eq!(est.estimate_component(10, 12), 0.0);
        assert_eq!(est.estimate_component(6, 5), 0.0);
        // Exactly N vertices is still feasible (last factor is 1).
        assert!(est.estimate_component(5, 4) > 0.0);
        // And through the subset API: a 6-clique mask in a 5-vertex graph.
        let k6 = queries::clique(6);
        assert_eq!(est.estimate_pattern_subset(&k6, 0b11_1111), 0.0);
    }

    #[test]
    fn chung_lu_fallback_interpolates_fractional_degrees() {
        let g = benu_graph::gen::barabasi_albert(300, 3, 7);
        let cl = ChungLuEstimator::from_graph(&g);
        // A 3-vertex/2-edge path has average degree 4/3; the estimate must
        // lie strictly between the uniform degree-1 and degree-2 products
        // (it used to round down to the degree-1 value).
        let est = cl.estimate_component(3, 2);
        let lo = cl.estimate_component_degrees(&[1, 1, 1], 2);
        let hi = cl.estimate_component_degrees(&[2, 2, 2], 2);
        assert!(lo < est && est < hi, "lo {lo} est {est} hi {hi}");
        // Integral average degrees are untouched by interpolation.
        let tri = cl.estimate_component(3, 3);
        let tri_direct = cl.estimate_component_degrees(&[2, 2, 2], 3);
        assert!((tri - tri_direct).abs() / tri_direct < 1e-12);
    }

    #[test]
    fn chung_lu_fallback_is_monotone_in_density() {
        // On a graph with min degree ≥ 1 the moments S_k are
        // non-decreasing in k, so the interpolated moment product (the
        // estimate with the (2M)^m edge-probability factor divided out)
        // must be non-decreasing as the average degree sweeps through
        // fractional values.
        let g = benu_graph::gen::barabasi_albert(200, 2, 11);
        let cl = ChungLuEstimator::from_graph(&g);
        let two_m = (2 * g.num_edges()) as f64;
        let n_vertices = 5usize;
        let mut prev = f64::NEG_INFINITY;
        for n_edges in 0..=10usize {
            let numerator = cl.estimate_component(n_vertices, n_edges) * two_m.powi(n_edges as i32);
            assert!(
                numerator >= prev * (1.0 - 1e-12),
                "moment product decreased at m={n_edges}: {numerator} < {prev}"
            );
            prev = numerator;
        }
    }

    #[test]
    fn chung_lu_histogram_agrees_with_graph_on_random_graphs() {
        // Property: from_graph and from_degree_histogram are two routes to
        // the same moments, on ER and BA graphs across seeds and subsets.
        let patterns = [queries::triangle(), queries::path(4), queries::clique(4)];
        for seed in 0..8u64 {
            let graphs = [
                benu_graph::gen::erdos_renyi_gnm(150, 600, seed),
                benu_graph::gen::barabasi_albert(150, 3, seed),
            ];
            for g in &graphs {
                let a = ChungLuEstimator::from_graph(g);
                let b = ChungLuEstimator::from_degree_histogram(
                    &benu_graph::stats::degree_histogram(g),
                );
                for p in &patterns {
                    let full = (1u64 << p.num_vertices()) - 1;
                    for mask in 1..=full {
                        let ea = a.estimate_pattern_subset(p, mask);
                        let eb = b.estimate_pattern_subset(p, mask);
                        assert!(
                            (ea - eb).abs() <= 1e-9 * ea.abs().max(1.0),
                            "seed {seed} mask {mask:b}: {ea} vs {eb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_are_invariant_under_pattern_relabeling() {
        // Property: estimate_pattern_subset depends only on the isomorphism
        // class of the induced subpattern, so relabeling the pattern and
        // mapping the mask through the permutation preserves the estimate.
        // This is what makes a canonical-hash keyed stats store sound.
        let g = benu_graph::gen::barabasi_albert(200, 3, 5);
        let cl = ChungLuEstimator::from_graph(&g);
        let er = GraphStatsEstimator::new(g.num_vertices(), g.num_edges());
        let patterns = [
            queries::demo_pattern(),
            queries::path(5),
            queries::clique(4),
        ];
        // A few fixed permutations per size (rotations and a swap-heavy one).
        for p in &patterns {
            let n = p.num_vertices();
            let perms: Vec<Vec<usize>> = vec![
                (0..n).map(|i| (i + 1) % n).collect(),
                (0..n).map(|i| n - 1 - i).collect(),
            ];
            for perm in &perms {
                let q = p.relabeled(perm);
                let full = (1u64 << n) - 1;
                for mask in 1..=full {
                    let mapped = mask_vertices(mask).fold(0u64, |m, v| m | (1 << perm[v]));
                    for est in [&cl as &dyn CardinalityEstimator, &er] {
                        let a = est.estimate_pattern_subset(p, mask);
                        let b = est.estimate_pattern_subset(&q, mapped);
                        assert!(
                            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                            "mask {mask:b}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}
