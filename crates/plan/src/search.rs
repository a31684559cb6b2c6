//! Best execution-plan generation (paper §IV-D, Algorithm 3).
//!
//! The search enumerates matching orders depth-first, maintaining each
//! partial order's communication cost incrementally. Two prunings keep the
//! explored space far below `n!`:
//!
//! * **dual pruning** — syntactically equivalent vertices generate
//!   cost-identical dual plans, so only ascending-index placements are
//!   explored;
//! * **cost-based pruning** — a partial order whose communication cost
//!   already exceeds the best-known full order is abandoned.
//!
//! The candidate orders with minimum communication cost are then compiled
//! into optimized plans and ranked by estimated computation cost. The
//! counters `alpha` (cardinality estimations during the search) and `beta`
//! (optimized plans generated) are exactly the quantities Table IV reports
//! relative to their upper bounds `Σ_i P(n, i)` and `n!`.

use crate::cost::{estimate_computation_cost, CardinalityEstimator};
use crate::generate::raw_plan;
use crate::ir::ExecutionPlan;
use crate::optimize::{optimize, OptLevel};
use benu_pattern::se::SyntacticEquivalence;
use benu_pattern::{Pattern, PatternVertex, SymmetryBreaking};
use std::time::{Duration, Instant};

/// Instrumentation of one best-plan search (Table IV's measurements).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Number of cardinality-estimation operations performed during the
    /// matching-order search (the paper's α).
    pub alpha: usize,
    /// Number of optimized execution plans generated from candidate orders
    /// (the paper's β).
    pub beta: usize,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
}

impl SearchStats {
    /// α's upper bound `Σ_{i=1..n} P(n, i)` (partial permutations).
    pub fn alpha_upper_bound(n: usize) -> f64 {
        let mut total = 0.0;
        let mut perms = 1.0;
        for i in 0..n {
            perms *= (n - i) as f64;
            total += perms;
        }
        total
    }

    /// β's upper bound `n!`.
    pub fn beta_upper_bound(n: usize) -> f64 {
        (1..=n).map(|i| i as f64).product()
    }
}

/// The outcome of a best-plan search.
#[derive(Clone, Debug)]
pub struct BestPlanResult {
    /// The winning (optimized, uncompressed) plan.
    pub plan: ExecutionPlan,
    /// Estimated communication cost of the winning matching order.
    pub comm_cost: f64,
    /// Estimated computation cost of the winning order's fully optimized
    /// plan (what the order was ranked by).
    pub comp_cost: f64,
    /// Search instrumentation.
    pub stats: SearchStats,
}

/// The one lowering path from a matching order to an (uncompressed)
/// plan: raw generation under `symmetry`, then the optimizations of
/// `level`.
pub(crate) fn lower(
    pattern: &Pattern,
    order: &[PatternVertex],
    symmetry: &SymmetryBreaking,
    level: OptLevel,
) -> ExecutionPlan {
    let mut plan = raw_plan(pattern, order, symmetry);
    optimize(&mut plan, level);
    plan
}

/// Runs Algorithm 3: finds the matching order with minimum
/// (communication, computation) cost — candidate orders are ranked as
/// the fully optimized plans they lower to under `symmetry`, so the
/// rungs of an optimization ablation share one order — and returns it
/// lowered at `level`.
pub fn best_plan(
    pattern: &Pattern,
    estimator: &dyn CardinalityEstimator,
    symmetry: &SymmetryBreaking,
    level: OptLevel,
) -> BestPlanResult {
    let start_time = Instant::now();
    let n = pattern.num_vertices();
    assert!(n >= 2, "patterns need at least two vertices");
    let se = SyntacticEquivalence::compute(pattern);

    let mut ctx = SearchCtx {
        pattern,
        estimator,
        se: &se,
        best_comm: f64::INFINITY,
        candidates: Vec::new(),
        alpha: 0,
    };
    let mut order = Vec::with_capacity(n);
    ctx.search(&mut order, 0, 0.0);

    // Rank candidate orders by computation cost of their optimized plans.
    let mut best: Option<(ExecutionPlan, f64)> = None;
    let beta = ctx.candidates.len();
    for order in &ctx.candidates {
        let plan = lower(pattern, order, symmetry, OptLevel::Opt3);
        let cost = estimate_computation_cost(&plan, estimator);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((plan, cost));
        }
    }
    let (mut plan, comp_cost) = best.expect("at least one matching order exists");
    if level != OptLevel::Opt3 {
        plan = lower(pattern, &plan.matching_order, symmetry, level);
    }
    BestPlanResult {
        plan,
        comm_cost: ctx.best_comm,
        comp_cost,
        stats: SearchStats {
            alpha: ctx.alpha,
            beta,
            elapsed: start_time.elapsed(),
        },
    }
}

struct SearchCtx<'a> {
    pattern: &'a Pattern,
    estimator: &'a dyn CardinalityEstimator,
    se: &'a SyntacticEquivalence,
    best_comm: f64,
    candidates: Vec<Vec<PatternVertex>>,
    alpha: usize,
}

impl SearchCtx<'_> {
    fn search(&mut self, order: &mut Vec<PatternVertex>, used: u64, comm_cost: f64) {
        let n = self.pattern.num_vertices();
        if order.len() == n {
            if comm_cost < self.best_comm {
                self.best_comm = comm_cost;
                self.candidates.clear();
                self.candidates.push(order.clone());
            } else if comm_cost == self.best_comm {
                self.candidates.push(order.clone());
            }
            return;
        }
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let unused = full & !used;
        for u in 0..n {
            if unused & (1 << u) == 0 {
                continue;
            }
            // Dual pruning: skip orders where an SE-equivalent vertex with
            // a smaller index is still unused.
            if !self.se.passes_dual_condition(u, unused) {
                continue;
            }
            let used_next = used | (1 << u);
            let remaining = full & !used_next;
            // Case 1: a DBQ will be generated for u — its execution count
            // is the match count of the partial pattern including u.
            let s = if self.pattern.neighbor_mask(u) & remaining != 0 {
                self.alpha += 1;
                self.estimator
                    .estimate_pattern_subset(self.pattern, used_next)
            } else {
                // Case 2: all of u's neighbours are already placed.
                0.0
            };
            let comm_next = comm_cost + s;
            // Cost-based pruning.
            if comm_next > self.best_comm {
                continue;
            }
            order.push(u);
            self.search(order, used_next, comm_next);
            order.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GraphStatsEstimator;
    use benu_pattern::queries;

    fn est() -> GraphStatsEstimator {
        GraphStatsEstimator::new(100_000, 1_000_000)
    }

    fn best_plan(pattern: &Pattern, estimator: &dyn CardinalityEstimator) -> BestPlanResult {
        let symmetry = SymmetryBreaking::compute(pattern);
        super::best_plan(pattern, estimator, &symmetry, OptLevel::Opt3)
    }

    #[test]
    fn best_plan_for_triangle_is_valid_and_minimal() {
        let r = best_plan(&queries::triangle(), &est());
        r.plan.validate().unwrap();
        assert_eq!(r.plan.num_levels(), 2);
        // Triangle: all orders are duals of [0,1,2]; dual pruning leaves
        // exactly one candidate order.
        assert_eq!(r.stats.beta, 1);
    }

    #[test]
    fn search_explores_fraction_of_upper_bounds() {
        for (name, p) in queries::evaluation_queries() {
            let r = best_plan(&p, &est());
            let n = p.num_vertices();
            let alpha_rel = r.stats.alpha as f64 / SearchStats::alpha_upper_bound(n);
            let beta_rel = r.stats.beta as f64 / SearchStats::beta_upper_bound(n);
            assert!(alpha_rel <= 1.0, "{name}: alpha exceeds bound");
            assert!(
                beta_rel < 0.5,
                "{name}: pruning should cut most orders (got {beta_rel})"
            );
            r.plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn clique_search_collapses_to_single_order() {
        // All K5 vertices are SE-equivalent: dual pruning admits only the
        // ascending order.
        let r = best_plan(&queries::clique(5), &est());
        assert_eq!(r.stats.beta, 1);
        assert_eq!(r.plan.matching_order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn best_plan_beats_or_ties_arbitrary_order() {
        use crate::cost::estimate_communication_cost;
        let p = queries::q7();
        let e = est();
        let r = best_plan(&p, &e);
        // Compare with the natural order's communication cost.
        let sb = SymmetryBreaking::compute(&p);
        let natural = raw_plan(&p, &[0, 1, 2, 3, 4, 5], &sb);
        let natural_comm = estimate_communication_cost(&natural, &e);
        assert!(r.comm_cost <= natural_comm + 1e-6);
    }

    #[test]
    fn comm_cost_matches_plan_reconstruction() {
        // The incrementally-maintained search cost must equal the cost
        // computed from the final plan's instruction list.
        use crate::cost::estimate_communication_cost;
        let p = queries::q1();
        let e = est();
        let r = best_plan(&p, &e);
        let direct = estimate_communication_cost(&r.plan, &e);
        assert!(
            (direct - r.comm_cost).abs() / r.comm_cost.max(1.0) < 1e-9,
            "search cost {} vs plan cost {direct}",
            r.comm_cost
        );
    }

    #[test]
    fn upper_bounds_are_correct() {
        assert_eq!(SearchStats::beta_upper_bound(4), 24.0);
        // Σ P(4, i) = 4 + 12 + 24 + 24 = 64.
        assert_eq!(SearchStats::alpha_upper_bound(4), 64.0);
    }
}
