//! The user-facing plan-compilation API.
//!
//! ```
//! use benu_pattern::queries;
//! use benu_plan::PlanBuilder;
//!
//! let pattern = queries::q4();
//! let plan = PlanBuilder::new(&pattern)
//!     .graph_stats(100_000, 1_000_000)
//!     .compressed(true)
//!     .best_plan();
//! assert!(plan.compressed);
//! ```

use crate::cost::{CardinalityEstimator, ChungLuEstimator, GraphStatsEstimator};
use crate::feedback::FeedbackEstimator;
use crate::generate::raw_plan;
use crate::ir::ExecutionPlan;
use crate::optimize::{optimize, OptLevel};
use crate::search::{best_plan, BestPlanResult};
use crate::vcbc::compress;
use benu_pattern::{Pattern, PatternVertex, SymmetryBreaking};

/// Which cardinality model calibrates the best-plan search.
#[derive(Clone, Debug)]
enum EstimatorChoice {
    /// Erdős–Rényi model from (N, M) — the paper's default (SEED §5.1).
    Stats(GraphStatsEstimator),
    /// Degree-moment Chung-Lu model — better on power-law graphs.
    ChungLu(ChungLuEstimator),
    /// Chung-Lu prior corrected by cardinalities observed while executing
    /// a previous plan for the same pattern.
    Feedback(FeedbackEstimator),
}

impl CardinalityEstimator for EstimatorChoice {
    fn estimate_component(&self, n_vertices: usize, n_edges: usize) -> f64 {
        match self {
            EstimatorChoice::Stats(e) => e.estimate_component(n_vertices, n_edges),
            EstimatorChoice::ChungLu(e) => e.estimate_component(n_vertices, n_edges),
            EstimatorChoice::Feedback(e) => e.estimate_component(n_vertices, n_edges),
        }
    }

    fn estimate_component_degrees(&self, degrees: &[usize], n_edges: usize) -> f64 {
        match self {
            EstimatorChoice::Stats(e) => e.estimate_component_degrees(degrees, n_edges),
            EstimatorChoice::ChungLu(e) => e.estimate_component_degrees(degrees, n_edges),
            EstimatorChoice::Feedback(e) => e.estimate_component_degrees(degrees, n_edges),
        }
    }

    // Forwarded explicitly: the feedback estimator overrides the subset
    // estimate with directly observed prefix cardinalities, which the
    // default component-product implementation would lose.
    fn estimate_pattern_subset(&self, pattern: &Pattern, vertex_mask: u64) -> f64 {
        match self {
            EstimatorChoice::Stats(e) => e.estimate_pattern_subset(pattern, vertex_mask),
            EstimatorChoice::ChungLu(e) => e.estimate_pattern_subset(pattern, vertex_mask),
            EstimatorChoice::Feedback(e) => e.estimate_pattern_subset(pattern, vertex_mask),
        }
    }
}

/// Fluent builder producing [`ExecutionPlan`]s.
#[derive(Clone, Debug)]
pub struct PlanBuilder<'a> {
    pattern: &'a Pattern,
    estimator: EstimatorChoice,
    level: OptLevel,
    compressed: bool,
    symmetry: Option<SymmetryBreaking>,
    order: Option<Vec<PatternVertex>>,
}

impl<'a> PlanBuilder<'a> {
    /// Starts building a plan for `pattern` with all optimizations on,
    /// uncompressed output, computed symmetry breaking, and a generic
    /// cost-model calibration.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is disconnected or has fewer than two
    /// vertices (the paper assumes connected patterns; decompose
    /// disconnected ones into components first).
    pub fn new(pattern: &'a Pattern) -> Self {
        assert!(pattern.num_vertices() >= 2, "pattern too small");
        assert!(pattern.is_connected(), "pattern must be connected");
        PlanBuilder {
            pattern,
            estimator: EstimatorChoice::Stats(GraphStatsEstimator::generic()),
            level: OptLevel::Opt3,
            compressed: false,
            symmetry: None,
            order: None,
        }
    }

    /// Calibrates the cost model with the data graph's `N` and `M`
    /// (the paper's Erdős–Rényi model).
    pub fn graph_stats(mut self, num_vertices: usize, num_edges: usize) -> Self {
        self.estimator = EstimatorChoice::Stats(GraphStatsEstimator::new(num_vertices, num_edges));
        self
    }

    /// Calibrates the cost model with the data graph's degree moments
    /// (the Chung-Lu model — usually a better fit for power-law graphs).
    pub fn degree_moments(mut self, g: &benu_graph::Graph) -> Self {
        self.estimator = EstimatorChoice::ChungLu(ChungLuEstimator::from_graph(g));
        self
    }

    /// Calibrates the cost model with a pre-built Chung-Lu estimator, for
    /// callers holding a degree histogram rather than the graph itself.
    pub fn chung_lu(mut self, est: ChungLuEstimator) -> Self {
        self.estimator = EstimatorChoice::ChungLu(est);
        self
    }

    /// Calibrates the cost model with a feedback estimator built from a
    /// previous execution's observed per-instruction cardinalities (see
    /// [`crate::feedback`]).
    pub fn observed_feedback(mut self, est: FeedbackEstimator) -> Self {
        self.estimator = EstimatorChoice::Feedback(est);
        self
    }

    /// Selects how many of the paper's optimizations to apply (default:
    /// [`OptLevel::Opt3`], all of them).
    pub fn optimizations(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// Emits VCBC-compressed results (default: off).
    pub fn compressed(mut self, yes: bool) -> Self {
        self.compressed = yes;
        self
    }

    /// Overrides the symmetry-breaking partial order. Passing
    /// [`SymmetryBreaking::none`] enumerates raw matches (each subgraph
    /// reported `|Aut(P)|` times).
    pub fn symmetry(mut self, sb: SymmetryBreaking) -> Self {
        self.symmetry = Some(sb);
        self
    }

    /// Forces a specific matching order instead of searching for the best
    /// one.
    pub fn matching_order(mut self, order: Vec<PatternVertex>) -> Self {
        self.order = Some(order);
        self
    }

    fn symmetry_or_default(&self) -> SymmetryBreaking {
        self.symmetry
            .clone()
            .unwrap_or_else(|| SymmetryBreaking::compute(self.pattern))
    }

    /// Builds a plan for the forced matching order (or the natural order
    /// `0..n` when none was given), applying the selected optimizations
    /// and compression.
    pub fn build(&self) -> ExecutionPlan {
        let order = self
            .order
            .clone()
            .unwrap_or_else(|| (0..self.pattern.num_vertices()).collect());
        let sb = self.symmetry_or_default();
        let mut plan = raw_plan(self.pattern, &order, &sb);
        optimize(&mut plan, self.level);
        if self.compressed {
            compress(&mut plan);
        }
        plan
    }

    /// Runs the best-plan search (Algorithm 3) and returns the winning
    /// plan with compression applied if requested.
    ///
    /// A forced matching order (via [`PlanBuilder::matching_order`]) takes
    /// precedence: the search is skipped and [`PlanBuilder::build`]
    /// semantics apply.
    pub fn best_plan(&self) -> ExecutionPlan {
        if self.order.is_some() {
            return self.build();
        }
        let mut result = self.best_plan_result();
        if self.compressed {
            compress(&mut result.plan);
        }
        result.plan
    }

    /// Runs the best-plan search and returns the full result with cost
    /// estimates and search instrumentation (Table IV's α, β and timing).
    /// Always uncompressed; apply [`crate::vcbc::compress`] afterwards if
    /// needed.
    pub fn best_plan_result(&self) -> BestPlanResult {
        let mut result = best_plan(self.pattern, &self.estimator);
        if self.symmetry.is_some() || self.level != OptLevel::Opt3 {
            // Re-derive the plan under the overridden symmetry / level
            // with the winning order.
            let order = result.plan.matching_order.clone();
            let sb = self.symmetry_or_default();
            let mut plan = raw_plan(self.pattern, &order, &sb);
            optimize(&mut plan, self.level);
            result.plan = plan;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_pattern::queries;

    #[test]
    fn build_with_forced_order_respects_it() {
        let p = queries::demo_pattern();
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        assert_eq!(plan.matching_order, vec![0, 2, 4, 1, 5, 3]);
        plan.validate().unwrap();
    }

    #[test]
    fn best_plan_compressed_flag_applies() {
        let p = queries::q4();
        let plan = PlanBuilder::new(&p).compressed(true).best_plan();
        assert!(plan.compressed);
        plan.validate().unwrap();
    }

    #[test]
    fn raw_option_produces_unoptimized_plan() {
        use crate::ir::InstrKind;
        let p = queries::demo_pattern();
        let raw = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .optimizations(OptLevel::Raw)
            .build();
        assert_eq!(raw.count_kind(InstrKind::Trc), 0);
        assert_eq!(raw.instructions.len(), 18);
    }

    #[test]
    fn degree_moment_calibration_produces_valid_plans() {
        let g = benu_graph::gen::barabasi_albert(200, 4, 11);
        for (name, p) in queries::evaluation_queries() {
            let plan = PlanBuilder::new(&p).degree_moments(&g).best_plan();
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_pattern_rejected() {
        let p = Pattern::from_edges(4, &[(0, 1), (2, 3)]);
        PlanBuilder::new(&p);
    }

    #[test]
    fn no_symmetry_mode_drops_order_filters() {
        use crate::ir::{FilterOp, Instruction};
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p)
            .symmetry(SymmetryBreaking::none())
            .matching_order(vec![0, 1, 2])
            .build();
        for instr in &plan.instructions {
            if let Instruction::Intersect { filters, .. } = instr {
                assert!(filters.iter().all(|f| f.op == FilterOp::NotEqual));
            }
        }
    }
}
