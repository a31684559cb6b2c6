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

use crate::cost::{CardinalityEstimator, GraphStatsEstimator};
use crate::ir::ExecutionPlan;
use crate::optimize::OptLevel;
use crate::search::{best_plan, lower, BestPlanResult};
use crate::vcbc::compress;
use benu_pattern::{Pattern, PatternVertex, SymmetryBreaking};
use std::sync::Arc;

/// Fluent builder producing [`ExecutionPlan`]s.
#[derive(Clone, Debug)]
pub struct PlanBuilder<'a> {
    pattern: &'a Pattern,
    estimator: Arc<dyn CardinalityEstimator>,
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
            estimator: Arc::new(GraphStatsEstimator::generic()),
            level: OptLevel::Opt3,
            compressed: false,
            symmetry: None,
            order: None,
        }
    }

    /// Calibrates the cost model with the data graph's `N` and `M`
    /// (the paper's Erdős–Rényi model, [`GraphStatsEstimator`]).
    pub fn graph_stats(self, num_vertices: usize, num_edges: usize) -> Self {
        self.estimator(GraphStatsEstimator::new(num_vertices, num_edges))
    }

    /// Calibrates the cost model with any [`CardinalityEstimator`]: the
    /// degree-moment [`crate::ChungLuEstimator`] (usually a better fit
    /// for power-law graphs), or a [`crate::FeedbackEstimator`] built
    /// from a previous execution's observed cardinalities.
    pub fn estimator(mut self, estimator: impl CardinalityEstimator + 'static) -> Self {
        self.estimator = Arc::new(estimator);
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

    /// Compression, when it was asked for.
    fn finish(&self, mut plan: ExecutionPlan) -> ExecutionPlan {
        if self.compressed {
            compress(&mut plan);
        }
        plan
    }

    /// Builds a plan for the forced matching order (or the natural order
    /// `0..n` when none was given), applying the selected optimizations
    /// and compression.
    pub fn build(&self) -> ExecutionPlan {
        let order = self
            .order
            .clone()
            .unwrap_or_else(|| (0..self.pattern.num_vertices()).collect());
        let symmetry = self.symmetry_or_default();
        self.finish(lower(self.pattern, &order, &symmetry, self.level))
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
        self.finish(self.best_plan_result().plan)
    }

    /// Runs the best-plan search and returns the full result with cost
    /// estimates and search instrumentation (Table IV's α, β and timing).
    /// Always uncompressed; apply [`crate::vcbc::compress`] afterwards if
    /// needed.
    pub fn best_plan_result(&self) -> BestPlanResult {
        let symmetry = self.symmetry_or_default();
        best_plan(self.pattern, &*self.estimator, &symmetry, self.level)
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
        let moments = crate::ChungLuEstimator::from_graph(&g);
        for (name, p) in queries::evaluation_queries() {
            let plan = PlanBuilder::new(&p).estimator(moments.clone()).best_plan();
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// The catalogue, cliques 6–8 and 24 seeded random connected patterns
    /// on 7 and 8 vertices.
    fn corpus() -> Vec<Pattern> {
        let mut patterns: Vec<Pattern> = queries::catalogue().into_iter().map(|(_, q)| q).collect();
        patterns.extend((6..=8).map(queries::clique));
        for seed in 0..24u64 {
            let n = 7 + (seed % 2) as usize;
            let extra = 1 + (seed as usize * 5) % n;
            let shape = benu_graph::gen::random_connected(n, extra, seed);
            let edges: Vec<(usize, usize)> = shape
                .edges()
                .map(|(u, v)| (u as usize, v as usize))
                .collect();
            patterns.push(Pattern::from_edges(n, &edges));
        }
        patterns
    }

    #[test]
    fn graph_stats_and_estimator_are_two_doors_to_one_seam() {
        for (n, m) in [(4_000_000, 34_000_000), (60, 420)] {
            for (i, p) in corpus().iter().enumerate() {
                let stats = PlanBuilder::new(p).graph_stats(n, m).best_plan_result();
                let dynamic = PlanBuilder::new(p)
                    .estimator(GraphStatsEstimator::new(n, m))
                    .best_plan_result();
                assert_eq!(stats.plan, dynamic.plan, "pattern {i} at ({n}, {m})");
                assert_eq!(
                    (stats.stats.alpha, stats.stats.beta),
                    (dynamic.stats.alpha, dynamic.stats.beta),
                    "pattern {i} at ({n}, {m})"
                );
                assert_eq!(stats.comm_cost.to_bits(), dynamic.comm_cost.to_bits());
                assert_eq!(stats.comp_cost.to_bits(), dynamic.comp_cost.to_bits());
            }
        }
    }

    /// An override changes how the winning order is lowered, never which
    /// order wins: the rungs of the Fig. 7 ablation share one order, and
    /// raw (symmetry-free) enumeration walks the order the deduplicated
    /// one does.
    #[test]
    fn an_overridden_symmetry_or_level_keeps_the_winning_order() {
        for (i, p) in corpus().iter().enumerate() {
            let order = PlanBuilder::new(p).best_plan().matching_order;
            let overrides = OptLevel::LADDER
                .map(|level| PlanBuilder::new(p).optimizations(level))
                .into_iter()
                .chain([PlanBuilder::new(p).symmetry(SymmetryBreaking::none())]);
            for (j, builder) in overrides.enumerate() {
                let lowered = builder.clone().matching_order(order.clone()).build();
                assert_eq!(builder.best_plan(), lowered, "pattern {i}, override {j}");
            }
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
