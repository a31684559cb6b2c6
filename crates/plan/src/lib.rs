//! BENU execution plans (paper §III-B, §IV).
//!
//! An execution plan is the compiled form of a backtracking search for one
//! pattern graph: a straight-line list of [`ir::Instruction`]s whose
//! `Foreach` instructions open nested enumeration levels. This crate is the
//! *compiler* for such plans:
//!
//! * [`generate`] — raw plan generation from a matching order (§IV-A),
//! * [`optimize`] — Optimization 1 (common-subexpression elimination),
//!   Optimization 2 (dependency-aware instruction reordering) and
//!   Optimization 3 (triangle-cache rewriting) (§IV-B),
//! * [`vcbc`] — VCBC output compression (§IV-B, "Support VCBC
//!   Compression"),
//! * [`cost`] — the pluggable cardinality estimator and plan cost model
//!   (§IV-C),
//! * [`feedback`] — per-instruction observed cardinalities and the
//!   feedback estimator that re-ranks plans from them,
//! * [`search`] — the best-plan search with dual and cost-based pruning
//!   (Algorithm 3, §IV-D),
//! * [`builder`] — the user-facing [`PlanBuilder`] API tying it together.

pub mod builder;
pub mod cost;
pub mod feedback;
pub mod generate;
pub mod ir;
pub mod optimize;
pub mod render;
pub mod search;
pub mod vcbc;

pub use builder::PlanBuilder;
pub use cost::{CardinalityEstimator, ChungLuEstimator, GraphStatsEstimator};
pub use feedback::{FeedbackEstimator, PlanObs, SlotObs, MAX_OBS_SLOTS};
pub use ir::{ExecutionPlan, FilterCond, FilterOp, Instruction, ResultItem, SetVar};
pub use search::{BestPlanResult, SearchStats};
