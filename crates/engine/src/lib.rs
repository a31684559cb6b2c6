//! The BENU execution engine.
//!
//! A [`LocalEngine`] interprets a compiled execution plan for one *local
//! search task* at a time (paper Algorithm 2, lines 4–8): it maps the
//! task's start vertex to the first pattern vertex and drives the
//! backtracking search, querying adjacency sets through a [`DataSource`]
//! (typically the distributed store fronted by the per-machine database
//! cache) and reporting matches or VCBC-compressed codes to a
//! [`MatchConsumer`].
//!
//! Modules:
//!
//! * [`compile`] — lowers an [`benu_plan::ExecutionPlan`] into a dense
//!   register machine.
//! * [`exec`] — the backtracking interpreter with its failure-pruning
//!   (empty candidate set ⇒ immediate backtrack).
//! * [`source`] — data sources: an in-memory graph and the KV-store +
//!   DB-cache stack of the paper's architecture.
//! * [`consumer`] — match consumers (counting, collecting, callbacks).
//! * [`mod@matches`] — [`MatchSet`], collected embeddings as rows of one
//!   buffer.
//! * [`frontier`] — the memory-bounded BFS/DFS hybrid driver with
//!   frontier-batched store reads.
//! * [`expand`] — VCBC code expansion and embedding counting.
//! * [`task`] — local search tasks and the task-splitting arithmetic
//!   (§V-B).
//! * [`mod@reference`] — an independent brute-force enumerator used to verify
//!   every other component.

pub mod compile;
pub mod consumer;
pub mod exec;
pub mod expand;
pub mod frontier;
pub mod matches;
pub mod reference;
pub mod source;
pub mod task;

pub use compile::CompiledPlan;
pub use consumer::{Code, CollectingConsumer, CountingConsumer, FnConsumer, MatchConsumer};
pub use exec::{LocalEngine, PoolStats, TaskMetrics};
pub use frontier::{FrontierEngine, FrontierStats, MemoryBudget};
pub use matches::MatchSet;
pub use source::{DataSource, InMemorySource, KvSource};
pub use task::{SearchTask, SplitSpec};

use benu_graph::{Graph, TotalOrder};
use benu_plan::ExecutionPlan;

/// Convenience: counts all embeddings of `plan` in `g` on a single thread
/// with an in-memory source. The workhorse of tests and examples.
pub fn count_embeddings(plan: &ExecutionPlan, g: &Graph) -> u64 {
    let compiled = CompiledPlan::compile(plan);
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let mut engine = LocalEngine::new(&compiled, &source, &order);
    let mut consumer = CountingConsumer::default();
    let metrics = engine.run_all_vertices(&mut consumer);
    metrics.matches
}

/// Convenience: counts embeddings of a *labeled* plan in `g` where
/// `data_labels[v]` is the label of data vertex `v` (property-graph
/// extension).
pub fn count_labeled_embeddings(plan: &ExecutionPlan, g: &Graph, data_labels: &[u32]) -> u64 {
    let compiled = CompiledPlan::compile(plan);
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let mut engine = LocalEngine::new(&compiled, &source, &order).with_data_labels(data_labels);
    let mut consumer = CountingConsumer::default();
    engine.run_all_vertices(&mut consumer).matches
}

/// Convenience: collects all embeddings of `plan` in `g`, sorted, each
/// row indexed by pattern vertex.
pub fn collect_embeddings(plan: &ExecutionPlan, g: &Graph) -> MatchSet {
    let compiled = CompiledPlan::compile(plan);
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let mut engine = LocalEngine::new(&compiled, &source, &order);
    let mut consumer = CollectingConsumer::new(&compiled, &order);
    engine.run_all_vertices(&mut consumer);
    let mut out = consumer.take_matches();
    out.sort();
    out
}
