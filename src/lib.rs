//! # BENU — Distributed Subgraph Enumeration with a Backtracking-Based Framework
//!
//! This crate is the facade of a from-scratch Rust reproduction of
//! *BENU: Distributed Subgraph Enumeration with Backtracking-based
//! Framework* (Wang et al., ICDE 2019). It re-exports the workspace crates
//! so downstream users need a single dependency:
//!
//! * [`graph`] — data graphs, sorted adjacency sets, set kernels, the
//!   degree-based total order `≺`, generators and IO.
//! * [`pattern`] — pattern graphs, automorphisms, symmetry breaking, and
//!   the q1–q9 query catalogue.
//! * [`plan`] — the BENU execution-plan compiler: raw generation,
//!   Optimizations 1–3, VCBC compression, cost estimation, and the
//!   best-plan search (Algorithm 3).
//! * [`kvstore`] — the sharded key-value store holding the data graph
//!   (the paper's HBase role).
//! * [`cache`] — the per-machine LRU database cache and per-thread
//!   triangle cache.
//! * [`engine`] — the backtracking interpreter executing compiled plans.
//! * [`fault`] — deterministic fault injection, decisions only: seeded
//!   fault plans (transient store errors, timeouts, slow shards, worker
//!   crashes, shard outages) and the retry policy recovery runs under.
//!   It knows no store; [`cluster::gate::FaultGate`] applies it to one.
//! * [`cluster`] — the simulated shared-nothing cluster. One
//!   [`cluster::Resident`] is the loaded deployment (sharded store,
//!   per-worker caches, total order, task split, fault gates), described
//!   by one [`cluster::DataPath`]; [`cluster::Cluster`] adds the batch
//!   runtime over it: scheduler, workers, fault recovery and metrics.
//! * [`service`] — the concurrent multi-query serving layer over the same
//!   [`cluster::Resident`]: one resident store shared by many queries,
//!   with one record per canonical pattern class (its compiled plan,
//!   summed results and observations), weighted fair scheduling, and
//!   deterministic per-query budgets.
//! * [`obs`] — structured observability: the unified [`obs::Report`]
//!   tree every layer's typed stats render into, and a counting
//!   allocator for heap measurements.
//! * [`baselines`] — join-based (CBF-style) and worst-case-optimal
//!   (BiGJoin-style) competitors.
//!
//! ## Quickstart
//!
//! ```
//! use benu::prelude::*;
//!
//! // A small data graph and the triangle pattern.
//! let g = benu::graph::gen::complete(5);
//! let pattern = benu::pattern::queries::triangle();
//!
//! // Compile the best execution plan and run it on a simulated cluster.
//! let plan = PlanBuilder::new(&pattern).best_plan();
//! let config = ClusterConfig::builder().workers(2).threads_per_worker(2).build();
//! let outcome = Cluster::new(&g, config).run(&plan).expect("run failed");
//! assert_eq!(outcome.total_matches, 10); // C(5,3) triangles in K5
//! ```
//!
//! ## Serving many queries at once
//!
//! Where [`cluster`] answers one query per run, [`service`] keeps the
//! store resident and admits concurrent queries, each with its own
//! result mode and budgets:
//!
//! ```
//! use benu::prelude::*;
//!
//! let g = benu::graph::gen::complete(6);
//! let service = QueryService::new(&g, ServiceConfig::default());
//!
//! // Two queries in flight at once: an exhaustive count and a
//! // budget-capped collection. The second triangle submission reuses
//! // the first's compiled plan: both are one canonical pattern class.
//! let count = service.submit(&benu::pattern::queries::triangle(), QueryOptions::new());
//! let capped = service.submit(
//!     &benu::pattern::queries::triangle(),
//!     QueryOptions::new().mode(ResultMode::TopK(5)),
//! );
//! assert_eq!(service.wait(count).matches_found, 20); // C(6,3) in K6
//! // `matches` is an [`engine::MatchSet`]: the embeddings as sorted rows
//! // of one flat buffer, read with `len()` / `rows()` / `get(i)`.
//! let capped = service.wait(capped).matches;
//! assert_eq!(capped.len(), 5);
//! assert!(capped.rows().all(|row| row.len() == 3));
//! assert_eq!(service.plan_cache_stats().hits, 1);
//! ```
//!
//! [`cluster::Cluster::run_collect`] returns the same type for a batch
//! run: every embedding, sorted, in one buffer.

pub use benu_baselines as baselines;
pub use benu_cache as cache;
pub use benu_cluster as cluster;
pub use benu_engine as engine;
pub use benu_fault as fault;
pub use benu_graph as graph;
pub use benu_kvstore as kvstore;
pub use benu_obs as obs;
pub use benu_pattern as pattern;
pub use benu_plan as plan;
pub use benu_service as service;

/// Convenience re-exports covering the common end-to-end workflow.
pub mod prelude {
    pub use benu_cluster::{Cause, Cluster, ClusterConfig, DataPath, Failure, RunOutcome};
    pub use benu_engine::{LocalEngine, MatchSet};
    pub use benu_fault::{FaultPlan, RetryPolicy};
    pub use benu_graph::{AdjSet, AdjView, Graph, GraphBuilder, TotalOrder, VertexId};
    pub use benu_kvstore::{CodecKind, KvStore};
    pub use benu_obs::{Report, ReportMode};
    pub use benu_pattern::{Pattern, PatternVertex};
    pub use benu_plan::{ExecutionPlan, PlanBuilder};
    pub use benu_service::{
        QueryOptions, QueryResult, QueryService, ResultMode, ServiceConfig, Terminal,
    };
}
