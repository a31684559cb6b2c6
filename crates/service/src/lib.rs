//! benu-service: a concurrent multi-query serving layer over the BENU
//! runtime.
//!
//! The batch layers (`benu-cluster`) answer one query per run. This
//! crate adds the session front end a serving deployment needs: one
//! [`benu_cluster::Resident`] data graph — sharded
//! [`benu_kvstore::KvStore`] plus warm per-worker
//! [`benu_cache::DbCache`]s, loaded and described ([`DataPath`]) exactly
//! as the batch cluster's — shared by many concurrent pattern queries,
//! each submitted with its own result mode, fair-share weight and
//! budgets.
//!
//! The moving parts:
//!
//! * **Admission & the class table** ([`QueryService::submit`]): each
//!   pattern resolves to its class — every relabeling or automorphic
//!   image of one canonical pattern ([`benu_pattern::canonical`]) — whose
//!   one record holds the compiled plan ([`CachedPlan`], resident for
//!   the 32 classes used most recently, counted by [`PlanCacheStats`]),
//!   the summed results of its queries and, with feedback re-planning
//!   on, their observed cardinalities. A served class skips plan search
//!   and compilation.
//! * **One runtime** ([`benu_cluster::pool`]): an admitted query is a
//!   job on the same lane pool a batch `Cluster::run` uses; the service's
//!   workers are its lanes. Work is granted in bounded *chunks* through
//!   a weighted round-robin over admitted queries (cross-query
//!   fairness); within a query, the next chunk in task order goes to
//!   whichever worker asks first.
//! * **Deterministic budgets** (`commit`): deadlines (in virtual
//!   ticks), match caps, `TopK` and seeded `Sample` modes are enforced
//!   as early termination — evaluated at in-order chunk-commit
//!   boundaries, so results and terminal statuses are identical at any
//!   concurrency and execution mode.
//! * **Delivery once**: [`QueryService::wait`] hands a query's result
//!   over and the service forgets the query; a settled query nobody has
//!   waited on yet holds only its result. What the service keeps of
//!   served queries is its class's record, so its memory grows with the
//!   classes served, not the queries.
//! * **Observability**: lifecycle counts, plan-cache stats, per-class
//!   sums and (in `Full` mode) what the lanes counted, all in
//!   [`QueryService::report`].
//! * **Resilience** (`admission`, [`benu_cluster::failure`]): with a
//!   seeded [`benu_fault::FaultPlan`] installed, every request-path
//!   failure settles exactly one query with the [`Failure`] its lane
//!   built — the same value a batch `Cluster::run` returns as `Err` —
//!   retry with virtual backoff and replica failover first, then
//!   [`Terminal::Failed`], or [`Terminal::DegradedPartial`] when
//!   [`ServiceConfig`] opts into absorbing shard outages. A crashed
//!   serving worker's un-handed-over chunk goes back to the survivors
//!   with byte-identical results. Admission control sheds work over the
//!   configured backlog caps as [`Terminal::Rejected`] before anything
//!   executes. Nothing on the request path panics.
//!
//! ```
//! use benu_graph::gen;
//! use benu_pattern::queries;
//! use benu_service::{QueryOptions, QueryService, ResultMode, ServiceConfig};
//!
//! let g = gen::complete(6);
//! let service = QueryService::new(&g, ServiceConfig::default());
//! // Two queries in flight at once; the second hits its class's plan
//! // (any relabeled triangle is the same canonical pattern).
//! let a = service.submit(&queries::triangle(), QueryOptions::new());
//! let b = service.submit(
//!     &queries::triangle(),
//!     QueryOptions::new().mode(ResultMode::Collect),
//! );
//! assert_eq!(service.wait(a).matches_found, 20);
//! assert_eq!(service.wait(b).matches.len(), 20);
//! assert_eq!(service.plan_cache_stats().hits, 1);
//! ```

#![warn(missing_docs)]

mod admission;
mod commit;
mod config;
mod lifecycle;
mod query;
mod service;

pub use benu_cluster::{Cause, CodecKind, DataPath, Failure};
pub use benu_engine::MatchSet;
pub use benu_fault::{FaultPlan, FaultPlanBuilder, RetryPolicy};
pub use config::{ServiceConfig, ServiceConfigBuilder};
pub use query::{QueryId, QueryOptions, QueryResult, QueryStatus, ResultMode, Terminal};
pub use service::{CachedPlan, PlanCacheStats, QueryService, AUTO_TAU_VIRTUAL_LANES};
