//! Serving-layer configuration.

use benu_cluster::{CodecKind, DataPath, ExecMode};
use benu_fault::FaultPlan;
use std::sync::Arc;

/// Shape and tuning of the query service. One service owns one
/// [`benu_cluster::Resident`] deployment: a sharded
/// [`benu_kvstore::KvStore`] plus one warm database cache per serving
/// worker, shared by every admitted query. Task splitting is not
/// configurable: every query's task list is split at the adaptive τ for
/// a fixed virtual lane count, so it is identical at any concurrency.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Serving worker threads. Each worker owns a persistent database
    /// cache (warm across queries) and one store transport, mirroring a
    /// machine of the batch cluster.
    pub workers: usize,
    /// The data plane, described exactly as the batch cluster describes
    /// it: cache capacity per worker, store replication and codec
    /// (fixed when the resident graph is loaded), and the execution mode
    /// and pool-wide frontier budget of every query. Builder setters
    /// forward into it.
    pub data: DataPath,
    /// Tasks per scheduling chunk — the pull, fairness and budget-commit
    /// granularity. A worker books at most one chunk before the fair
    /// queue may rotate to another query, and budgets are evaluated at
    /// chunk boundaries so committed results are independent of worker
    /// count.
    pub chunk_tasks: usize,
    /// Shard count of the resident store (0 = one shard per worker).
    /// Sharding is a property of the *deployment*, not of the local
    /// worker pool: injected fault decisions are keyed by `(shard,
    /// vertex)`, so pinning this makes failure outcomes — not just
    /// results — identical across worker counts.
    pub store_shards: usize,
    /// Deterministic fault injection for the serving data path. Each
    /// admitted query draws its own per-request decision stream
    /// ([`FaultPlan::scoped`] by query id) while structural faults —
    /// shard outages, slow shards, worker crashes — are shared, so the
    /// set of queries a given seed fails is reproducible regardless of
    /// thread timing or cache state. Every scope keeps the plan's retry
    /// policy. `None` serves faultlessly.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Admission cap on queries that are admitted but not yet terminal
    /// (0 = unbounded). A submission over the cap is shed with
    /// [`crate::Terminal::Rejected`] instead of queued.
    pub max_inflight_queries: usize,
    /// Admission cap on un-granted chunks across every admitted query
    /// (0 = unbounded). A submission whose chunks would push the queue
    /// past the cap is shed with [`crate::Terminal::Rejected`].
    pub max_queued_chunks: usize,
    /// Absorb unrecoverable shard outages instead of failing the query:
    /// chunks whose data is dark are skipped, every reachable chunk
    /// commits, and the query settles as
    /// [`crate::Terminal::DegradedPartial`] naming the dark shards.
    /// Off by default (an outage then fails the affected query).
    pub graceful_degradation: bool,
    /// Feedback-driven re-planning: record the per-instruction observed
    /// cardinalities of every exhaustively completed query in its
    /// pattern class's record, and recompile the class's plan with a
    /// [`benu_plan::FeedbackEstimator`] the next time the class is
    /// submitted. One recompilation per class; re-planning is a pure
    /// function of the recorded observation, so a sequential
    /// submit–wait–submit sequence is byte-deterministic. Off by
    /// default.
    pub feedback_replanning: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            data: DataPath::default(),
            chunk_tasks: benu_cluster::pool::CHUNK_TASKS,
            store_shards: 0,
            fault_plan: None,
            max_inflight_queries: 0,
            max_queued_chunks: 0,
            graceful_degradation: false,
            feedback_replanning: false,
        }
    }
}

impl ServiceConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder(ServiceConfig::default())
    }

    /// The store shard count this configuration resolves to.
    pub fn resolved_store_shards(&self) -> usize {
        if self.store_shards == 0 {
            self.workers
        } else {
            self.store_shards
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero workers or chunk size, or an invalid [`DataPath`]
    /// (replication factor outside `1..=store shards`).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.chunk_tasks >= 1, "need at least one task per chunk");
        self.data.validate(self.resolved_store_shards());
    }
}

/// Fluent builder for [`ServiceConfig`].
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder(ServiceConfig);

impl ServiceConfigBuilder {
    /// Serving worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n;
        self
    }

    /// Per-worker database-cache capacity in bytes.
    pub fn cache_capacity_bytes(mut self, n: usize) -> Self {
        self.0.data.cache_capacity_bytes = n;
        self
    }

    /// Execution mode of every query.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.0.data.exec_mode = mode;
        self
    }

    /// Frontier byte budget of the whole pool for hybrid execution,
    /// shared by its workers (`0` = unbounded).
    pub fn memory_budget_bytes(mut self, n: usize) -> Self {
        self.0.data.memory_budget_bytes = n;
        self
    }

    /// Tasks per scheduling chunk (pull/fairness/budget granularity).
    pub fn chunk_tasks(mut self, n: usize) -> Self {
        self.0.chunk_tasks = n;
        self
    }

    /// Shard count of the resident store (0 = one shard per worker).
    pub fn store_shards(mut self, n: usize) -> Self {
        self.0.store_shards = n;
        self
    }

    /// Store replication factor.
    pub fn replication(mut self, r: usize) -> Self {
        self.0.data.replication = r;
        self
    }

    /// Wire codec for stored adjacency values.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.0.data.codec = codec;
        self
    }

    /// Installs a deterministic fault plan on the serving data path.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.0.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Admission cap on non-terminal queries (0 = unbounded).
    pub fn max_inflight_queries(mut self, n: usize) -> Self {
        self.0.max_inflight_queries = n;
        self
    }

    /// Admission cap on queued chunks across queries (0 = unbounded).
    pub fn max_queued_chunks(mut self, n: usize) -> Self {
        self.0.max_queued_chunks = n;
        self
    }

    /// Absorb unrecoverable shard outages as degraded partial results.
    pub fn graceful_degradation(mut self, yes: bool) -> Self {
        self.0.graceful_degradation = yes;
        self
    }

    /// Re-plan repeat pattern classes from observed cardinalities.
    pub fn feedback_replanning(mut self, yes: bool) -> Self {
        self.0.feedback_replanning = yes;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ServiceConfig::validate`]).
    pub fn build(self) -> ServiceConfig {
        self.0.validate();
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_covers_every_field() {
        let plan = FaultPlan::builder(9).transient_rate(0.01).build();
        let data = DataPath {
            cache_capacity_bytes: 1 << 20,
            replication: 2,
            codec: CodecKind::DeltaVarint,
            exec_mode: ExecMode::Hybrid,
            memory_budget_bytes: 4 << 10,
        };
        let built = ServiceConfig::builder()
            .workers(3)
            .cache_capacity_bytes(data.cache_capacity_bytes)
            .exec_mode(data.exec_mode)
            .memory_budget_bytes(data.memory_budget_bytes)
            .chunk_tasks(16)
            .store_shards(4)
            .replication(data.replication)
            .codec(data.codec)
            .fault_plan(plan.clone())
            .max_inflight_queries(8)
            .max_queued_chunks(100)
            .graceful_degradation(true)
            .feedback_replanning(true)
            .build();
        let literal = ServiceConfig {
            workers: 3,
            data,
            chunk_tasks: 16,
            store_shards: 4,
            fault_plan: Some(Arc::new(plan)),
            max_inflight_queries: 8,
            max_queued_chunks: 100,
            graceful_degradation: true,
            feedback_replanning: true,
        };
        assert_eq!(built, literal, "every builder method must land");
        let d = DataPath::default();
        assert_ne!(data.cache_capacity_bytes, d.cache_capacity_bytes);
        assert_ne!(data.replication, d.replication);
        assert_ne!(data.codec, d.codec);
        assert_ne!(data.exec_mode, d.exec_mode);
        assert_ne!(data.memory_budget_bytes, d.memory_budget_bytes);
        // One data plane, two front doors: the same values set through
        // the batch cluster's builder describe the same `DataPath`.
        let batch = benu_cluster::ClusterConfig::builder()
            .cache_capacity_bytes(data.cache_capacity_bytes)
            .replication(data.replication)
            .codec(data.codec)
            .exec_mode(data.exec_mode)
            .memory_budget_bytes(data.memory_budget_bytes)
            .build();
        assert_eq!(batch.data, built.data);
    }

    #[test]
    #[should_panic(expected = "at least one task per chunk")]
    fn zero_chunk_is_rejected() {
        ServiceConfig::builder().chunk_tasks(0).build();
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn over_replication_is_rejected() {
        ServiceConfig::builder().workers(2).replication(3).build();
    }
}
