//! The lane source, the lane executor and the batch run's error type.
//!
//! Algorithm 2 has one worker body: pull local search tasks, run the
//! plan against the cache-fronted store, report. [`LaneSource`] is that
//! body's read path — fault gate, database cache, transport, in that
//! order — and [`LaneExecutor`] its engine half — one engine bound to
//! one [`DataSource`], running slices of tasks in the configured
//! [`ExecMode`], and the one place an engine panic is caught. The loop
//! around the pair is [`crate::pool::lane_loop`], for every runtime.
//!
//! Failures are structured — a vertex missing from the store, a store
//! shard that outlasts the retry policy, or a panicking task aborts a
//! batch run with a [`WorkerError`] carrying the task, shard and attempt
//! context instead of poisoning a thread join. Injected worker crashes
//! are *not* errors: the pool hands the dead machine's chunks to the
//! survivors.

use crate::config::ExecMode;
use crate::gate::FaultGate;
use crate::transport::{FetchError, Transport, TransportError};
use benu_cache::{CacheStats, DbCache};
use benu_engine::{
    CollectingConsumer, CompiledPlan, CountingConsumer, DataSource, FrontierEngine, FrontierStats,
    LocalEngine, MatchConsumer, MatchSet, MemoryBudget, PoolStats, SearchTask, TaskMetrics,
};
use benu_graph::{AdjSet, TotalOrder, VertexId};
use benu_kvstore::{CorruptValue, KvStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Renders the task context of an error: `task v3`, `task v3[2/5]`, or
/// `no task` for failures outside task execution.
struct TaskLabel(Option<SearchTask>);

impl std::fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(t) => {
                write!(f, "task v{}", t.start)?;
                if let Some(split) = t.split {
                    write!(f, "[{}/{}]", split.index + 1, split.total)?;
                }
                Ok(())
            }
            None => f.write_str("no task"),
        }
    }
}

/// Why a cluster run aborted. Every variant names the worker; task-level
/// failures additionally carry the task being executed, the shard
/// involved and the execution attempt (the run's crash epoch: 1, +1 per
/// machine whose chunks went back to the survivors), so a one-line log
/// message localises the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerError {
    /// A task queried a vertex the store does not hold — the data graph
    /// and the task list disagree (corrupted load or bad task input).
    MissingVertex {
        /// The worker that issued the query.
        worker: usize,
        /// The unknown vertex.
        vertex: VertexId,
        /// The shard that would own the vertex.
        shard: usize,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based; >1 means after a crash).
        attempt: u32,
    },
    /// A store request failed past every recovery the configuration
    /// offers: transient faults outlasted the retry policy, or a
    /// persistent shard outage darkened *every* replica of a placement
    /// group. With `replication >= 2` a whole-shard outage is absorbed
    /// by ring failover and never reaches this error — only total data
    /// loss (all `R` copies dark) aborts the run.
    StoreUnavailable {
        /// The worker that gave up.
        worker: usize,
        /// The exhausted request.
        error: TransportError,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A stored adjacency value failed to decode — the shard's data is
    /// rotten. Every replica mirrors the same bytes, so neither retries
    /// nor ring failover can recover; the run aborts like any other
    /// unrecoverable store fault, with the codec error as context.
    CorruptValue {
        /// The worker whose fetch hit the rotten value.
        worker: usize,
        /// The decode failure, naming vertex, shard and codec error.
        error: CorruptValue,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A task panicked inside the engine.
    TaskPanicked {
        /// The worker executing the task.
        worker: usize,
        /// The panicking task.
        task: SearchTask,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A worker thread died outside of task execution.
    ThreadPanicked {
        /// The worker whose thread died.
        worker: usize,
    },
    /// Every worker crashed with work still queued — nothing is left to
    /// re-execute it on.
    ClusterLost {
        /// Tasks that were awaiting re-execution.
        outstanding: usize,
    },
}

impl WorkerError {
    /// The error for a lane access of `worker` that failed while `task`
    /// (under hybrid execution: the batch `task` heads — a batch shares
    /// its store traffic, so a finer attribution does not exist) ran as
    /// execution `attempt`.
    pub(crate) fn from_fetch(
        error: FetchError,
        store: &KvStore,
        worker: usize,
        task: SearchTask,
        attempt: u32,
    ) -> Self {
        let task = Some(task);
        match error {
            FetchError::Missing(vertex) => WorkerError::MissingVertex {
                worker,
                vertex,
                shard: store.shard_of(vertex),
                task,
                attempt,
            },
            FetchError::Unavailable(error) => WorkerError::StoreUnavailable {
                worker,
                error,
                task,
                attempt,
            },
            FetchError::Corrupt(error) => WorkerError::CorruptValue {
                worker,
                error,
                task,
                attempt,
            },
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::MissingVertex {
                worker,
                vertex,
                shard,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: vertex {vertex} missing from the store \
                     (shard {shard}, {}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::StoreUnavailable {
                worker,
                error,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {error} ({}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::CorruptValue {
                worker,
                error,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {error} ({}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::TaskPanicked {
                worker,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {} panicked (attempt {attempt})",
                    TaskLabel(Some(*task))
                )
            }
            WorkerError::ThreadPanicked { worker } => {
                write!(f, "worker {worker}: thread panicked outside task execution")
            }
            WorkerError::ClusterLost { outstanding } => {
                write!(
                    f,
                    "every worker crashed with {outstanding} tasks outstanding"
                )
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// The engine's view of the data graph from inside one execution lane:
/// the fault gate's verdict first (when a fault plan is installed), then
/// the machine's database cache, then — on a miss — the [`Transport`],
/// reading the replica the verdict routed to. The one [`DataSource`]
/// every lane executes against.
///
/// Failures cannot surface through the infallible [`DataSource`]
/// signature, so the first one is parked here as the raw [`FetchError`]
/// and answered with an empty adjacency set, which unwinds the engine
/// cheaply; the lane loop checks [`LaneSource::error`] after each slice
/// of tasks and fails the chunk before the bogus empty result can be
/// observed as a match count.
pub struct LaneSource<'a> {
    transport: &'a Transport,
    cache: &'a DbCache,
    gate: Option<&'a FaultGate>,
    error: OnceLock<FetchError>,
}

impl<'a> LaneSource<'a> {
    /// A lane's read path over `cache` and `transport`, gated by `gate`
    /// when faults are being injected.
    pub fn new(transport: &'a Transport, cache: &'a DbCache, gate: Option<&'a FaultGate>) -> Self {
        LaneSource {
            transport,
            cache,
            gate,
            error: OnceLock::new(),
        }
    }

    /// The first access that failed, if any.
    pub fn error(&self) -> Option<FetchError> {
        self.error.get().copied()
    }

    /// Parks `error` if it is the first and degrades to an empty set.
    fn failed(&self, error: FetchError) -> Arc<AdjSet> {
        let _ = self.error.set(error);
        Arc::new(AdjSet::new())
    }
}

impl DataSource for LaneSource<'_> {
    fn num_vertices(&self) -> usize {
        self.transport.store().num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
        let fetched = match self.gate {
            None => self.transport.fetch_through(self.cache, v, 0),
            Some(gate) => gate
                .verdict(v)
                .map_err(FetchError::from)
                .and_then(|replica| self.transport.fetch_through(self.cache, v, replica)),
        };
        fetched.unwrap_or_else(|error| self.failed(error))
    }

    fn get_adj_batch(&self, vs: &[VertexId]) -> Vec<Arc<AdjSet>> {
        let fetched = match self.gate {
            None => self.transport.fetch_many_through(self.cache, vs, |_| 0),
            Some(gate) => gate
                .verdict_many(vs)
                .map_err(FetchError::from)
                .and_then(|route| {
                    self.transport
                        .fetch_many_through(self.cache, vs, |primary| route[primary])
                }),
        };
        fetched.unwrap_or_else(|error| vec![self.failed(error); vs.len()])
    }

    fn residency_epoch(&self) -> u64 {
        self.cache.residency_epoch()
    }
}

/// A task that panicked inside the engine (under hybrid execution: the
/// head of the panicking batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskPanicked(pub SearchTask);

/// What a [`LaneExecutor`]'s engine accumulated over its lifetime.
#[derive(Default)]
pub struct LaneStats {
    /// The engine's private triangle-cache counters.
    pub triangle_cache: CacheStats,
    /// DBQs the engine answered from the adjacency sets its running task
    /// already held: hits of the database-cache tier the shared
    /// [`DbCache`] never saw, added to that tier's count by the caller.
    pub db_cache_hits: u64,
    /// The engine's buffer-pool counters.
    pub pool: PoolStats,
    /// Frontier counters (all zero under [`ExecMode::Dfs`]).
    pub frontier: FrontierStats,
    /// Every collected embedding, sorted, when the executor was
    /// collecting.
    pub matches: Option<MatchSet>,
}

enum LaneEngine<'a, S: DataSource + ?Sized> {
    Dfs(LocalEngine<'a, S>),
    Hybrid(FrontierEngine<'a, S>),
}

/// One execution lane: an engine bound to a data source, running slices
/// of search tasks in a fixed [`ExecMode`] and counting or collecting
/// their matches. The single place `(plan, source, tasks)` becomes
/// [`TaskMetrics`], and the one unwind boundary around the engine.
pub struct LaneExecutor<'a, S: DataSource + ?Sized> {
    engine: LaneEngine<'a, S>,
    counting: CountingConsumer,
    collecting: Option<CollectingConsumer>,
}

impl<'a, S: DataSource + ?Sized> LaneExecutor<'a, S> {
    /// Binds an engine to `source`. `budget` bounds the frontier under
    /// [`ExecMode::Hybrid`]; `collect` switches from counting matches to
    /// materialising them. The lane loop gets its executors from
    /// [`crate::Resident::executor`], which supplies the order, the mode
    /// and the lane's share of the budget.
    pub fn new(
        compiled: &'a CompiledPlan,
        source: &'a S,
        order: &'a TotalOrder,
        triangle_cache_entries: usize,
        mode: ExecMode,
        budget: MemoryBudget,
        collect: bool,
    ) -> Self {
        let engine =
            LocalEngine::with_triangle_cache(compiled, source, order, triangle_cache_entries);
        // Virtual latency an earlier occupant left on this thread is
        // not this lane's.
        let _ = FaultGate::take_task_penalty();
        LaneExecutor {
            engine: match mode {
                ExecMode::Dfs => LaneEngine::Dfs(engine),
                ExecMode::Hybrid => LaneEngine::Hybrid(FrontierEngine::new(engine, budget)),
            },
            counting: CountingConsumer::default(),
            collecting: collect.then(CollectingConsumer::default),
        }
    }

    /// How many tasks to hand [`LaneExecutor::run`] at a time: one under
    /// DFS (every task boundary is a point to stop at),
    /// `hybrid_batch` under hybrid execution (sibling tasks of a batch
    /// share their store reads).
    pub fn stride(&self, hybrid_batch: usize) -> usize {
        match self.engine {
            LaneEngine::Dfs(_) => 1,
            LaneEngine::Hybrid(_) => hybrid_batch.max(1),
        }
    }

    /// Runs `tasks` to completion — task by task under DFS, as one
    /// frontier batch under hybrid execution — and returns their summed
    /// metrics with the virtual latency (retry backoff, timeout waits,
    /// slow shards) their store traffic was charged on this thread.
    ///
    /// # Errors
    ///
    /// [`TaskPanicked`] when the engine panicked; the executor must not
    /// run again afterwards ([`LaneExecutor::finish`] still reports what
    /// it counted).
    pub fn run(&mut self, tasks: &[SearchTask]) -> Result<(TaskMetrics, Duration), TaskPanicked> {
        let consumer: &mut dyn MatchConsumer = match &mut self.collecting {
            Some(collecting) => collecting,
            None => &mut self.counting,
        };
        let engine = &mut self.engine;
        let mut at = 0;
        let run = catch_unwind(AssertUnwindSafe(|| match engine {
            LaneEngine::Dfs(engine) => {
                let mut metrics = TaskMetrics::default();
                for (i, &task) in tasks.iter().enumerate() {
                    at = i;
                    metrics += engine.run_task(task, consumer);
                }
                metrics
            }
            LaneEngine::Hybrid(frontier) => frontier.run_batch(tasks, consumer),
        }));
        let penalty = FaultGate::take_task_penalty();
        match run {
            Ok(metrics) => Ok((metrics, penalty)),
            Err(_) => Err(TaskPanicked(tasks[at])),
        }
    }

    /// Takes the embeddings collected since the last call, in engine
    /// order — a chunk's rows, for a job that hands over per chunk.
    /// Empty when the executor is counting.
    pub fn take_rows(&mut self) -> MatchSet {
        self.collecting
            .as_mut()
            .map(|collecting| std::mem::take(collecting).into_matches())
            .unwrap_or_default()
    }

    /// Consumes the executor, returning its engine's counters and the
    /// collected matches — sorted here, on the lane's own thread, so
    /// sibling lanes sort in parallel and whoever gathers them only
    /// merges.
    pub fn finish(self) -> LaneStats {
        let matches = self.collecting.map(|collecting| {
            let mut matches = collecting.into_matches();
            matches.sort();
            matches
        });
        match self.engine {
            LaneEngine::Dfs(engine) => LaneStats {
                triangle_cache: engine.triangle_cache_stats(),
                db_cache_hits: engine.adj_table_hits(),
                pool: engine.pool_stats(),
                frontier: FrontierStats::default(),
                matches,
            },
            LaneEngine::Hybrid(frontier) => LaneStats {
                triangle_cache: frontier.triangle_cache_stats(),
                db_cache_hits: frontier.adj_table_hits(),
                pool: frontier.pool_stats(),
                frontier: frontier.stats(),
                matches,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::SplitSpec;
    use benu_fault::{FaultKind, FaultPlan, RetryPolicy};
    use benu_graph::gen;

    fn harness(shards: usize) -> (Transport, DbCache) {
        let g = gen::complete(5);
        (
            Transport::new(Arc::new(KvStore::from_graph(&g, shards))),
            DbCache::new(1 << 16, 2),
        )
    }

    fn gate(store: &Arc<KvStore>, plan: FaultPlan, retry: RetryPolicy) -> FaultGate {
        let _ = FaultGate::take_task_penalty();
        FaultGate::new(Arc::clone(store), Arc::new(plan), retry)
    }

    #[test]
    fn missing_vertex_parks_the_error_and_returns_empty_set() {
        let (transport, cache) = harness(2);
        let source = LaneSource::new(&transport, &cache, None);
        assert!(source.get_adj(0).len() == 4 && source.error().is_none());
        assert!(source.get_adj(99).is_empty());
        assert_eq!(source.error(), Some(FetchError::Missing(99)));
        // First error wins; later accesses still serve.
        assert!(source
            .get_adj_batch(&[1, 77])
            .iter()
            .all(|adj| adj.is_empty()));
        assert_eq!(source.get_adj(1).len(), 4);
        assert_eq!(source.error(), Some(FetchError::Missing(99)));
    }

    #[test]
    fn fetch_errors_carry_worker_task_and_attempt_context() {
        let (transport, _) = harness(2);
        let task = SearchTask {
            start: 3,
            split: Some(SplitSpec { index: 1, total: 5 }),
        };
        assert_eq!(
            WorkerError::from_fetch(FetchError::Missing(99), transport.store(), 3, task, 2),
            WorkerError::MissingVertex {
                worker: 3,
                vertex: 99,
                shard: 1,
                task: Some(task),
                attempt: 2,
            }
        );
    }

    #[test]
    fn batch_lookup_serves_cache_hits_without_round_trips() {
        let (transport, cache) = harness(2);
        let source = LaneSource::new(&transport, &cache, None);
        source.get_adj(0);
        let before = transport.requests();
        let sets = source.get_adj_batch(&[0, 1, 2]);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 4);
        // Vertex 0 was cached; 1 and 2 arrive via one batched trip each
        // shard (1 on shard 1, 2 on shard 0 → 2 round trips).
        assert_eq!(transport.requests() - before, 2);
        assert_eq!(transport.batch_round_trips(), 2);
    }

    #[test]
    fn gated_source_retries_to_success_and_reconciles_with_the_store() {
        let store = Arc::new(KvStore::from_graph(&gen::complete(16), 4));
        let gate = gate(
            &store,
            FaultPlan::builder(12).transient_rate(0.4).build(),
            RetryPolicy::default(),
        );
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(0, 2);
        let source = LaneSource::new(&transport, &cache, Some(&gate));
        for v in 0..16u32 {
            assert_eq!(source.get_adj(v).len(), 15);
        }
        assert_eq!(source.error(), None);
        let absorbed = gate.absorbed();
        assert!(
            absorbed.transient_faults > 0,
            "rate 0.4 over 16 gets must fault"
        );
        assert_eq!(absorbed.retries, absorbed.transient_faults);
        assert!(absorbed.backoff_virtual > Duration::ZERO);
        assert_eq!(
            FaultGate::take_task_penalty(),
            absorbed.backoff_virtual,
            "backoff is charged to the calling thread"
        );
        // Accounting still reconciles: refused attempts never reached
        // the store.
        assert_eq!(transport.bytes(), store.stats().bytes);
        assert_eq!(transport.requests(), store.stats().requests);
        assert_eq!(transport.requests(), 16);
    }

    #[test]
    fn gated_source_rides_out_a_shard_outage_on_the_mirror() {
        let store = Arc::new(KvStore::from_graph_replicated(&gen::complete(16), 4, 2));
        let gate = gate(
            &store,
            FaultPlan::builder(0).shard_outage(0, 1).build(),
            RetryPolicy::default(),
        );
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(0, 2);
        let source = LaneSource::new(&transport, &cache, Some(&gate));
        for v in 0..16u32 {
            assert_eq!(source.get_adj(v).len(), 15);
        }
        let absorbed = gate.absorbed();
        assert_eq!(
            absorbed.retries, 0,
            "failover happens before the retry budget"
        );
        assert_eq!(absorbed.transient_faults, 0);
        assert!(absorbed.failovers > 0);
        assert_eq!(
            absorbed.failover_reads, 4,
            "the four shard-0 vertices are served by the mirror"
        );
        // Accounting reconciles: every serving round trip is real, and
        // the miss path read the replica the verdict routed to.
        assert_eq!(transport.bytes(), store.stats().bytes);
        assert_eq!(transport.requests(), store.stats().requests);
        assert_eq!(store.shard_stats(0).requests, 0, "the dark shard is silent");
        // Batches too: {0, 4} fail over to shard 1, which also serves 1.
        let before = transport.requests();
        assert_eq!(source.get_adj_batch(&[0, 4, 1, 2]).len(), 4);
        assert_eq!(transport.requests() - before, 2, "serving shards {{1, 2}}");
        assert_eq!(store.shard_stats(0).requests, 0);
        assert_eq!(source.error(), None);
    }

    #[test]
    fn exhausted_gate_parks_unavailable_and_maps_with_context() {
        let store = Arc::new(KvStore::from_graph(&gen::complete(5), 1));
        let gate = gate(
            &store,
            FaultPlan::builder(0).transient_rate(0.995).build(),
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
        );
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(0, 2);
        let source = LaneSource::new(&transport, &cache, Some(&gate));
        let v = (0..5)
            .find(|&v| source.get_adj(v).is_empty())
            .expect("rate 0.995 with 2 attempts must exhaust somewhere");
        let error = TransportError {
            shard: 0,
            vertex: v,
            attempts: 2,
            kind: FaultKind::Transient,
        };
        assert_eq!(source.error(), Some(FetchError::Unavailable(error)));
        assert!(error.to_string().contains("after 2 attempts"));
        let task = SearchTask::whole(4);
        assert_eq!(
            WorkerError::from_fetch(source.error().unwrap(), &store, 1, task, 1),
            WorkerError::StoreUnavailable {
                worker: 1,
                error,
                task: Some(task),
                attempt: 1,
            }
        );
        let _ = FaultGate::take_task_penalty();
    }

    #[test]
    fn worker_error_displays_context() {
        let e = WorkerError::MissingVertex {
            worker: 2,
            vertex: 7,
            shard: 1,
            task: Some(SearchTask::whole(7)),
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 2: vertex 7 missing from the store (shard 1, task v7, attempt 1)"
        );
        let e = WorkerError::TaskPanicked {
            worker: 0,
            task: SearchTask {
                start: 3,
                split: Some(SplitSpec { index: 1, total: 5 }),
            },
            attempt: 2,
        };
        assert_eq!(e.to_string(), "worker 0: task v3[2/5] panicked (attempt 2)");
        let e = WorkerError::StoreUnavailable {
            worker: 4,
            error: TransportError {
                shard: 3,
                vertex: 9,
                attempts: 8,
                kind: FaultKind::Timeout,
            },
            task: None,
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 4: shard 3 unavailable for vertex 9 after 8 attempts (no task, attempt 1)"
        );
        let e = WorkerError::CorruptValue {
            worker: 1,
            error: CorruptValue {
                vertex: 5,
                shard: 2,
                error: benu_kvstore::CodecError::Truncated,
            },
            task: Some(SearchTask::whole(5)),
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 1: corrupt value for vertex 5 on shard 2: truncated payload \
             (task v5, attempt 1)"
        );
        let e = WorkerError::ClusterLost { outstanding: 12 };
        assert_eq!(
            e.to_string(),
            "every worker crashed with 12 tasks outstanding"
        );
    }

    #[test]
    fn corrupt_values_fail_fast_without_touching_the_retry_budget() {
        let g = gen::cycle(6);
        let mut store = KvStore::from_graph_replicated(&g, 2, 2);
        assert!(store.corrupt_value(3));
        let store = Arc::new(store);
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(1 << 16, 2);
        // Ungated: a structured error, not a panic, and an empty set.
        let plain = LaneSource::new(&transport, &cache, None);
        assert!(plain.get_adj(3).is_empty(), "corrupt fetch degrades");
        let err = plain.error().expect("decode failure is parked");
        assert!(matches!(err, FetchError::Corrupt(corrupt) if corrupt.vertex == 3));
        assert!(err.to_string().contains("corrupt value for vertex 3"));
        // Gated: corruption never burns retry budget — every replica
        // mirrors the same bytes, so retrying cannot help.
        let gate = gate(&store, FaultPlan::benign(0), RetryPolicy::default());
        let gated = LaneSource::new(&transport, &cache, Some(&gate));
        assert!(gated.get_adj_batch(&[0, 3])[1].is_empty());
        assert_eq!(gated.error(), Some(err));
        assert_eq!(gate.absorbed().retries, 0);
        // Healthy keys still serve, and the mapping keeps the context.
        assert_eq!(gated.get_adj(0).len(), 2);
        let task = SearchTask::whole(2);
        match WorkerError::from_fetch(err, &store, 4, task, 1) {
            WorkerError::CorruptValue {
                worker: 4,
                error,
                task: Some(named),
                attempt: 1,
            } => assert_eq!((error.vertex, named), (3, task)),
            other => panic!("expected CorruptValue, got {other:?}"),
        }
    }

    #[test]
    fn benign_gate_matches_the_ungated_source() {
        let g = gen::barabasi_albert(40, 3, 7);
        let store = Arc::new(KvStore::from_graph(&g, 2));
        let gate = gate(&store, FaultPlan::benign(0), RetryPolicy::default());
        let (plain_t, gated_t) = (
            Transport::new(Arc::clone(&store)),
            Transport::new(Arc::clone(&store)),
        );
        let (plain_c, gated_c) = (DbCache::new(1 << 16, 2), DbCache::new(1 << 16, 2));
        let plain = LaneSource::new(&plain_t, &plain_c, None);
        let gated = LaneSource::new(&gated_t, &gated_c, Some(&gate));
        for v in 0..41u32 {
            assert_eq!(plain.get_adj(v), gated.get_adj(v));
        }
        assert_eq!(plain.error(), gated.error(), "40 is missing from both");
        assert_eq!(plain_t.bytes(), gated_t.bytes());
        assert!(gate.absorbed().is_clean());
        assert_eq!(FaultGate::take_task_penalty(), Duration::ZERO);
    }
}
