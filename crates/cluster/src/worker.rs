//! The lane source and the lane executor.
//!
//! Algorithm 2 has one worker body: pull local search tasks, run the
//! plan against the cache-fronted store, report. [`LaneSource`] is that
//! body's read path — fault gate, database cache, transport, in that
//! order — and [`LaneExecutor`] its engine half — one engine bound to
//! one [`DataSource`], running slices of tasks in the configured
//! [`ExecMode`], and the one place an engine panic is caught. The loop
//! around the pair is [`crate::pool::lane_loop`], for every runtime,
//! and it is there that what either half could not absorb — a parked
//! [`FetchError`], a panicking engine — becomes a [`crate::Failure`].

use crate::config::ExecMode;
use crate::gate::FaultGate;
use crate::transport::{FetchError, Transport};
use benu_cache::{CacheStats, DbCache};
use benu_engine::{
    CollectingConsumer, CompiledPlan, CountingConsumer, DataSource, FrontierEngine, FrontierStats,
    LocalEngine, MatchConsumer, MatchSet, MemoryBudget, PoolStats, SearchTask, TaskMetrics,
};
use benu_graph::{AdjSet, TotalOrder, VertexId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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

/// What a [`LaneExecutor`]'s engine counted over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
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
}

impl std::ops::AddAssign for LaneStats {
    fn add_assign(&mut self, rhs: Self) {
        self.triangle_cache += rhs.triangle_cache;
        self.db_cache_hits += rhs.db_cache_hits;
        self.pool += rhs.pool;
        self.frontier += rhs.frontier;
    }
}

/// One execution lane: an engine bound to a data source, running slices
/// of search tasks in a fixed [`ExecMode`] and counting or collecting
/// their matches. The single place `(plan, source, tasks)` becomes
/// [`TaskMetrics`], and the one unwind boundary around the engine. The
/// engine is the frontier driver under both modes: under
/// [`ExecMode::Dfs`] it hands each task to the interpreter it wraps.
pub struct LaneExecutor<'a, S: DataSource + ?Sized> {
    engine: FrontierEngine<'a, S>,
    mode: ExecMode,
    counting: CountingConsumer,
    collecting: Option<CollectingConsumer<'a>>,
}

impl<'a, S: DataSource + ?Sized> LaneExecutor<'a, S> {
    /// Binds an engine to `source`. `budget` bounds the frontier under
    /// [`ExecMode::Hybrid`]; `collect` switches from counting matches to
    /// collecting them — a compressed plan's as codes, expanded only
    /// when they are handed over. The lane loop gets its executors from
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
            engine: FrontierEngine::new(engine, budget),
            mode,
            counting: CountingConsumer::default(),
            collecting: collect.then(|| CollectingConsumer::new(compiled, order)),
        }
    }

    /// How many tasks to hand [`LaneExecutor::run`] at a time: one under
    /// DFS (every task boundary is a point to stop at),
    /// `hybrid_batch` under hybrid execution (sibling tasks of a batch
    /// share their store reads).
    pub fn stride(&self, hybrid_batch: usize) -> usize {
        match self.mode {
            ExecMode::Dfs => 1,
            ExecMode::Hybrid => hybrid_batch.max(1),
        }
    }

    /// Runs `tasks` to completion — task by task under DFS, as one
    /// frontier batch under hybrid execution — and returns their summed
    /// metrics with the virtual latency (retry backoff, timeout waits,
    /// slow shards) their store traffic was charged on this thread.
    ///
    /// # Errors
    ///
    /// The task the engine panicked on (under hybrid execution: the head
    /// of the panicking batch); the executor must not run again
    /// afterwards ([`LaneExecutor::finish`] still reports what it
    /// counted).
    pub fn run(&mut self, tasks: &[SearchTask]) -> Result<(TaskMetrics, Duration), SearchTask> {
        let consumer: &mut dyn MatchConsumer = match &mut self.collecting {
            Some(collecting) => collecting,
            None => &mut self.counting,
        };
        let engine = &mut self.engine;
        let mut at = 0;
        let run = catch_unwind(AssertUnwindSafe(|| match self.mode {
            ExecMode::Dfs => {
                let mut metrics = TaskMetrics::default();
                for (i, &task) in tasks.iter().enumerate() {
                    at = i;
                    metrics += engine.run_task(task, consumer);
                }
                metrics
            }
            ExecMode::Hybrid => engine.run_batch(tasks, consumer),
        }));
        let penalty = FaultGate::take_task_penalty();
        match run {
            Ok(metrics) => Ok((metrics, penalty)),
            Err(_) => Err(tasks[at]),
        }
    }

    /// Takes the embeddings collected since the last hand-over, in
    /// engine order — a chunk's rows, for a job that hands over per
    /// chunk; a compressed plan's codes are expanded here, into a buffer
    /// of exactly their size. Empty when the executor is counting.
    pub fn take_rows(&mut self) -> MatchSet {
        self.collecting
            .as_mut()
            .map(CollectingConsumer::take_matches)
            .unwrap_or_default()
    }

    /// Forgets what was collected since the last hand-over without
    /// expanding it: the rows of a dropped or failed chunk.
    pub fn discard(&mut self) {
        if let Some(collecting) = &mut self.collecting {
            collecting.clear();
        }
    }

    /// Consumes the executor, returning its engine's counters and, when
    /// it was collecting, every embedding not yet taken — in one buffer
    /// of exactly their size, sorted in it here, on the lane's own
    /// thread, so sibling lanes expand and sort in parallel and whoever
    /// gathers them only merges.
    pub fn finish(self) -> (LaneStats, Option<MatchSet>) {
        let matches = self.collecting.map(|mut collecting| {
            let mut matches = collecting.take_matches();
            matches.sort();
            matches.shrink_to_fit();
            matches
        });
        let engine = &self.engine;
        let stats = LaneStats {
            triangle_cache: engine.triangle_cache_stats(),
            db_cache_hits: engine.adj_table_hits(),
            pool: engine.pool_stats(),
            frontier: engine.stats(),
        };
        (stats, matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;
    use benu_fault::{FaultKind, FaultPlan, RetryPolicy};
    use benu_graph::gen;
    use benu_kvstore::KvStore;

    fn harness(shards: usize) -> (Transport, DbCache) {
        let g = gen::complete(5);
        (
            Transport::new(Arc::new(KvStore::from_graph(&g, shards))),
            DbCache::new(1 << 16, 2),
        )
    }

    fn gate(store: &Arc<KvStore>, plan: FaultPlan) -> FaultGate {
        let _ = FaultGate::take_task_penalty();
        FaultGate::new(Arc::clone(store), Arc::new(plan))
    }

    #[test]
    fn missing_vertex_parks_the_error_and_returns_empty_set() {
        let (transport, cache) = harness(2);
        let source = LaneSource::new(&transport, &cache, None);
        assert!(source.get_adj(0).len() == 4 && source.error().is_none());
        assert!(source.get_adj(99).is_empty());
        let missing = FetchError::Missing {
            vertex: 99,
            shard: 1,
        };
        assert_eq!(source.error(), Some(missing));
        // First error wins; later accesses still serve.
        assert!(source
            .get_adj_batch(&[1, 77])
            .iter()
            .all(|adj| adj.is_empty()));
        assert_eq!(source.get_adj(1).len(), 4);
        assert_eq!(source.error(), Some(missing));
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
        let gate = gate(&store, FaultPlan::builder(12).transient_rate(0.4).build());
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
        let gate = gate(&store, FaultPlan::builder(0).shard_outage(0, 1).build());
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
    fn exhausted_gate_parks_unavailable() {
        let store = Arc::new(KvStore::from_graph(&gen::complete(5), 1));
        let gate = gate(
            &store,
            FaultPlan::builder(0)
                .transient_rate(0.995)
                .retry(RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                })
                .build(),
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
        let _ = FaultGate::take_task_penalty();
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
        let gate = gate(&store, FaultPlan::benign(0));
        let gated = LaneSource::new(&transport, &cache, Some(&gate));
        assert!(gated.get_adj_batch(&[0, 3])[1].is_empty());
        assert_eq!(gated.error(), Some(err));
        assert_eq!(gate.absorbed().retries, 0);
        // Healthy keys still serve.
        assert_eq!(gated.get_adj(0).len(), 2);
    }

    #[test]
    fn benign_gate_matches_the_ungated_source() {
        let g = gen::barabasi_albert(40, 3, 7);
        let store = Arc::new(KvStore::from_graph(&g, 2));
        let gate = gate(&store, FaultPlan::benign(0));
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
