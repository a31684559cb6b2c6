//! The traced pass: where the time goes, layer by layer.
//!
//! Each batch workload is driven through a single-threaded staged
//! pipeline assembled from the same public pieces a cluster worker
//! uses — `PlanBuilder::best_plan_result` → `CompiledPlan::compile` →
//! `task::generate_tasks` → `LocalEngine::run_task` (or
//! `FrontierEngine::run_batch`) — over a [`TracedSource`] that wraps
//! `KvSource::new(store, cache)`, times every `get_adj` /
//! `get_adj_batch` call and records its keys. Spans are recorded from
//! here, around the calls into each layer; nothing inside the program
//! is instrumented. The recorded key trace is then replayed against
//! each lower layer in isolation (a fresh `DbCache`, `KvStore::get` /
//! `get_many` over the misses, `codec::decode_into` over the same
//! misses), so a layer's cost is known apart from its callers.
//!
//! Layer = crate; a metric's prefix names the crate it measures.

use crate::e2e;
use crate::inputs::{self, Batch, RunParams, ServeMix, SERVE_HEAVY, THREADS};
use crate::json::{self, Value};
use crate::{alloc, median, quantile, ratio, PassResult};
use benu_cache::DbCache;
use benu_cluster::{Cluster, ClusterConfig, ExecMode};
use benu_engine::task::generate_tasks;
use benu_engine::{
    CompiledPlan, CountingConsumer, DataSource, FrontierEngine, FrontierStats, InMemorySource,
    KvSource, LocalEngine, MemoryBudget, PoolStats, SearchTask, TaskMetrics,
};
use benu_graph::gen::chung_lu_power_law;
use benu_graph::view::{self, AdjView, GraphViews};
use benu_graph::{ops, AdjSet, Graph, TotalOrder, VertexId, DENSE_BLOCK_THRESHOLD};
use benu_kvstore::{codec, KvStore};
use benu_pattern::Pattern;
use benu_plan::PlanBuilder;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric, with its unit. A pass reports all of them;
/// a metric that does not apply to a workload reads 0.
pub const METRICS: &[(&str, &str)] = &[
    ("ledger.matches", "count"),
    ("pattern.canonical_us", "us"),
    ("plan.search_ms", "ms"),
    ("plan.alpha", "count"),
    ("plan.beta", "count"),
    ("engine.compile_us", "us"),
    ("engine.taskgen_ms", "ms"),
    ("engine.tasks", "count"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.inmem_s", "s"),
    ("engine.dbq_executions", "count"),
    ("engine.int_executions", "count"),
    ("engine.trc_executions", "count"),
    ("engine.enu_candidates", "count"),
    ("engine.tri_cache_hit_rate", "ratio"),
    ("engine.pool_hit_rate", "ratio"),
    ("engine.allocs_per_task", "count"),
    ("engine.frontier_expansions", "count"),
    ("engine.spill_events", "count"),
    ("engine.peak_frontier_bytes", "B"),
    ("engine.dispatch_share", "ratio"),
    ("engine.codes", "count"),
    ("engine.code_bytes", "B"),
    ("engine.light_inmem_ms", "ms"),
    ("graph.kernel_floor_s", "s"),
    ("graph.intersect_pairs_per_s", "1/s"),
    ("graph.block_intersect_pairs_per_s", "1/s"),
    ("source.get_s", "s"),
    ("source.calls", "count"),
    ("source.keys", "count"),
    ("cache.replay_s", "s"),
    ("cache.probe_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("kvstore.get_s", "s"),
    ("kvstore.requests", "count"),
    ("kvstore.keys", "count"),
    ("kvstore.round_trips", "count"),
    ("kvstore.bytes", "B"),
    ("kvstore.decode_s", "s"),
    ("kvstore.decode_mb_per_s", "MB/s"),
    ("kvstore.stored_bytes_per_edge", "B"),
    ("kvstore.load_s", "s"),
    ("ledger.residual_share", "ratio"),
    ("cluster.run_1x1_s", "s"),
    ("cluster.overhead_s", "s"),
    ("cluster.speedup_2t", "ratio"),
    ("cluster.idle_share", "ratio"),
    ("cluster.work_imbalance", "ratio"),
    ("cluster.steals", "count"),
    ("cluster.comm_mb", "MB"),
    ("cluster.collect_s", "s"),
    ("service.submit_hit_ms", "ms"),
    ("service.submit_miss_ms", "ms"),
    ("service.notify_lag_ms", "ms"),
    ("service.light_p50_ms", "ms"),
    ("service.heavy_p50_ms", "ms"),
    ("service.solo_p95_ms", "ms"),
    ("service.loaded_p95_ms", "ms"),
    ("service.plan_cache_hit_rate", "ratio"),
    ("service.chunks_per_query", "count"),
    ("service.vticks_total", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Queries at the head of the solo phase over which the exactly
/// repeating `service.*` counts are taken, so they do not depend on
/// `--seconds` (from 2 s up).
const SERVE_COUNTED_QUERIES: usize = 100;
/// Tasks per `run_batch` of the hybrid drive (the cluster worker's
/// batch size).
const FRONTIER_TASK_BATCH: usize = 64;

/// One recorded interval. `gets` aggregates the `source.get` leaves
/// under a task span as (calls, total ns) instead of one span each.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub gets: Option<(u64, u64)>,
}

/// The spans of one workload's traced pass, kept in memory until the
/// benchmark ends.
#[derive(Debug)]
pub struct Trace {
    pub workload: String,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    fn new(workload: &str) -> Self {
        Trace {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            gets: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its length in seconds.
    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and the span's length
    /// in seconds.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut members = vec![
                        ("id", Value::Num(id as f64)),
                        ("name", Value::Str(s.name.to_string())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("workload", Value::Str(self.workload.clone())),
                    ];
                    if let Some((calls, ns)) = s.gets {
                        members.push(("source_get_calls", Value::Num(calls as f64)));
                        members.push(("source_get_ns", Value::Num(ns as f64)));
                    }
                    json::obj(members)
                })
                .collect(),
        )
    }
}

/// Runs `workload` traced. Returns every metric of [`METRICS`] and the
/// spans.
pub fn run(workload: &str, p: &RunParams) -> (PassResult, Trace) {
    let mut out = PassResult::default();
    let mut trace = Trace::new(workload);
    let mut m = Measured::default();
    match (workload, Batch::by_name(workload)) {
        (_, Some(spec)) => batch(spec, p, &mut out, &mut trace, &mut m),
        ("plan_sweep", _) => plan_sweep(p, &mut out, &mut trace, &mut m),
        ("serve_mix", _) => serve_mix(p, &mut out, &mut trace, &mut m),
        _ => panic!("unknown workload '{workload}'"),
    }
    for &(name, unit) in METRICS {
        let value = m
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.put(name, value, unit);
    }
    for (name, _) in &m.values {
        assert!(
            METRICS.iter().any(|(n, _)| n == name),
            "metric {name} is measured but not declared"
        );
    }
    (out, trace)
}

/// The metrics a workload measured; the rest of [`METRICS`] read 0.
#[derive(Default)]
struct Measured {
    values: Vec<(&'static str, f64)>,
}

impl Measured {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// What the [`TracedSource`] saw: totals, and every request's keys in
/// order (`requests[i] = (key count, batched)` over the flat `keys`).
#[derive(Default)]
struct GetLog {
    calls: u64,
    ns: u64,
    keys: Vec<VertexId>,
    requests: Vec<(u32, bool)>,
}

/// A `DataSource` that times and records every call into the source it
/// wraps.
struct TracedSource<'a, S: DataSource> {
    inner: &'a S,
    log: Mutex<GetLog>,
}

impl<'a, S: DataSource> TracedSource<'a, S> {
    fn new(inner: &'a S) -> Self {
        TracedSource {
            inner,
            log: Mutex::new(GetLog::default()),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, GetLog> {
        self.log
            .lock()
            .expect("the traced drive is single-threaded")
    }

    /// (calls, ns) so far.
    fn totals(&self) -> (u64, u64) {
        let log = self.log();
        (log.calls, log.ns)
    }
}

impl<S: DataSource> DataSource for TracedSource<'_, S> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
        let t = Instant::now();
        let adj = self.inner.get_adj(v);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self.log();
        log.calls += 1;
        log.ns += ns;
        log.keys.push(v);
        log.requests.push((1, false));
        adj
    }

    fn get_adj_batch(&self, vs: &[VertexId]) -> Vec<Arc<AdjSet>> {
        let t = Instant::now();
        let sets = self.inner.get_adj_batch(vs);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self.log();
        log.calls += 1;
        log.ns += ns;
        log.keys.extend_from_slice(vs);
        log.requests.push((vs.len() as u32, true));
        sets
    }
}

/// What one engine drive produced.
struct Drive {
    metrics: TaskMetrics,
    tri: benu_cache::CacheStats,
    pool: PoolStats,
    frontier: FrontierStats,
    seconds: f64,
    allocs: u64,
}

/// Runs every task on one engine thread, as a cluster worker thread
/// would: task at a time (DFS) or in batches through the frontier
/// engine (hybrid). `each` brackets every task (or batch).
fn drive<S: DataSource>(
    spec: &Batch,
    compiled: &CompiledPlan,
    tasks: &[SearchTask],
    source: &S,
    order: &TotalOrder,
    mut each: impl FnMut(&mut dyn FnMut()),
) -> Drive {
    let defaults = ClusterConfig::default();
    let engine =
        LocalEngine::with_triangle_cache(compiled, source, order, defaults.triangle_cache_entries);
    let mut consumer = CountingConsumer::default();
    let mut metrics = TaskMetrics::default();
    let allocs_before = alloc::alloc_count();
    let started = Instant::now();
    let (tri, pool, frontier) = match spec.cold {
        Some(cold) if cold.exec_mode == ExecMode::Hybrid => {
            // A worker splits its budget evenly across its threads.
            let budget = cold.memory_budget_bytes / spec.threads;
            let mut fe = FrontierEngine::new(engine, MemoryBudget::bytes(budget));
            for batch in tasks.chunks(FRONTIER_TASK_BATCH) {
                each(&mut || metrics += fe.run_batch(batch, &mut consumer));
            }
            (fe.triangle_cache_stats(), fe.pool_stats(), fe.stats())
        }
        _ => {
            let mut engine = engine;
            for &task in tasks {
                each(&mut || metrics += engine.run_task(task, &mut consumer));
            }
            (
                engine.triangle_cache_stats(),
                engine.pool_stats(),
                FrontierStats::default(),
            )
        }
    };
    Drive {
        metrics,
        tri,
        pool,
        frontier,
        seconds: started.elapsed().as_secs_f64(),
        allocs: alloc::alloc_count() - allocs_before,
    }
}

/// The `each` of a drive nobody watches.
fn unobserved(task: &mut dyn FnMut()) {
    task()
}

/// The store + cache stack of one worker, as `Cluster::new` builds it.
fn worker_stack(spec: &Batch, g: &Graph, store: &Arc<KvStore>) -> KvSource {
    let cache = DbCache::new(
        spec.cache_capacity_bytes(g),
        ClusterConfig::default().cache_shards,
    );
    let source = KvSource::new(Arc::clone(store), Arc::new(cache));
    if spec.cold.is_none() {
        // Warm workloads measure repetitions that start with every
        // adjacency set already cached.
        for v in g.vertices() {
            source.get_adj(v);
        }
    }
    source
}

fn batch(spec: &Batch, p: &RunParams, out: &mut PassResult, trace: &mut Trace, m: &mut Measured) {
    let g = chung_lu_power_law(spec.graph_config(p));
    let pattern = (spec.pattern)();
    let expected = e2e::expected_matches(spec, &g, p, out);
    out.matches = expected;
    m.set("ledger.matches", expected as f64);
    let order = TotalOrder::new(&g);
    let in_memory = InMemorySource::from_graph(&g);

    let t = Instant::now();
    let store = Arc::new(KvStore::from_graph_with(&g, 1, 1, spec.codec()));
    m.set("kvstore.load_s", t.elapsed().as_secs_f64());
    m.set(
        "kvstore.stored_bytes_per_edge",
        ratio(store.total_value_bytes() as f64, 2.0 * g.num_edges() as f64),
    );

    // Every timed figure is the median over `rounds` rounds; a round
    // runs the traced drive, the same drive without the tracing
    // wrapper and the same drive without a store back to back, so the
    // three are compared under the same host conditions. An untimed
    // drive first brings the allocator to its steady state, as the
    // untraced pass's warm-up repetition does, and sizes the rounds to
    // `--seconds`.
    let plan = staged_plan(spec, &g, &pattern);
    let compiled = CompiledPlan::compile(&plan);
    let tasks = staged_tasks(&g, &compiled);
    let warm_stack = worker_stack(spec, &g, &store);
    let warm = drive(spec, &compiled, &tasks, &warm_stack, &order, unobserved);
    let rounds = ((p.seconds / (STAGED_PASSES * warm.seconds)) as usize).clamp(1, MAX_ROUNDS);

    let mut stages: [Vec<f64>; 7] = Default::default();
    let mut first: Option<(Drive, GetLog)> = None;
    for round in 0..rounds {
        // Spans are kept for the first round only.
        let mut scratch = Trace::new(&trace.workload);
        let spans: &mut Trace = if round == 0 { trace } else { &mut scratch };
        let kv = worker_stack(spec, &g, &store);
        let traced = TracedSource::new(&kv);
        let root = spans.open("staged", None);
        let (search, search_s) = spans.timed("plan.search", Some(root), || {
            PlanBuilder::new(&pattern)
                .graph_stats(g.num_vertices(), g.num_edges())
                .best_plan_result()
        });
        let mut plan = search.plan;
        let (compiled, compile_s) = spans.timed("engine.compile", Some(root), || {
            if spec.collect_compressed {
                benu_plan::vcbc::compress(&mut plan);
            }
            CompiledPlan::compile(&plan)
        });
        let (tasks, taskgen_s) =
            spans.timed("engine.taskgen", Some(root), || staged_tasks(&g, &compiled));
        let run = spans.open("engine.run", Some(root));
        let staged = drive(spec, &compiled, &tasks, &traced, &order, |task| {
            let before = traced.totals();
            let id = spans.open("task", Some(run));
            task();
            spans.close(id);
            let after = traced.totals();
            spans.spans[id].gets = Some((after.0 - before.0, after.1 - before.1));
        });
        let run_s = spans.close(run);
        let root_s = spans.close(root);
        let stage_sum = search_s + compile_s + taskgen_s + run_s;
        out.check((stage_sum - root_s).abs() <= 0.02 * root_s, || {
            format!(
                "{}: the stages sum to {stage_sum:.6} s but their root span is {root_s:.6} s",
                spec.name
            )
        });
        let log = traced.log.into_inner().expect("the drive has ended");
        let bare_stack = worker_stack(spec, &g, &store);
        let bare = drive(spec, &compiled, &tasks, &bare_stack, &order, unobserved);
        let inmem = drive(spec, &compiled, &tasks, &in_memory, &order, unobserved);
        for (what, d) in [
            ("staged", &staged),
            ("untraced", &bare),
            ("in-memory", &inmem),
        ] {
            out.check(d.metrics.matches == expected, || {
                format!(
                    "{}: the {what} drive found {} matches, expected {expected}",
                    spec.name, d.metrics.matches
                )
            });
        }
        let samples = [
            search_s,
            compile_s,
            taskgen_s,
            run_s,
            log.ns as f64 / 1e9,
            bare.seconds,
            inmem.seconds,
        ];
        for (stage, sample) in stages.iter_mut().zip(samples) {
            stage.push(sample);
        }
        if round == 0 {
            m.set("plan.alpha", search.stats.alpha as f64);
            m.set("plan.beta", search.stats.beta as f64);
            m.set(
                "engine.allocs_per_task",
                ratio(bare.allocs as f64, tasks.len() as f64),
            );
            first = Some((staged, log));
        }
    }
    let (staged, log) = first.expect("at least one round");
    let [search_s, compile_s, taskgen_s, run_s, get_s, bare_s, inmem_s] =
        stages.map(|samples| median(&samples));

    m.set("plan.search_ms", search_s * 1e3);
    m.set("engine.compile_us", compile_s * 1e6);
    m.set("engine.taskgen_ms", taskgen_s * 1e3);
    m.set("engine.tasks", tasks.len() as f64);
    m.set("engine.run_s", run_s);
    m.set("engine.self_s", run_s - get_s);
    m.set("engine.inmem_s", inmem_s);
    m.set("trace.overhead_share", ratio(run_s - bare_s, bare_s));
    m.set(
        "engine.dbq_executions",
        staged.metrics.dbq_executions as f64,
    );
    m.set(
        "engine.int_executions",
        staged.metrics.int_executions as f64,
    );
    m.set(
        "engine.trc_executions",
        staged.metrics.trc_executions as f64,
    );
    m.set(
        "engine.enu_candidates",
        staged.metrics.enu_candidates as f64,
    );
    m.set("engine.codes", staged.metrics.codes as f64);
    m.set("engine.code_bytes", staged.metrics.code_bytes as f64);
    m.set("engine.tri_cache_hit_rate", staged.tri.hit_rate());
    m.set(
        "engine.pool_hit_rate",
        ratio(
            staged.pool.hits as f64,
            (staged.pool.hits + staged.pool.misses) as f64,
        ),
    );
    m.set(
        "engine.frontier_expansions",
        staged.frontier.expansions as f64,
    );
    m.set("engine.spill_events", staged.frontier.spill_events as f64);
    m.set(
        "engine.peak_frontier_bytes",
        staged.frontier.peak_bytes as f64,
    );
    m.set("source.get_s", get_s);
    m.set("source.calls", log.calls as f64);
    m.set("source.keys", log.keys.len() as f64);

    replay(spec, &g, &store, &log, get_s, rounds, m);
    kernels(spec, &g, &order, expected, inmem_s, out, m);
    // Against the drive without the tracing wrapper, so the difference
    // is the cluster's own work and not this pass's timers.
    let staged_total_s = search_s + compile_s + taskgen_s + bare_s;
    cluster_level(spec, &g, &pattern, expected, staged_total_s, rounds, out, m);
}

/// Single-threaded passes over the task list a round costs, roughly:
/// three drives here, then `Cluster::run` at one and at two threads.
const STAGED_PASSES: f64 = 5.0;
/// Most rounds a traced pass runs, however short its drive.
const MAX_ROUNDS: usize = 5;

fn staged_plan(spec: &Batch, g: &Graph, pattern: &Pattern) -> benu_plan::ExecutionPlan {
    PlanBuilder::new(pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(spec.collect_compressed)
        .best_plan()
}

/// The task list as `Cluster::run` generates it under the default τ.
fn staged_tasks(g: &Graph, compiled: &CompiledPlan) -> Vec<SearchTask> {
    let tau = match compiled.second_vertex {
        Some(_) => ClusterConfig::default().tau,
        None => 0,
    };
    generate_tasks(g, tau, compiled.second_adjacent)
}

/// Replays the key trace against the cache, the store and the codec,
/// each alone, `rounds` times; timings are medians.
fn replay(
    spec: &Batch,
    g: &Graph,
    store: &KvStore,
    log: &GetLog,
    get_s: f64,
    rounds: usize,
    m: &mut Measured,
) {
    // Decoded values as the store hands them out, so the cache sees the
    // same entry sizes.
    let values: Vec<Arc<AdjSet>> = g
        .vertices()
        .map(|v| Arc::new(g.adj_set(v).with_blocks(DENSE_BLOCK_THRESHOLD)))
        .collect();
    let encoded: Vec<_> = g
        .vertices()
        .map(|v| codec::encode(spec.codec(), g.neighbors(v)))
        .collect();
    let (mut cache_s, mut store_s, mut decode_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut decoded_bytes = 0usize;
    for round in 0..rounds {
        let cache = DbCache::new(
            spec.cache_capacity_bytes(g),
            ClusterConfig::default().cache_shards,
        );
        if spec.cold.is_none() {
            for v in g.vertices() {
                cache.insert(v, Arc::clone(&values[v as usize]));
            }
        }
        let before = cache.stats();
        let mut miss_keys: Vec<VertexId> = Vec::new();
        let mut miss_requests: Vec<(u32, bool)> = Vec::new();
        let t = Instant::now();
        let mut at = 0;
        for &(len, batched) in &log.requests {
            let keys = &log.keys[at..at + len as usize];
            at += len as usize;
            let first_miss = miss_keys.len();
            for &k in keys {
                if cache.get(k).is_none() {
                    miss_keys.push(k);
                }
            }
            for &k in &miss_keys[first_miss..] {
                cache.insert(k, Arc::clone(&values[k as usize]));
            }
            if miss_keys.len() > first_miss {
                miss_requests.push(((miss_keys.len() - first_miss) as u32, batched));
            }
        }
        cache_s.push(t.elapsed().as_secs_f64());
        let stats = cache.stats();

        store.reset_stats();
        let mut round_trips = 0;
        let t = Instant::now();
        let mut at = 0;
        for &(len, batched) in &miss_requests {
            let keys = &miss_keys[at..at + len as usize];
            at += len as usize;
            if batched {
                round_trips += std::hint::black_box(store.get_many(keys)).round_trips;
            } else {
                std::hint::black_box(store.get(keys[0]));
                round_trips += 1;
            }
        }
        store_s.push(t.elapsed().as_secs_f64());
        let kv = store.stats();

        let mut ids = Vec::new();
        decoded_bytes = 0;
        let t = Instant::now();
        for &k in &miss_keys {
            let value = &encoded[k as usize];
            codec::decode_into(value, &mut ids).expect("a value this process just encoded");
            decoded_bytes += value.len();
            std::hint::black_box(&ids);
        }
        decode_s.push(t.elapsed().as_secs_f64());

        if round == 0 {
            // The replay is deterministic: counts are taken once.
            let probes = (stats.hits - before.hits) + (stats.misses - before.misses);
            m.set(
                "cache.hit_rate",
                ratio((stats.hits - before.hits) as f64, probes as f64),
            );
            m.set(
                "cache.evictions",
                (stats.evictions - before.evictions) as f64,
            );
            m.set("kvstore.requests", kv.requests as f64);
            m.set("kvstore.keys", kv.keys as f64);
            m.set("kvstore.round_trips", round_trips as f64);
            m.set("kvstore.bytes", kv.bytes as f64);
        }
    }
    let (cache_s, store_s, decode_s) = (median(&cache_s), median(&store_s), median(&decode_s));
    m.set("cache.replay_s", cache_s);
    m.set(
        "cache.probe_ns",
        ratio(cache_s * 1e9, log.keys.len() as f64),
    );
    m.set("kvstore.get_s", store_s);
    m.set("kvstore.decode_s", decode_s);
    m.set(
        "kvstore.decode_mb_per_s",
        ratio(decoded_bytes as f64 / 1e6, decode_s),
    );

    if spec.cold.is_some() {
        // How much of the time inside `source.get` the two replays
        // explain; on a warm workload there is nothing to split.
        let residual = ratio((get_s - (cache_s + store_s)).abs(), get_s);
        m.set("ledger.residual_share", residual);
        if residual > 0.25 {
            eprintln!(
                "[ledger] warning: {}: cache and store replays explain {:.3} s of {get_s:.3} s \
                 spent in source.get (residual {residual:.2})",
                spec.name,
                cache_s + store_s
            );
        }
    }
}

/// The intersection kernels alone: pairs per second of the scalar and
/// the block kernel, and for `clique_dense` the time a direct recursive
/// clique count over the same kernels takes — the floor the interpreter
/// cannot go below without better kernels.
fn kernels(
    spec: &Batch,
    g: &Graph,
    order: &TotalOrder,
    expected: u64,
    inmem_s: f64,
    out: &mut PassResult,
    m: &mut Measured,
) {
    let mut buf: Vec<VertexId> = Vec::new();
    let mut sink = 0usize;

    let pairs: Vec<(VertexId, VertexId)> = g.edges().take(100_000).collect();
    let t = Instant::now();
    for &(a, b) in &pairs {
        ops::intersect_into(g.neighbors(a), g.neighbors(b), &mut buf);
        sink += buf.len();
    }
    m.set(
        "graph.intersect_pairs_per_s",
        ratio(pairs.len() as f64, t.elapsed().as_secs_f64()),
    );

    const HUBS: usize = 48;
    const ROUNDS: usize = 20;
    let views = GraphViews::build(g);
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    hubs.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    hubs.truncate(HUBS);
    let t = Instant::now();
    let mut hub_pairs = 0usize;
    for _ in 0..ROUNDS {
        for (i, &a) in hubs.iter().enumerate() {
            for &b in &hubs[i + 1..] {
                view::intersect_into(views.view(g, a), views.view(g, b), &mut buf);
                sink += buf.len();
                hub_pairs += 1;
            }
        }
    }
    m.set(
        "graph.block_intersect_pairs_per_s",
        ratio(hub_pairs as f64, t.elapsed().as_secs_f64()),
    );
    std::hint::black_box(sink);

    if spec.name == "clique_dense" {
        let k = (spec.pattern)().num_vertices();
        let t = Instant::now();
        let count = clique_floor(g, &views, order, k);
        let floor_s = t.elapsed().as_secs_f64();
        out.check(count == expected, || {
            format!("clique_dense: the kernel floor counted {count} cliques, expected {expected}")
        });
        m.set("graph.kernel_floor_s", floor_s);
        m.set("engine.dispatch_share", 1.0 - ratio(floor_s, inmem_s));
    }
}

/// `k`-cliques by direct recursion over `view::intersect_into`, each
/// found once in ascending [`TotalOrder`] — the engine's INT work with
/// no interpreter around it.
fn clique_floor(g: &Graph, views: &GraphViews, order: &TotalOrder, k: usize) -> u64 {
    fn extend(
        g: &Graph,
        views: &GraphViews,
        order: &TotalOrder,
        cand: &[VertexId],
        remaining: usize,
        bufs: &mut Vec<Vec<VertexId>>,
    ) -> u64 {
        if remaining == 1 {
            return cand.len() as u64;
        }
        let mut next = bufs.pop().unwrap_or_default();
        let mut total = 0;
        for &u in cand {
            view::intersect_into(AdjView::from_slice(cand), views.view(g, u), &mut next);
            next.retain(|&w| order.less(u, w));
            if next.len() + 1 >= remaining {
                total += extend(g, views, order, &next, remaining - 1, bufs);
            }
        }
        bufs.push(next);
        total
    }
    let mut bufs = Vec::new();
    let mut first: Vec<VertexId> = Vec::new();
    g.vertices()
        .map(|v| {
            first.clear();
            first.extend(g.neighbors(v).iter().filter(|&&w| order.less(v, w)));
            extend(g, views, order, &first, k - 1, &mut bufs)
        })
        .sum()
}

/// `Cluster::run` around the same work: what scheduling, transport
/// accounting and report building add to the staged total at one
/// thread, and what the second thread buys. Medians over `rounds`.
#[allow(clippy::too_many_arguments)]
fn cluster_level(
    spec: &Batch,
    g: &Graph,
    pattern: &Pattern,
    expected: u64,
    staged_total_s: f64,
    rounds: usize,
    out: &mut PassResult,
    m: &mut Measured,
) {
    // One `Cluster::run`, plan included, as the untraced pass times it.
    let timed_run = |cluster: &Cluster, out: &mut PassResult| {
        if spec.cold.is_some() {
            cluster.clear_caches();
        }
        let t = Instant::now();
        let outcome = cluster.run(&staged_plan(spec, g, pattern));
        let wall = t.elapsed().as_secs_f64();
        let count = outcome
            .as_ref()
            .map(|o| o.total_matches)
            .map_err(|e| e.to_string());
        out.check(count == Ok(expected), || {
            format!(
                "{}: Cluster::run returned {count:?}, expected {expected}",
                spec.name
            )
        });
        (outcome.ok(), wall)
    };
    let one = Cluster::new(g, spec.cluster_config(g, 1));
    let two = Cluster::new(g, spec.cluster_config(g, THREADS));
    // The warm-up every measured repetition of the untraced pass has
    // behind it.
    timed_run(&one, out);
    timed_run(&two, out);

    let (mut one_s, mut two_s, mut collect_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut last_one, mut last_two) = (None, None);
    for _ in 0..rounds {
        let (outcome, wall) = timed_run(&one, out);
        one_s.push(wall);
        last_one = outcome;
        let (outcome, wall) = timed_run(&two, out);
        two_s.push(wall);
        last_two = outcome;
        if spec.collect_compressed {
            let t = Instant::now();
            let collected = two.run_collect(&staged_plan(spec, g, pattern));
            collect_s.push(t.elapsed().as_secs_f64() - wall);
            let count = collected
                .map(|(_, found)| found.len() as u64)
                .map_err(|e| e.to_string());
            out.check(count == Ok(expected), || {
                format!(
                    "{}: run_collect materialised {count:?}, expected {expected}",
                    spec.name
                )
            });
        }
    }
    let (one_s, two_s) = (median(&one_s), median(&two_s));
    m.set("cluster.run_1x1_s", one_s);
    m.set("cluster.overhead_s", one_s - staged_total_s);
    m.set("cluster.speedup_2t", ratio(one_s, two_s));
    if !collect_s.is_empty() {
        m.set("cluster.collect_s", median(&collect_s));
    }
    // Bytes fetched at the thread count the untraced pass runs.
    let own = if spec.threads == 1 {
        &last_one
    } else {
        &last_two
    };
    if let Some(outcome) = own {
        m.set(
            "cluster.comm_mb",
            outcome.communication_bytes() as f64 / 1e6,
        );
    }
    if let Some(outcome) = last_two {
        let busy: f64 = outcome
            .workers
            .iter()
            .flat_map(|w| &w.thread_busy)
            .map(|d| d.as_secs_f64())
            .sum();
        let lanes = THREADS as f64 * outcome.elapsed.as_secs_f64();
        m.set("cluster.idle_share", 1.0 - ratio(busy, lanes));
        m.set("cluster.work_imbalance", outcome.work_imbalance());
        m.set("cluster.steals", outcome.total_steals() as f64);
    }
}

fn plan_sweep(p: &RunParams, out: &mut PassResult, trace: &mut Trace, m: &mut Measured) {
    let sweep = inputs::plan_sweep(p);
    let n = sweep.patterns.len() as f64;
    let root = trace.open("staged", None);
    let (_, canonical_s) = trace.timed("pattern.canonical", Some(root), || {
        for pattern in &sweep.patterns {
            std::hint::black_box(pattern.canonical_form());
        }
    });
    let (results, search_s) = trace.timed("plan.search", Some(root), || {
        sweep
            .patterns
            .iter()
            .map(|pattern| {
                PlanBuilder::new(pattern)
                    .graph_stats(sweep.graph_vertices, sweep.graph_edges)
                    .best_plan_result()
            })
            .collect::<Vec<_>>()
    });
    let (valid, compile_s) = trace.timed("engine.compile", Some(root), || {
        results.iter().zip(&sweep.patterns).all(|(r, pattern)| {
            let compiled = CompiledPlan::compile(&r.plan);
            r.plan.validate().is_ok() && compiled.num_pattern_vertices == pattern.num_vertices()
        })
    });
    trace.close(root);
    out.check(valid, || "plan_sweep: a pattern got an invalid plan".into());
    m.set("pattern.canonical_us", canonical_s * 1e6 / n);
    m.set("plan.search_ms", search_s * 1e3);
    m.set(
        "plan.alpha",
        results.iter().map(|r| r.stats.alpha as f64).sum(),
    );
    m.set(
        "plan.beta",
        results.iter().map(|r| r.stats.beta as f64).sum(),
    );
    m.set("engine.compile_us", compile_s * 1e6);
}

/// What the traced pass keeps of one served query.
struct Served {
    heavy: bool,
    latency_ms: f64,
    submit_ms: f64,
    /// Client latency minus the service's own submission-to-terminal
    /// wall: waiter wake-up.
    lag_ms: f64,
    cache_hit: bool,
    chunks: usize,
    vticks: u64,
}

fn serve_mix(p: &RunParams, out: &mut PassResult, trace: &mut Trace, m: &mut Measured) {
    let graph_config = inputs::serve_graph_config(p);
    let g = chung_lu_power_law(graph_config);
    let expected = e2e::serve_expected(&g, p, out);
    // The plan cache only misses while warming up.
    let mut miss_ms = Vec::new();
    let (service, warm) = e2e::serve_setup(graph_config, p, &expected, |o| {
        if !o.result.plan_cache_hit {
            miss_ms.push(o.submit.as_secs_f64() * 1e3);
        }
    });

    let solo_span = trace.open("serve.solo", None);
    let mut served: Vec<Served> = Vec::new();
    let solo = e2e::serve_client(
        &service,
        &expected,
        &mut ServeMix::new(p.seed, 1),
        e2e::serve_blocks_per_client(p),
        |o| {
            let end = trace.now();
            let start = end - o.latency.as_nanos() as u64;
            let query = trace.open("query", Some(solo_span));
            trace.spans[query].start_ns = start;
            trace.spans[query].end_ns = end;
            let submit = trace.open("service.submit", Some(query));
            trace.spans[submit].start_ns = start;
            trace.spans[submit].end_ns = start + o.submit.as_nanos() as u64;
            served.push(Served {
                heavy: o.query.class == SERVE_HEAVY,
                latency_ms: o.latency.as_secs_f64() * 1e3,
                submit_ms: o.submit.as_secs_f64() * 1e3,
                lag_ms: (o.latency.as_secs_f64() - o.result.wall.as_secs_f64()) * 1e3,
                cache_hit: o.result.plan_cache_hit,
                chunks: o.result.chunks_committed,
                vticks: o.result.vticks,
            });
        },
    );
    trace.close(solo_span);

    let loaded_span = trace.open("serve.loaded", None);
    let (loaded, _) = e2e::serve_loaded(&service, &expected, p, |_, _| {});
    trace.close(loaded_span);
    drop(service);
    for client in [&warm, &solo].into_iter().chain(&loaded) {
        out.attempted += client.latency_ms.len() as u64;
        out.failed += client.failed;
    }
    let mut loaded_ms: Vec<f64> = loaded.into_iter().flat_map(|c| c.latency_ms).collect();

    let sorted = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs
    };
    let mean = |xs: Vec<f64>| ratio(xs.iter().sum(), xs.len() as f64);
    let class_p50 = |heavy: bool| {
        let xs: Vec<f64> = served
            .iter()
            .filter(|s| s.heavy == heavy)
            .map(|s| s.latency_ms)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    m.set(
        "service.submit_hit_ms",
        mean(
            served
                .iter()
                .filter(|s| s.cache_hit)
                .map(|s| s.submit_ms)
                .collect(),
        ),
    );
    m.set("service.submit_miss_ms", mean(miss_ms));
    m.set(
        "service.notify_lag_ms",
        median(&served.iter().map(|s| s.lag_ms).collect::<Vec<_>>()),
    );
    m.set("service.light_p50_ms", class_p50(false));
    m.set("service.heavy_p50_ms", class_p50(true));
    m.set(
        "service.solo_p95_ms",
        quantile(&sorted(served.iter().map(|s| s.latency_ms).collect()), 0.95),
    );
    loaded_ms.sort_by(f64::total_cmp);
    m.set("service.loaded_p95_ms", quantile(&loaded_ms, 0.95));
    let counted = &served[..served.len().min(SERVE_COUNTED_QUERIES)];
    m.set(
        "service.plan_cache_hit_rate",
        ratio(
            counted.iter().filter(|s| s.cache_hit).count() as f64,
            counted.len() as f64,
        ),
    );
    m.set(
        "service.chunks_per_query",
        ratio(
            counted.iter().map(|s| s.chunks as f64).sum(),
            counted.len() as f64,
        ),
    );
    m.set(
        "service.vticks_total",
        counted.iter().map(|s| s.vticks as f64).sum(),
    );

    // What the light classes cost with no service around them: one
    // engine thread, graph in memory.
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let classes = inputs::serve_patterns();
    let mut canonical_s = 0.0;
    let mut light_s = 0.0;
    for (class, (_, pattern)) in classes.iter().enumerate() {
        let t = Instant::now();
        std::hint::black_box(pattern.canonical_form());
        canonical_s += t.elapsed().as_secs_f64();
        if class == SERVE_HEAVY {
            continue;
        }
        let plan = PlanBuilder::new(pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let t = Instant::now();
        let found = engine
            .run_all_vertices(&mut CountingConsumer::default())
            .matches;
        light_s += t.elapsed().as_secs_f64();
        out.check(found == expected[class], || {
            format!(
                "serve_mix: class {class} counts {found} in memory, {} on the cluster",
                expected[class]
            )
        });
    }
    m.set(
        "pattern.canonical_us",
        canonical_s * 1e6 / classes.len() as f64,
    );
    m.set("engine.light_inmem_ms", light_s * 1e3 / SERVE_HEAVY as f64);
}
