//! The query service: admission, commit, reporting — and one job per
//! query on the lane pool.
//!
//! One [`QueryService`] owns a [`Resident`] deployment — the data graph
//! in a sharded store plus one persistent database cache per worker,
//! the same layer the batch [`benu_cluster::Cluster`] runs on — and
//! serves any number of concurrent pattern queries against it. Admission
//! resolves the pattern to its [`Class`] (taking the class's resident
//! plan or compiling one), evaluates the [`crate::admission`] gates against the current backlog, generates
//! the split task list through [`Resident::tasks`], and admits the query
//! to the service's [`Pool`] as a [`Job`] of fixed task-index-range
//! *chunks* without a home machine. The service's lanes — one thread per
//! worker, running [`pool::lane_loop`] for the service's life — are
//! granted one chunk at a time (the cross-query fairness granularity),
//! run it with the regular engine (DFS task-at-a-time, or the
//! memory-bounded hybrid as one frontier batch), and hand it over
//! *per chunk*: the query's job permutes and sorts the chunk's rows and
//! hands them to the run's lifecycle, whose [`CommitState`] enforces
//! in-order commit and every budget.
//!
//! Lifecycle: each run's bookkeeping is one [`Lifecycle`] under the
//! run's lock (see `lifecycle`): every entry point here — `submit`, a
//! lane's `start` and `chunk_done`, `cancel`, the pool's `lost`, `wait` —
//! makes one pure transition of it and applies the [`Effects`] it
//! returned in [`Inner::apply`], the one place that raises the stop bit,
//! moves the inflight count, drains the pool and books a settled result.
//! The service holds a query from admission until `wait` takes its
//! result — a result is delivered once. The task list, placement and
//! fault gate are the [`Ticket`]'s and go with the pool's last ticket.
//! What outlives the query is its share of its pattern class's record.
//!
//! The class table: one [`Class`] per pattern class — every relabeling
//! or automorphic image of one canonical pattern — keyed by canonical
//! fingerprint. It holds the class's compiled plan while the class is
//! among the [`PLAN_CACHE_ENTRIES`] used most recently, its summed
//! tally, and the observations feedback re-planning reads; an evicted
//! plan is recompiled on the next miss, and the rest of the record stays.
//!
//! Determinism contract: a query's terminal status, match count,
//! committed match stream and virtual-time latency are a pure function
//! of `(graph, pattern, options, chunk_tasks)` — independent of worker
//! count, execution mode, and whatever else is running concurrently.
//! See DESIGN.md "Runtime" and §4h.
//!
//! Resilience contract (DESIGN.md §4h): with a
//! [`crate::ServiceConfig::fault_plan`] installed, every failure on the
//! request path is one [`benu_cluster::Failure`] — built by the lane
//! that observed it, committed unchanged — that settles *one* query,
//! never a panic, never a sibling. Fault decisions are
//! evaluated per logical adjacency access *in front of* the warm cache
//! (the query's [`FaultGate`], consulted first by every lane source), so
//! which chunks of which queries fail is a pure function of the
//! per-query scoped fault seed, independent of cache state and thread
//! timing. A serving worker that crashes dies by the pool's one crash
//! rule: the chunk it had not handed over goes back to the survivors and
//! is re-executed byte-identically; only a fully dead pool surfaces
//! ([`benu_cluster::Cause::NoSurvivor`]).

use crate::admission::{self, AdmissionCaps, AdmissionVerdict, LoadSnapshot};
use crate::commit::{CommitState, ExecutedChunk};
use crate::config::ServiceConfig;
use crate::lifecycle::{Effects, Lifecycle};
use crate::query::{QueryId, QueryOptions, QueryResult, QueryStatus};
use benu_cluster::gate::FaultGate;
use benu_cluster::pool::{self, HandOver, Job, Lane, LanePart, Outcome, Pool, SchedulerKind, Spec};
use benu_cluster::report::lane_stats_report;
use benu_cluster::transport::Transport;
use benu_cluster::{
    Failure, Resident, Split, DEFAULT_CACHE_SHARDS, DEFAULT_TRIANGLE_CACHE_ENTRIES,
};
use benu_engine::{CompiledPlan, MatchSet, SearchTask, TaskMetrics};
use benu_graph::Graph;
use benu_kvstore::KvStore;
use benu_obs::{Report, ReportMode};
use benu_pattern::canonical::fingerprint;
use benu_pattern::{Pattern, PatternVertex};
use benu_plan::{ChungLuEstimator, ExecutionPlan, FeedbackEstimator, PlanBuilder, PlanObs};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pattern classes whose compiled plan stays resident (LRU).
const PLAN_CACHE_ENTRIES: usize = 32;

/// The service's one task-split policy: every query's task list is split
/// at the adaptive τ for this many *virtual* lanes — deliberately not the
/// worker count. The task list fixes chunk boundaries, and chunk
/// boundaries fix where budgets are evaluated and how many virtual ticks
/// a query accrues — all part of the determinism contract ("identical
/// results at any concurrency"), so τ must be a pure function of the
/// graph and the plan.
pub const AUTO_TAU_VIRTUAL_LANES: usize = 8;

/// `mutex`'s value, whatever a lane that unwound holding it left of it:
/// the service's locks guard plain data, and a query that a failing lane
/// touched settles through its commit pipeline, not through a panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One admitted query, shared between the submitter and the workers.
/// What only its chunks need is in the [`Ticket`]'s [`Work`], so a
/// settled query nobody has waited on yet holds little besides its
/// result.
struct QueryRun {
    id: QueryId,
    /// The query's pattern class: its index in [`Inner::classes`].
    class: usize,
    plan: Arc<CachedPlan>,
    submitted_at: Instant,
    /// The stop bit, the lifecycle's one lock-free mirror: up once the
    /// terminal is decided, so lanes skip granted chunks and a DFS chunk
    /// aborts at its next task. Only [`Inner::apply`] writes it.
    terminated: AtomicBool,
    life: Mutex<Lifecycle>,
    /// Signalled, under `life`, when the run settles.
    settled: Condvar,
}

impl QueryRun {
    /// The lifecycle, whatever a lane that unwound holding the lock left
    /// of it.
    fn life(&self) -> MutexGuard<'_, Lifecycle> {
        lock(&self.life)
    }
}

/// One compilation of a pattern class's canonical pattern: the chosen
/// execution plan and its compiled form, shared by every query of the
/// class while the plan is resident. Embeddings it produces are in the
/// canonical numbering; each query maps them back with its placement.
#[derive(Debug)]
pub struct CachedPlan {
    /// The best execution plan found for the canonical pattern.
    pub plan: ExecutionPlan,
    /// The compiled register machine workers interpret.
    pub compiled: CompiledPlan,
}

impl CachedPlan {
    fn new(plan: ExecutionPlan) -> Arc<Self> {
        let compiled = CompiledPlan::compile(&plan);
        Arc::new(CachedPlan { plan, compiled })
    }
}

/// Plan-cache counters (monotonic over the service's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Submissions whose class had its plan resident.
    pub hits: u64,
    /// Submissions that compiled their class's plan.
    pub misses: u64,
    /// Plans dropped by the LRU bound.
    pub evictions: u64,
    /// Classes whose plan is resident.
    pub entries: usize,
}

/// One pattern class — every relabeling and automorphic image of one
/// canonical pattern. It holds the class's compiled plan while that is
/// resident, what its settled queries add up to, and the observed
/// cardinalities feedback re-planning reads. Every count is a sum, so
/// the record — and the report and re-planning built on it — is
/// independent of completion order, and it costs the same for one query
/// of the class as for a million.
struct Class {
    canonical: Pattern,
    /// Resident while the class is among the [`PLAN_CACHE_ENTRIES`] used
    /// most recently; dropped (and recompiled on the next miss) after.
    plan: Option<Arc<CachedPlan>>,
    /// The last submission that used `plan` (ids rise in submission
    /// order, so this is the LRU clock).
    last_used: QueryId,
    tally: Tally,
    /// Per-instruction counts of the class's exhaustively completed
    /// queries before its re-plan (with
    /// [`ServiceConfig::feedback_replanning`] on). Until then every query
    /// ran the statistics plan — a pure function of the canonical pattern
    /// and the graph size — so they all observe one plan.
    obs: PlanObs,
    /// Re-planned from `obs`; a class is re-planned at most once.
    replanned: bool,
}

/// A class's settled queries, summed.
#[derive(Default)]
struct Tally {
    /// Settled queries per [`Terminal::name`](crate::Terminal::name).
    terminals: BTreeMap<&'static str, u64>,
    matches_found: u64,
    vticks: u64,
    chunks_committed: u64,
    chunks_discarded: u64,
    plan_cache_hits: u64,
    exhaustive: u64,
    /// Submission-to-terminal wall time (reported in `Full` mode only).
    wall_nanos: u64,
}

impl Tally {
    fn add(&mut self, result: &QueryResult) {
        *self.terminals.entry(result.terminal.name()).or_default() += 1;
        self.matches_found += result.matches_found;
        self.vticks += result.vticks;
        self.chunks_committed += result.chunks_committed as u64;
        self.chunks_discarded += result.chunks_discarded as u64;
        self.plan_cache_hits += u64::from(result.plan_cache_hit);
        self.exhaustive += u64::from(result.exhaustive);
        self.wall_nanos += result.wall.as_nanos() as u64;
    }

    fn report(&self, mode: ReportMode) -> Report {
        let mut r = Report::new();
        for (&terminal, &n) in &self.terminals {
            r.set(terminal, n);
        }
        r.set("matches_found", self.matches_found);
        r.set("vticks", self.vticks);
        r.set("chunks_committed", self.chunks_committed);
        r.set("chunks_discarded", self.chunks_discarded);
        r.set("plan_cache_hits", self.plan_cache_hits);
        r.set("exhaustive", self.exhaustive);
        if mode == ReportMode::Full {
            // Wall latency depends on worker timing — real
            // observability, but not part of the deterministic surface.
            r.set("wall_nanos", self.wall_nanos);
        }
        r
    }
}

/// The class table: every class submitted, in order of first submission
/// (classes are never removed, so an index stays valid), an index by
/// canonical fingerprint verified against the canonical pattern (one
/// fingerprint names more than one class only on a collision), and the
/// plan-cache counters.
#[derive(Default)]
struct Classes {
    all: Vec<Class>,
    by_hash: BTreeMap<u64, Vec<usize>>,
    plans: PlanCacheStats,
}

impl Classes {
    /// Classes re-planned from their observations.
    fn replans(&self) -> u64 {
        self.all.iter().filter(|c| c.replanned).count() as u64
    }

    /// The index of `canonical`'s class, created empty on first sight.
    fn find_or_insert(&mut self, canonical: Pattern) -> usize {
        let same = self.by_hash.entry(fingerprint(&canonical)).or_default();
        if let Some(&at) = same.iter().find(|&&at| self.all[at].canonical == canonical) {
            return at;
        }
        same.push(self.all.len());
        self.all.push(Class {
            canonical,
            plan: None,
            last_used: 0,
            tally: Tally::default(),
            obs: PlanObs::default(),
            replanned: false,
        });
        self.all.len() - 1
    }

    /// Counts a miss and makes room for one more resident plan: at the
    /// bound, the least recently used class drops its plan (and keeps
    /// its tally and observations).
    fn miss(&mut self) {
        self.plans.misses += 1;
        if self.plans.entries < PLAN_CACHE_ENTRIES {
            self.plans.entries += 1;
            return;
        }
        let resident = self.all.iter_mut().filter(|c| c.plan.is_some());
        let coldest = resident.min_by_key(|c| c.last_used);
        coldest.expect("a full table holds resident plans").plan = None;
        self.plans.evictions += 1;
    }
}

struct Inner {
    config: ServiceConfig,
    resident: Resident,
    /// One record per pattern class submitted (innermost lock — taken
    /// under the admission and run locks, never the reverse).
    classes: Mutex<Classes>,
    /// The chunk queue and liveness of the service's lanes; every
    /// admitted query is a [`Ticket`] on it.
    pool: Pool<Ticket>,
    /// One store transport per serving worker.
    transports: Vec<Transport>,
    /// Every lane visit's [`LanePart`], summed: the lanes' private
    /// counters (triangle cache, buffer pool, frontier, the db-cache
    /// hits their tasks answered themselves), busy time and injected
    /// fault latency.
    lanes: Mutex<LanePart>,
    /// Serialises admission; holds the next [`QueryId`]. Ids are never
    /// reused, so the ids issued are every submission, each admitted or
    /// shed once its `submit` lets go of this lock.
    admission: Mutex<QueryId>,
    /// Admitted queries whose result has not been taken by
    /// [`QueryService::wait`] (taken under `admission`, never the
    /// reverse).
    queries: Mutex<BTreeMap<QueryId, Arc<QueryRun>>>,
    completions: AtomicU64,
    /// Runs queued on the pool and not settled.
    inflight: AtomicUsize,
    requeued_chunks: AtomicU64,
}

/// The serving front end. See the module docs; construct with
/// [`QueryService::new`], submit with [`QueryService::submit`], and
/// collect with [`QueryService::wait`]. Dropping the service drains the
/// queue and joins its lanes.
pub struct QueryService {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Loads `g` into the service's sharded store and starts the worker
    /// pool.
    pub fn new(g: &Graph, config: ServiceConfig) -> Self {
        Self::serve(Self::load(g, &config), config)
    }

    /// Like [`QueryService::new`], applying `rot` to the resident store
    /// ([`Resident::corrupt`]) after load and before serving. A
    /// chaos-test hook: corrupt or drop stored values and assert the
    /// request path fails the affected *query*
    /// ([`Terminal::Failed`](crate::Terminal::Failed)) instead of the
    /// process.
    pub fn new_corrupted(g: &Graph, config: ServiceConfig, rot: impl FnOnce(&mut KvStore)) -> Self {
        let mut resident = Self::load(g, &config);
        resident.corrupt(rot);
        Self::serve(resident, config)
    }

    fn load(g: &Graph, config: &ServiceConfig) -> Resident {
        config.validate();
        Resident::load(
            g,
            config.resolved_store_shards(),
            config.workers,
            &config.data,
            DEFAULT_CACHE_SHARDS,
        )
    }

    fn serve(resident: Resident, config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            classes: Mutex::new(Classes::default()),
            // Chunks have no home machine, so the grant policy for homed
            // chunks never applies.
            pool: Pool::new(
                config.workers,
                SchedulerKind::Static,
                config.fault_plan.as_deref(),
            ),
            transports: (0..config.workers).map(|_| resident.transport()).collect(),
            lanes: Mutex::new(LanePart::default()),
            admission: Mutex::new(0),
            queries: Mutex::new(BTreeMap::new()),
            completions: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            requeued_chunks: AtomicU64::new(0),
            resident,
            config,
        });
        let threads = (0..inner.config.workers)
            .map(|machine| {
                let inner = Arc::clone(&inner);
                // The configured frontier budget is the pool's, shared by
                // its workers.
                let lane = Lane {
                    machine,
                    triangle_cache_entries: DEFAULT_TRIANGLE_CACHE_ENTRIES,
                    sharers: inner.config.workers,
                };
                std::thread::spawn(move || pool::lane_loop(&inner.pool, &inner.resident, lane))
            })
            .collect();
        QueryService { inner, threads }
    }

    /// The loaded deployment every query is served from.
    pub fn resident(&self) -> &Resident {
        &self.inner.resident
    }

    /// Plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        lock(&self.inner.classes).plans
    }

    /// Pattern classes re-planned from observed cardinalities so far
    /// (always 0 unless [`ServiceConfig::feedback_replanning`] is set).
    pub fn feedback_replans(&self) -> u64 {
        lock(&self.inner.classes).replans()
    }

    /// Un-granted chunks currently queued across every admitted query.
    pub fn queue_depth(&self) -> usize {
        self.inner.pool.depth()
    }

    /// Admits `pattern` and returns its [`QueryId`]. Plan resolution
    /// (cache lookup or compile) and task generation happen inside the
    /// admission lock, so QueryIds, plan-cache hit/miss sequences and
    /// task lists are a deterministic function of the submission order.
    ///
    /// Admission control runs under the same lock against the backlog
    /// snapshot (see `admission`): a shed query settles immediately as
    /// [`Terminal::Rejected`](crate::Terminal::Rejected) without
    /// executing, and a submission into a fully dead worker pool settles
    /// as [`Terminal::Failed`](crate::Terminal::Failed)
    /// ([`benu_cluster::Cause::NoSurvivor`]). Both are terminal results,
    /// not errors of the submit call.
    pub fn submit(&self, pattern: &Pattern, options: QueryOptions) -> QueryId {
        let inner = &*self.inner;
        let mut next_id = lock(&inner.admission);
        let id = *next_id;
        *next_id += 1;
        let resident = &inner.resident;
        let (class, plan, placement, hit) = inner.resolve(id, pattern);
        let split = Split::Auto {
            lanes: AUTO_TAU_VIRTUAL_LANES,
        };
        let (tasks, _tau) = resident.tasks(&plan.compiled, split);
        let total_chunks = tasks.len().div_ceil(inner.config.chunk_tasks);
        let commit = CommitState::new(
            total_chunks,
            &options.mode,
            options.deadline_vticks,
            options.max_matches,
            inner.config.graceful_degradation,
        );
        let gate = inner
            .config
            .fault_plan
            .as_ref()
            .map(|plan| resident.gate(Arc::new(plan.scoped(id))));
        let work = Arc::new(Work {
            tasks,
            placement,
            collect: options.mode.needs_matches(),
            gate,
        });
        // Terminal at admission: deadline 0, max_matches 0, TopK(0), or an
        // empty task list. Admitted, but nothing is queued.
        let decided = commit.terminal().is_some();
        let run = Arc::new(QueryRun {
            id,
            class,
            plan,
            submitted_at: Instant::now(),
            terminated: AtomicBool::new(false),
            life: Mutex::new(Lifecycle::new(id, hit, commit)),
            settled: Condvar::new(),
        });
        lock(&inner.queries).insert(id, Arc::clone(&run));
        let mut life = run.life();
        let mut verdict = match decided {
            true => AdmissionVerdict::Decided,
            false => admission::evaluate(
                AdmissionCaps {
                    max_inflight_queries: inner.config.max_inflight_queries,
                    max_queued_chunks: inner.config.max_queued_chunks,
                },
                LoadSnapshot {
                    inflight_queries: inner.inflight.load(Ordering::Acquire),
                    queued_chunks: inner.pool.depth(),
                },
                total_chunks,
            ),
        };
        if verdict == AdmissionVerdict::Admit {
            let ticket = Ticket {
                inner: Arc::clone(&self.inner),
                run: Arc::clone(&run),
                work,
            };
            let chunks = (0..total_chunks).map(|chunk| (chunk, None));
            // The whole pool crashed: nothing can execute this query and
            // nothing ever will.
            if let Err(failure) = inner.pool.admit(id, ticket, options.weight, chunks) {
                verdict = AdmissionVerdict::Lost(failure);
            }
        }
        let effects = life.admit(verdict);
        inner.apply(&run, &mut life, effects);
        id
    }

    /// The run of `id` while its result has not been taken.
    fn run(&self, id: QueryId) -> Option<Arc<QueryRun>> {
        lock(&self.inner.queries).get(&id).map(Arc::clone)
    }

    /// Non-blocking lifecycle view, a read of the run's phase; `None` for
    /// an unknown id and for a query whose result [`QueryService::wait`]
    /// has already handed over.
    pub fn status(&self, id: QueryId) -> Option<QueryStatus> {
        self.run(id)?.life().status()
    }

    /// Cancels `id`. Queued chunks are released immediately, an in-flight
    /// DFS chunk aborts at its next task boundary, and the query settles
    /// with [`Terminal::Cancelled`](crate::Terminal::Cancelled)
    /// (committed work stays reported as the partial it is —
    /// [`QueryResult::is_partial`]). Returns true when
    /// this call made the transition; false if the query already
    /// terminated, its result was consumed, or the id is unknown.
    pub fn cancel(&self, id: QueryId) -> bool {
        let Some(run) = self.run(id) else {
            return false;
        };
        let mut life = run.life();
        let Some(effects) = life.cancel() else {
            return false;
        };
        self.inner.apply(&run, &mut life, effects);
        true
    }

    /// Blocks until `id` terminates and hands its result over. A result
    /// is delivered once: the service then forgets the query, so
    /// [`QueryService::status`] returns `None` and
    /// [`QueryService::cancel`] false for it, as for an id never issued.
    /// Its counts live on in the per-class records of
    /// [`QueryService::report`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`QueryService::submit`] or
    /// its result was already consumed by an earlier `wait`.
    pub fn wait(&self, id: QueryId) -> QueryResult {
        const GONE: &str = "unknown or already consumed query id";
        let run = self.run(id).expect(GONE);
        let mut life = run.life();
        while life.live() {
            life = run
                .settled
                .wait(life)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let result = life.take().expect(GONE);
        drop(life);
        lock(&self.inner.queries).remove(&id);
        result
    }

    /// The service's report subtree. `Deterministic` mode is built
    /// purely from commit-pipeline state — admission counters, plan
    /// cache, and one `class.<hash>` subtree per pattern class served
    /// (`hash` = [`Pattern::canonical_hash`], in ascending order) that
    /// sums its settled queries: counts per terminal, matches, vticks,
    /// committed / discarded chunks, plan-cache hits, exhaustive runs.
    /// It is identical across worker counts, execution modes and
    /// completion orders. `Full` mode adds the classes' summed wall
    /// latency, crash bookkeeping and the `lanes` subtree (what the
    /// lanes' private caches, pools and frontiers counted — which lane
    /// ran which chunk is timing).
    pub fn report(&self, mode: ReportMode) -> Report {
        let inner = &*self.inner;
        // One snapshot of the class table, taken before the admission lock
        // is let go (locks in order: admission, classes), so every id
        // issued is a submission admitted or shed.
        let (issued, classes) = {
            let next_id = lock(&inner.admission);
            (*next_id, lock(&inner.classes))
        };
        // The lifecycle counts are the classes' terminal tallies summed.
        let mut settled = BTreeMap::<&str, u64>::new();
        for class in &classes.all {
            for (&terminal, &n) in &class.tally.terminals {
                *settled.entry(terminal).or_default() += n;
            }
        }
        let count = |terminal: &str| settled.get(terminal).copied().unwrap_or(0);
        let mut service = Report::new();
        service.set("admitted", issued - count("rejected"));
        service.set(
            "completed",
            count("completed") + count("max_matches_reached"),
        );
        for terminal in ["cancelled", "deadline_exceeded", "failed"] {
            service.set(terminal, count(terminal));
        }
        service.set("degraded", count("degraded_partial"));
        service.set("rejected", count("rejected"));
        service.set("queue_depth", inner.pool.depth());
        if mode == ReportMode::Full {
            // Which chunk a crash finds a worker holding depends on the
            // grant stream — real observability, not deterministic
            // surface.
            let crashed = (0..inner.config.workers).filter(|&w| inner.pool.is_dead(w));
            service.set("worker_crashes", crashed.count());
            service.set(
                "requeued_chunks",
                inner.requeued_chunks.load(Ordering::Relaxed),
            );
            let total = lock(&inner.lanes);
            let mut lanes = lane_stats_report(&total.stats);
            lanes.set("busy_nanos", total.busy.as_nanos() as u64);
            lanes.set("fault_penalty_nanos", total.penalty.as_nanos() as u64);
            service.set_tree("lanes", lanes);
        }
        let pc = classes.plans;
        let mut plan_cache = Report::new();
        plan_cache.set("hits", pc.hits);
        plan_cache.set("misses", pc.misses);
        plan_cache.set("evictions", pc.evictions);
        plan_cache.set("entries", pc.entries);
        service.set_tree("plan_cache", plan_cache);
        service.set("feedback_replans", classes.replans());
        for (hash, same) in &classes.by_hash {
            // A class is reported once a query of it settled.
            let same = same.iter().map(|&at| &classes.all[at]);
            let settled = same.filter(|c| !c.tally.terminals.is_empty());
            for (i, class) in settled.enumerate() {
                let key = match i {
                    0 => format!("class.{hash}"),
                    _ => format!("class.{hash}.{i}"),
                };
                service.set_tree(&key, class.tally.report(mode));
            }
        }
        let mut report = Report::new();
        report.set_tree("service", service);
        report
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.inner.pool.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Inner {
    /// Resolves `pattern` to its class and the plan to run, under the
    /// admission lock: canonicalise once, find or create the class, and
    /// take its resident plan (a hit) or compile one from graph
    /// statistics (a miss, which may evict another class's plan). With
    /// feedback re-planning on, a class with observed exhaustive runs
    /// that was not re-planned yet swaps in a plan re-ranked from those
    /// cardinalities — once per class, ordered with every other
    /// submission. Returns the class's index, the plan, the placement
    /// mapping canonical positions to `pattern`'s vertices, and whether
    /// this was a hit.
    fn resolve(
        &self,
        id: QueryId,
        pattern: &Pattern,
    ) -> (usize, Arc<CachedPlan>, Vec<PatternVertex>, bool) {
        let form = pattern.canonical_form();
        let mut classes = lock(&self.classes);
        let at = classes.find_or_insert(form.pattern);
        let class = &mut classes.all[at];
        class.last_used = id;
        let cached = class.plan.clone();
        let replan = self.config.feedback_replanning && !class.replanned && !class.obs.is_empty();
        if cached.is_some() {
            classes.plans.hits += 1;
        } else {
            classes.miss();
        }
        if let (Some(plan), false) = (&cached, replan) {
            return (at, Arc::clone(plan), form.placement, true);
        }
        // Compile outside the table's lock, which every settling query
        // takes. Only `submit`, serialised by the admission lock, changes
        // a class's plan, so the class is still as it is left here.
        let class = &classes.all[at];
        let (canonical, obs) = (class.canonical.clone(), class.obs);
        drop(classes);
        let hit = cached.is_some();
        let resident = &self.resident;
        let mut plan = cached.unwrap_or_else(|| {
            let builder = PlanBuilder::new(&canonical);
            let builder =
                builder.graph_stats(resident.store().num_vertices(), resident.num_edges());
            CachedPlan::new(builder.best_plan())
        });
        if replan {
            let prior = ChungLuEstimator::from_degrees(resident.degrees());
            let est = FeedbackEstimator::new(prior, &plan.plan, &obs);
            plan = CachedPlan::new(PlanBuilder::new(&canonical).estimator(est).best_plan());
        }
        let mut classes = lock(&self.classes);
        let class = &mut classes.all[at];
        class.plan = Some(Arc::clone(&plan));
        class.replanned |= replan;
        (at, plan, form.placement, hit)
    }

    /// Folds a settled query into its pattern class's record. With
    /// feedback re-planning on, a run whose observations `feed` its class
    /// (see [`Effects::feed`]) adds its per-instruction cardinalities —
    /// exact for the plan that ran — to the class's observations until
    /// the class is re-planned (counter addition commutes, so the record
    /// is completion-order-independent).
    fn record(&self, class: usize, result: &QueryResult, feed: bool) {
        let mut classes = lock(&self.classes);
        let class = &mut classes.all[class];
        class.tally.add(result);
        if feed && self.config.feedback_replanning && !class.replanned {
            class.obs += result.metrics.obs;
        }
    }

    /// Applies what a transition of `run`'s lifecycle returned, under the
    /// run's lock: the stop bit, the inflight slot, the pool's drain (fed
    /// back to the lifecycle), and at settle the stamped result booked in
    /// its class and the waiters woken.
    fn apply(&self, run: &QueryRun, life: &mut Lifecycle, effects: Effects) {
        if effects.stop {
            run.terminated.store(true, Ordering::Release);
        }
        if effects.take_slot {
            self.inflight.fetch_add(1, Ordering::AcqRel);
        }
        if effects.drain {
            let released = life.released(self.pool.drain(run.id));
            self.apply(run, life, released);
        }
        if effects.release_slot {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
        }
        if let Some(result) = life.result_mut().filter(|_| effects.settle) {
            result.completion_index = self.completions.fetch_add(1, Ordering::SeqCst);
            result.wall = run.submitted_at.elapsed();
            self.record(run.class, result, effects.feed);
            run.settled.notify_all();
        }
    }
}

/// Virtual ticks of a chunk: one per task plus every instruction
/// execution and candidate enumeration — counts the hybrid-equivalence
/// suite pins as identical across execution modes, so a query's latency
/// (and its deadline semantics) is mode- and concurrency-independent.
/// Injected-fault penalties (backoff, timeout waits, slow shards) are
/// deliberately *excluded*: a recovered fault must not shift deadline
/// semantics, or results would depend on the fault seed.
fn chunk_vticks(tasks: usize, m: &TaskMetrics) -> u64 {
    tasks as u64 + benu_cluster::balance::vticks(m)
}

/// What a query's chunks need and nothing after them: its task list,
/// the map back to the submitted numbering and its fault gate. Only
/// tickets hold it, so it goes with the last of them.
struct Work {
    tasks: Vec<SearchTask>,
    /// `placement[i]` = submitted-pattern vertex at canonical position
    /// `i` (plans are compiled for the canonical numbering).
    placement: Vec<PatternVertex>,
    /// The result mode materialises embeddings.
    collect: bool,
    /// The query's fault gate, over the service fault plan scoped by
    /// query id: each query draws its own per-request decision stream
    /// while structural faults (outages, slow shards, crashes) stay
    /// shared. `None` serves faultlessly.
    gate: Option<FaultGate>,
}

/// One admitted query as the pool sees it: the query, its work and the
/// service its outcomes are booked with. Tickets live in the queue and
/// in lanes' hands only while the query has chunks outstanding.
#[derive(Clone)]
struct Ticket {
    inner: Arc<Inner>,
    run: Arc<QueryRun>,
    work: Arc<Work>,
}

impl Ticket {
    /// The tasks of `chunk`.
    fn chunk_tasks(&self, chunk: usize) -> &[SearchTask] {
        let chunk_tasks = self.inner.config.chunk_tasks;
        let start = chunk * chunk_tasks;
        let tasks = &self.work.tasks;
        &tasks[start..tasks.len().min(start + chunk_tasks)]
    }
}

impl Job for Ticket {
    fn spec(&self) -> Spec<'_> {
        Spec {
            plan: &self.run.plan.compiled,
            collect: self.work.collect,
            // Budgets are evaluated over the in-order chunk stream.
            hand_over: HandOver::PerChunk,
        }
    }

    fn start(&self, _machine: usize, chunk: usize, _stolen: bool) -> &[SearchTask] {
        self.run.life().start();
        self.chunk_tasks(chunk)
    }

    fn reads(&self, machine: usize) -> (&Transport, Option<&FaultGate>) {
        (&self.inner.transports[machine], self.work.gate.as_ref())
    }

    /// Terminal decided: granted chunks are skipped, a DFS chunk aborts
    /// at its next task boundary.
    fn stopped(&self) -> bool {
        self.run.terminated.load(Ordering::Acquire)
    }

    /// Hands one chunk's outcome to the run's lifecycle. A chunk of a
    /// terminated query is accounted as discarded; a chunk whose access
    /// stream hit an unrecoverable fault — or whose engine panicked —
    /// delivers its [`Failure`] instead of results: whatever partial
    /// matches the engine produced before the failure went with its
    /// executor, which is what keeps failure outcomes deterministic.
    fn chunk_done(&self, _machine: usize, chunk: usize, outcome: Outcome) {
        let (inner, run) = (&*self.inner, &self.run);
        let executed = match outcome {
            Outcome::Dropped => None,
            Outcome::Failed(failure) => Some(Err(failure)),
            Outcome::Done { metrics, mut rows } => {
                // The lane's rows are embeddings of the canonical
                // pattern: permute each in place back to the submitted
                // numbering (`row[placement[i]] = f[i]`), then restore
                // sorted order — the chunk's rows never live in a second
                // buffer, and none of this runs for a chunk that is not
                // delivered.
                let placement = &self.work.placement;
                let mut row = vec![0; placement.len()];
                for i in 0..rows.len() {
                    for (&v, &to) in rows.get(i).iter().zip(placement) {
                        row[to] = v;
                    }
                    rows.set_row(i, &row);
                }
                rows.sort();
                Some(Ok(ExecutedChunk {
                    count: metrics.matches,
                    matches: rows,
                    vticks: chunk_vticks(self.chunk_tasks(chunk).len(), &metrics),
                    metrics,
                }))
            }
        };
        let mut life = run.life();
        let effects = life.chunk(chunk, executed);
        inner.apply(run, &mut life, effects);
    }

    /// A query hands its rows over per chunk: the lane's executor has
    /// none left.
    fn lane_done(&self, _machine: usize, part: LanePart, _rows: Option<MatchSet>) {
        *lock(&self.inner.lanes) += part;
    }

    /// A serving worker died holding this query's chunk and survivors
    /// remain: the crash is invisible to results. The chunk re-executes
    /// byte-identically — fault decisions are stateless per access, and
    /// the query's gate stays in epoch 1 for exactly that reason. (If
    /// the query settled meanwhile, the survivor that is granted the
    /// chunk drops it.)
    fn handed_back(&self, _machine: usize, chunks: &[usize]) {
        self.inner
            .requeued_chunks
            .fetch_add(chunks.len() as u64, Ordering::Relaxed);
    }

    /// The last serving worker died: no survivor can ever run this
    /// query's outstanding chunks. It fails with the pool's `failure` —
    /// a structured terminal, not a hang and not an abort.
    fn lost(&self, chunks: &[usize], failure: Failure) {
        let mut life = self.run.life();
        let effects = life.lost(chunks.len(), failure);
        self.inner.apply(&self.run, &mut life, effects);
    }
}
