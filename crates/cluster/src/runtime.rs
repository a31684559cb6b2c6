//! The batch runtime: one plan, one job on the lane pool.
//!
//! `Cluster` is a [`Resident`] deployment — the sharded store and one
//! persistent database cache per worker machine, surviving across `run`
//! calls — plus what turns a plan into a [`Job`]: the §V-B split, the
//! paper's even shuffle that gives every task a home machine, chunks of
//! up to [`CHUNK_TASKS`] consecutive tasks of one home — the [`Layout`],
//! which [`pool::replay`] also runs — and one [`Transport`]
//! (and, with a [`FaultPlan`], one [`FaultGate`]) per machine. A run
//! admits that job to a [`Pool`] of its own, spawns `workers ×
//! threads_per_worker` scoped lanes on [`pool::lane_loop`] for the
//! duration of the call, and assembles the [`RunOutcome`] from what the
//! lanes handed over. See DESIGN.md "Runtime".
//!
//! With a [`FaultPlan`] installed (see [`Cluster::set_fault_plan`]), a
//! run also exercises BENU's recovery story: each machine's gate retries
//! injected store faults with capped backoff, and a machine that reaches
//! its planned crash boundary dies with everything it ran — the pool
//! hands its chunks to the survivors and this job drops its results.
//! Because tasks are idempotent and a dead machine's results are
//! discarded wholesale, match counts are byte-identical to a fault-free
//! run; the [`RecoveryReport`] in the outcome records what the machinery
//! absorbed. [`Cluster::run`] returns `Err` only for unrecoverable
//! faults (a shard outage outlasting the retry policy, or every worker
//! crashing).

use crate::balance::CostProfile;
use crate::config::{ClusterConfig, ExecMode};
use crate::failure::{Cause, Failure};
use crate::gate::FaultGate;
use crate::pool::{
    self, HandOver, Job, Lane, LanePart, Outcome, Pool, ReplayChunk, Spec, CHUNK_TASKS,
};
use crate::report::{RecoveryReport, RunOutcome, WorkerReport};
use crate::resident::{Resident, Split};
use crate::transport::Transport;
use benu_cache::CacheStats;
use benu_engine::{CompiledPlan, MatchSet, SearchTask};
use benu_fault::FaultPlan;
use benu_graph::Graph;
use benu_plan::ExecutionPlan;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Chunks a DFS run cuts per lane (at most [`CHUNK_TASKS`] tasks each).
const DFS_CHUNKS_PER_LANE: usize = 64;

/// A loaded cluster: a [`Resident`] deployment — the data graph in the
/// sharded store, one persistent database cache per worker machine
/// (warm across runs, mirroring the paper's long-lived reducer
/// processes; [`Cluster::clear_caches`] for a cold-cache run) — that
/// runs any number of plans, each as one job on the lane pool.
pub struct Cluster {
    resident: Resident,
    config: ClusterConfig,
    fault_plan: Option<Arc<FaultPlan>>,
}

/// What the lanes of one run have reported so far.
struct Progress {
    /// The first unrecoverable failure; the run returns it.
    error: Option<Failure>,
    /// Per machine, what each visit of its lanes handed over. A machine
    /// that died did not outlive the job: its parts are never read.
    parts: Vec<Vec<(LanePart, Option<MatchSet>)>>,
    steals: Vec<u64>,
    tasks_requeued: u64,
    /// The crash epoch: 1 + machines whose chunks went back so far.
    epoch: u32,
}

/// A batch run's chunk layout: every task homed on a machine, the
/// machines' shares laid end to end and each cut front to back into
/// chunks. [`Cluster::run`] admits it to the pool; [`pool::replay`] runs
/// the same layout in virtual time.
#[derive(Debug)]
pub struct Layout {
    /// The tasks, machine 0's share first.
    tasks: Vec<SearchTask>,
    /// Chunk `c` is `tasks[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<usize>,
    /// Chunk `c`'s home machine.
    homes: Vec<usize>,
    /// Per machine, the tasks homed on it.
    assigned: Vec<usize>,
}

impl Layout {
    /// Homes `tasks` on `machines` machines of `lanes` lanes each — dealt
    /// round-robin, the paper's even shuffle, or with a `profile`
    /// longest-processing-time-first onto the least-loaded machine, each
    /// share heaviest-first (the steal priority) — and cuts the shares
    /// into chunks for `exec_mode`.
    pub fn new(
        tasks: Vec<SearchTask>,
        machines: usize,
        lanes: usize,
        exec_mode: ExecMode,
        profile: Option<&CostProfile>,
    ) -> Self {
        let total = tasks.len();
        let shares: Vec<Vec<SearchTask>> = match profile {
            Some(profile) => profile.assign_lpt(tasks, machines),
            None => (0..machines)
                .map(|w| tasks.iter().skip(w).step_by(machines).copied().collect())
                .collect(),
        };
        // A hybrid chunk is one frontier batch — its length decides which
        // fetches siblings share — so it is fixed. Under DFS a chunk is
        // only a scheduling quantum: short enough that every lane gets
        // `DFS_CHUNKS_PER_LANE` of them, so the last lane running holds
        // the others up for a few percent of the run at most.
        let chunk_len = match exec_mode {
            ExecMode::Hybrid => CHUNK_TASKS,
            ExecMode::Dfs => {
                (total / (machines * lanes * DFS_CHUNKS_PER_LANE)).clamp(1, CHUNK_TASKS)
            }
        };
        let mut layout = Layout {
            tasks: Vec::with_capacity(total),
            bounds: Vec::new(),
            homes: Vec::new(),
            assigned: shares.iter().map(Vec::len).collect(),
        };
        for (w, share) in shares.into_iter().enumerate() {
            let end = layout.tasks.len() + share.len();
            for start in (layout.tasks.len()..end).step_by(chunk_len) {
                layout.bounds.push(start);
                layout.homes.push(w);
            }
            layout.tasks.extend(share);
        }
        layout.bounds.push(total);
        layout
    }

    fn range(&self, chunk: usize) -> Range<usize> {
        self.bounds[chunk]..self.bounds[chunk + 1]
    }

    /// The chunks as [`pool::replay`] runs them, each taking the summed
    /// `vticks` of its tasks.
    pub fn replay_chunks(&self, vticks: impl Fn(&SearchTask) -> u64) -> Vec<ReplayChunk> {
        (0..self.homes.len())
            .map(|c| ReplayChunk {
                home: self.homes[c],
                tasks: self.range(c).len(),
                vticks: self.tasks[self.range(c)].iter().map(&vticks).sum(),
            })
            .collect()
    }
}

/// One `run` call as a [`Job`]: the plan, its [`Layout`], and per
/// machine the transport and gate its lanes read through.
struct BatchJob<'a> {
    compiled: &'a CompiledPlan,
    layout: Layout,
    transports: Vec<Transport>,
    gates: Option<Vec<FaultGate>>,
    collect: bool,
    stop: AtomicBool,
    progress: Mutex<Progress>,
}

impl BatchJob<'_> {
    /// What the lanes reported, whatever a lane that unwound holding the
    /// lock left of it: the run fails with `LanePanicked` anyway.
    fn progress(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tasks_in(&self, chunks: &[usize]) -> usize {
        chunks.iter().map(|&c| self.layout.range(c).len()).sum()
    }

    /// Records `failure` — stamped with the crash epoch it happened in
    /// — if it is the first, and stops the run: lanes drop what they are
    /// running and every chunk still queued.
    fn fail(&self, failure: Failure) {
        let mut progress = self.progress();
        let attempt = progress.epoch;
        progress.error.get_or_insert(Failure { attempt, ..failure });
        drop(progress);
        self.stop.store(true, Ordering::Release);
    }
}

impl Job for &BatchJob<'_> {
    fn spec(&self) -> Spec<'_> {
        Spec {
            plan: self.compiled,
            collect: self.collect,
            hand_over: HandOver::AtEnd,
        }
    }

    fn start(&self, machine: usize, chunk: usize, stolen: bool) -> &[SearchTask] {
        let range = self.layout.range(chunk);
        if stolen {
            self.progress().steals[machine] += range.len() as u64;
        }
        &self.layout.tasks[range]
    }

    fn reads(&self, machine: usize) -> (&Transport, Option<&FaultGate>) {
        let gate = self.gates.as_ref().map(|gates| &gates[machine]);
        (&self.transports[machine], gate)
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn chunk_done(&self, _machine: usize, _chunk: usize, outcome: Outcome) {
        // Completed chunks arrive with their lane's part; a dropped one
        // belongs to a run that is already failing.
        if let Outcome::Failed(failure) = outcome {
            self.fail(failure);
        }
    }

    fn lane_done(&self, machine: usize, part: LanePart, rows: Option<MatchSet>) {
        self.progress().parts[machine].push((part, rows));
    }

    fn handed_back(&self, _machine: usize, chunks: &[usize]) {
        let mut progress = self.progress();
        progress.tasks_requeued += self.tasks_in(chunks) as u64;
        progress.epoch += 1;
        for gate in self.gates.iter().flatten() {
            gate.advance_epoch();
        }
    }

    fn lost(&self, _chunks: &[usize], failure: Failure) {
        self.fail(failure);
    }
}

impl Cluster {
    /// Loads `g` into a store sharded across the configured workers
    /// (Algorithm 2 line 1 — the pattern-independent preprocessing) and
    /// creates the per-machine caches.
    pub fn new(g: &Graph, config: ClusterConfig) -> Self {
        config.validate();
        Cluster {
            resident: Resident::load(
                g,
                config.workers,
                config.workers,
                &config.data,
                config.cache_shards,
            ),
            config,
            fault_plan: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The loaded deployment: store, caches, order, task split.
    pub fn resident(&self) -> &Resident {
        &self.resident
    }

    /// Mutable access to the deployment, for [`Resident::corrupt`]
    /// between runs.
    pub fn resident_mut(&mut self) -> &mut Resident {
        &mut self.resident
    }

    /// Installs (or removes, with `None`) the fault plan subsequent runs
    /// inject from. Transient faults and timeouts are retried per the
    /// plan's own [`FaultPlan::retry`] policy; planned worker
    /// crashes hand the dead machine's chunks to the survivors.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.map(Arc::new);
    }

    /// Drops every cached adjacency set and resets the cache counters —
    /// the cold-cache starting point of the Exp-3 ablation. Run-to-run
    /// warmth is otherwise deliberate.
    pub fn clear_caches(&self) {
        self.resident.clear_caches();
    }

    /// Runs `plan`, counting matches (Algorithm 2 lines 3–8). Store
    /// counters are reset at entry so the outcome reflects this run only;
    /// cache contents persist from earlier runs (cache *stats* in the
    /// outcome are per-run deltas). Concurrent runs on one cluster each
    /// return their exact count; the store and cache counters they
    /// report are then shared between them.
    ///
    /// # Errors
    ///
    /// Aborts with a [`Failure`] when a task queries a vertex the
    /// store does not hold, a task panics, an injected shard outage
    /// outlasts the retry policy, or every worker crashes with work
    /// still queued. Faults the recovery machinery absorbs (retried
    /// transients, re-executed crashes) do not error — they are reported
    /// in [`RunOutcome::recovery`].
    pub fn run(&self, plan: &ExecutionPlan) -> Result<RunOutcome, Failure> {
        Ok(self.run_inner(plan, false)?.0)
    }

    /// Runs `plan` and additionally collects every (expanded) embedding,
    /// sorted. Every embedding is materialised once, into a buffer of its
    /// final size: a lane keeps a compressed plan's codes until it
    /// finishes, then expands them into one exact buffer and sorts it in
    /// place on its own thread; the merge grows the largest lane's buffer
    /// to the total and fills it from the back, freeing each other part
    /// as it empties. The high-water mark is the embeddings' own bytes
    /// plus the larger of the codes (while lanes finish) and the parts
    /// other than the largest (while they merge) — at most 1.5 × the
    /// embeddings' bytes on two lanes, plus the run's own state, with no
    /// per-embedding allocation anywhere.
    ///
    /// # Errors
    ///
    /// See [`Cluster::run`].
    pub fn run_collect(&self, plan: &ExecutionPlan) -> Result<(RunOutcome, MatchSet), Failure> {
        self.run_inner(plan, true)
    }

    fn run_inner(
        &self,
        plan: &ExecutionPlan,
        collect: bool,
    ) -> Result<(RunOutcome, MatchSet), Failure> {
        let resident = &self.resident;
        let compiled = CompiledPlan::compile(plan);
        let p = self.config.workers;
        let (tasks, effective_tau) = resident.tasks(&compiled, Split::Fixed(self.config.tau));
        let total_tasks = tasks.len();
        let mut layout = Layout::new(
            tasks,
            p,
            self.config.threads_per_worker,
            self.config.data.exec_mode,
            None,
        );
        // Admission consumes the homes; the run keeps only the chunks.
        let homes = std::mem::take(&mut layout.homes);
        resident.store().reset_stats();
        let job = BatchJob {
            compiled: &compiled,
            layout,
            transports: (0..p).map(|_| resident.transport()).collect(),
            // One gate per worker machine: its verdicts stand in front of
            // the machine's cache, shared by the machine's threads.
            gates: self
                .fault_plan
                .as_ref()
                .map(|plan| (0..p).map(|_| resident.gate(Arc::clone(plan))).collect()),
            collect,
            stop: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                error: None,
                parts: (0..p).map(|_| Vec::new()).collect(),
                steals: vec![0; p],
                tasks_requeued: 0,
                epoch: 1,
            }),
        };
        let cache_stats_before: Vec<CacheStats> =
            resident.caches().iter().map(|c| c.stats()).collect();
        let pool = Pool::new(p, self.config.scheduler, self.fault_plan.as_deref());
        pool.admit(0, &job, 1, homes.into_iter().map(Some).enumerate())
            .expect("a new pool has every machine alive");
        pool.close();

        let started = Instant::now();
        let mut panicked = None;
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..p * self.config.threads_per_worker)
                .map(|i| {
                    let lane = Lane {
                        machine: i / self.config.threads_per_worker,
                        triangle_cache_entries: self.config.triangle_cache_entries,
                        sharers: self.config.threads_per_worker,
                    };
                    let pool = &pool;
                    (
                        lane.machine,
                        scope.spawn(move || pool::lane_loop(pool, resident, lane)),
                    )
                })
                .collect();
            for (machine, lane) in lanes {
                if lane.join().is_err() {
                    panicked.get_or_insert(Failure {
                        cause: Cause::LanePanicked,
                        task: None,
                        machine,
                        attempt: 1,
                    });
                }
            }
        });
        let elapsed = started.elapsed();
        let dead: Vec<bool> = (0..p).map(|w| pool.is_dead(w)).collect();
        drop(pool);

        let BatchJob {
            transports,
            gates,
            progress,
            ..
        } = job;
        let progress = progress
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(err) = progress.error.or(panicked) {
            return Err(err);
        }
        let absorbed: Vec<RecoveryReport> =
            gates.iter().flatten().map(FaultGate::absorbed).collect();

        let mut reports: Vec<WorkerReport> = Vec::with_capacity(p);
        let mut lane_matches: Vec<MatchSet> = Vec::new();
        for (w, mut parts) in progress.parts.into_iter().enumerate() {
            if dead[w] {
                // The dead machine's results are discarded wholesale:
                // every chunk it ran, the survivors ran again.
                parts.clear();
            }
            // One part per lane visit; each part's sorted rows go to the
            // k-way merge as they are, everything else adds up.
            let mut total = LanePart::default();
            let mut thread_busy = Vec::with_capacity(parts.len());
            for (part, rows) in parts {
                thread_busy.push(part.busy);
                lane_matches.extend(rows);
                total += part;
            }
            let mut report = WorkerReport {
                worker: w,
                tasks: job.layout.assigned[w],
                steals: progress.steals[w],
                metrics: total.metrics,
                busy_time: total.busy,
                tasks_executed: total.executed,
                thread_busy,
                triangle_cache: total.stats.triangle_cache,
                pool: total.stats.pool,
                frontier: total.stats.frontier,
                ..WorkerReport::default()
            };
            // Per-run cache effectiveness: delta against the persistent
            // cache's counters at run start, plus the tier's hits the
            // lanes answered themselves.
            let now = resident.caches()[w].stats();
            let before = cache_stats_before[w];
            report.cache = CacheStats {
                hits: now.hits - before.hits + total.stats.db_cache_hits,
                misses: now.misses - before.misses,
                evictions: now.evictions - before.evictions,
            };
            report.comm_bytes = transports[w].bytes();
            report.comm_requests = transports[w].requests();
            report.batch_round_trips = transports[w].batch_round_trips();
            reports.push(report);
        }

        let mut recovery = RecoveryReport {
            worker_crashes: dead.iter().filter(|&&dead| dead).count() as u64,
            tasks_requeued: progress.tasks_requeued,
            recovery_passes: u64::from(progress.epoch - 1),
            ..RecoveryReport::default()
        };
        for &a in &absorbed {
            recovery += a;
        }
        if let Some(plan) = &self.fault_plan {
            // Distinct shards the plan held dark during any epoch this
            // run reached — a pure function of (plan, epochs), so replays
            // agree on it.
            recovery.shard_outages = (0..resident.store().num_shards())
                .filter(|&s| (1..=progress.epoch).any(|epoch| plan.outage_at(s, epoch)))
                .count() as u64;
        }
        let kv = resident.store().stats();

        let mut metrics = benu_engine::TaskMetrics::default();
        let mut frontier = benu_engine::FrontierStats::default();
        for r in &reports {
            metrics += r.metrics;
            frontier += r.frontier;
        }
        let outcome = RunOutcome {
            total_matches: metrics.matches,
            elapsed,
            metrics,
            workers: reports,
            kv,
            kv_shards: (0..resident.store().num_shards())
                .map(|s| resident.store().shard_stats(s))
                .collect(),
            total_tasks,
            effective_tau,
            scheduler: self.config.scheduler,
            exec_mode: self.config.data.exec_mode,
            codec: self.config.data.codec,
            frontier,
            recovery,
        };
        Ok((outcome, MatchSet::merge_sorted(lane_matches)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SchedulerKind;
    use crate::transport::FetchError;
    use benu_engine::task::auto_tau;
    use benu_fault::{FaultKind, RetryPolicy};
    use benu_graph::{gen, VertexId};
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;
    use std::time::Duration;

    fn small_cluster(g: &Graph, workers: usize, threads: usize) -> Cluster {
        Cluster::new(
            g,
            ClusterConfig::builder()
                .workers(workers)
                .threads_per_worker(threads)
                .cache_capacity_bytes(1 << 20)
                .tau(20)
                .build(),
        )
    }

    #[test]
    fn counts_triangles_in_k6() {
        let g = gen::complete(6);
        let cluster = small_cluster(&g, 2, 2);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let outcome = cluster.run(&plan).unwrap();
        assert_eq!(outcome.total_matches, 20);
        assert_eq!(outcome.total_tasks, 6);
        let executed: usize = outcome.workers.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(executed, 6);
        assert!(outcome.recovery.is_clean(), "no fault plan, no recovery");
    }

    #[test]
    fn feedback_replanning_is_deterministic_and_count_preserving() {
        let g = gen::barabasi_albert(250, 4, 9);
        let pattern = queries::q1();
        let cluster = small_cluster(&g, 2, 2);
        let prior = benu_plan::ChungLuEstimator::from_graph(&g);
        // Cold plan: Chung-Lu prior (no observation yet). Must be
        // uncompressed so every enumeration level records a slot.
        let cold = PlanBuilder::new(&pattern)
            .estimator(prior.clone())
            .best_plan();
        let expected = benu_engine::count_embeddings(&cold, &g);
        let outcome = cluster.run(&cold).unwrap();
        assert_eq!(outcome.total_matches, expected);
        assert!(
            !outcome.metrics.obs.is_empty(),
            "run must record observations"
        );

        // Warm plan: re-planned from the observed cardinalities.
        let replan = || {
            let est = benu_plan::FeedbackEstimator::new(prior.clone(), &cold, &outcome.metrics.obs);
            PlanBuilder::new(&pattern).estimator(est).best_plan()
        };
        let warm = replan();
        warm.validate().unwrap();
        assert_eq!(cluster.run(&warm).unwrap().total_matches, expected);

        // Byte-determinism of re-planning: same observation, same plan.
        let warm2 = replan();
        assert_eq!(warm.matching_order, warm2.matching_order);
        assert_eq!(warm.instructions, warm2.instructions);
    }

    #[test]
    fn result_is_independent_of_cluster_shape() {
        let g = gen::barabasi_albert(150, 4, 3);
        let plan = PlanBuilder::new(&queries::q1()).best_plan();
        let expected = benu_engine::count_embeddings(&plan, &g);
        for (workers, threads) in [(1, 1), (2, 3), (5, 2)] {
            let cluster = small_cluster(&g, workers, threads);
            let outcome = cluster.run(&plan).unwrap();
            assert_eq!(
                outcome.total_matches, expected,
                "{workers}x{threads} cluster changed the count"
            );
        }
    }

    #[test]
    fn result_is_independent_of_cache_capacity_and_tau() {
        let g = gen::barabasi_albert(120, 5, 8);
        let plan = PlanBuilder::new(&queries::q4())
            .compressed(true)
            .best_plan();
        let mut counts = std::collections::HashSet::new();
        for (capacity, tau) in [(0usize, 0usize), (1 << 12, 10), (1 << 24, 500)] {
            let cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(3)
                    .threads_per_worker(2)
                    .cache_capacity_bytes(capacity)
                    .tau(tau)
                    .build(),
            );
            counts.insert(cluster.run(&plan).unwrap().total_matches);
        }
        assert_eq!(counts.len(), 1, "configuration changed results: {counts:?}");
    }

    #[test]
    fn collected_matches_agree_with_sequential_engine() {
        // One lane, two lanes of one worker, six lanes of three: the
        // merge sees one part, two, and many — and must give the rows of
        // a single sorted engine pass, in order, in either execution mode.
        let g = gen::barabasi_albert(400, 5, 21);
        let patterns = [
            ("chordal_square", queries::chordal_square()),
            ("q4", queries::q4()),
            ("q5", queries::q5()),
        ];
        for (name, pattern) in &patterns {
            for compressed in [false, true] {
                let plan = PlanBuilder::new(pattern).compressed(compressed).best_plan();
                let expected = benu_engine::collect_embeddings(&plan, &g);
                assert!(!expected.is_empty(), "{name}: nothing to collect");
                for (workers, threads) in [(1, 1), (1, 2), (3, 2)] {
                    for mode in [ExecMode::Dfs, ExecMode::Hybrid] {
                        let config = ClusterConfig::builder()
                            .workers(workers)
                            .threads_per_worker(threads)
                            .tau(20)
                            .exec_mode(mode)
                            .build();
                        let (outcome, matches) =
                            Cluster::new(&g, config).run_collect(&plan).unwrap();
                        let ctx =
                            format!("{name} compressed={compressed} {workers}x{threads} {mode:?}");
                        assert_eq!(outcome.total_matches as usize, matches.len(), "{ctx}");
                        assert!(matches == expected, "{ctx}: rows or order diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn communication_accounting_is_consistent() {
        let g = gen::barabasi_albert(200, 4, 13);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = small_cluster(&g, 2, 2);
        let outcome = cluster.run(&plan).unwrap();
        // Worker-level byte counts must equal the store's own accounting.
        assert_eq!(outcome.communication_bytes(), outcome.kv.bytes);
        assert!(outcome.kv.requests > 0);
        // Cache misses equal values served by the store (round trips and
        // keys coincide here because DFS execution never batches).
        let misses: u64 = outcome.workers.iter().map(|w| w.cache.misses).sum();
        assert_eq!(misses, outcome.kv.keys);
        assert_eq!(outcome.kv.keys, outcome.kv.requests);
        let requests: u64 = outcome.workers.iter().map(|w| w.comm_requests).sum();
        assert_eq!(requests, outcome.kv.requests);
    }

    #[test]
    fn larger_cache_reduces_communication() {
        let g = gen::barabasi_albert(300, 6, 4);
        let plan = PlanBuilder::new(&queries::q4()).best_plan();
        let run_with_capacity = |capacity: usize| {
            let cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(2)
                    .threads_per_worker(2)
                    .cache_capacity_bytes(capacity)
                    .build(),
            );
            cluster.run(&plan).unwrap()
        };
        let cold = run_with_capacity(0);
        let warm = run_with_capacity(64 << 20);
        assert_eq!(cold.total_matches, warm.total_matches);
        assert!(
            warm.communication_bytes() < cold.communication_bytes() / 2,
            "cache must cut communication (cold {}, warm {})",
            cold.communication_bytes(),
            warm.communication_bytes()
        );
        assert!(warm.cache_hit_rate() > 0.5);
    }

    #[test]
    fn caches_persist_across_runs_until_cleared() {
        let g = gen::barabasi_albert(200, 5, 6);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        // One thread per worker: concurrent threads can race on the same
        // cold miss and double-fetch, which would make the exact
        // cold-vs-cold byte comparison below nondeterministic.
        let cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(2)
                .threads_per_worker(1)
                .cache_capacity_bytes(64 << 20)
                .build(),
        );
        let first = cluster.run(&plan).unwrap();
        let second = cluster.run(&plan).unwrap();
        assert_eq!(first.total_matches, second.total_matches);
        assert!(
            second.communication_bytes() < first.communication_bytes() / 10,
            "second run must be nearly free on a warm cache ({} vs {})",
            second.communication_bytes(),
            first.communication_bytes()
        );
        cluster.clear_caches();
        let cold = cluster.run(&plan).unwrap();
        assert_eq!(
            cold.communication_bytes(),
            first.communication_bytes(),
            "clear_caches must restore the cold-cache cost"
        );
    }

    #[test]
    fn per_run_cache_stats_are_deltas() {
        let g = gen::erdos_renyi_gnm(80, 300, 3);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = small_cluster(&g, 2, 1);
        let first = cluster.run(&plan).unwrap();
        let second = cluster.run(&plan).unwrap();
        let misses = |o: &RunOutcome| o.workers.iter().map(|w| w.cache.misses).sum::<u64>();
        assert!(misses(&first) > 0);
        assert_eq!(
            misses(&second),
            0,
            "warm second run must report zero per-run misses"
        );
    }

    #[test]
    fn splitting_creates_more_tasks_on_skewed_graphs() {
        let g = gen::star(100);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let unsplit = Cluster::new(&g, ClusterConfig::builder().workers(2).tau(0).build());
        let split = Cluster::new(&g, ClusterConfig::builder().workers(2).tau(10).build());
        let a = unsplit.run(&plan).unwrap();
        let b = split.run(&plan).unwrap();
        assert_eq!(a.total_matches, b.total_matches);
        assert!(b.total_tasks > a.total_tasks);
    }

    /// An adversarial placement for the static shuffle: cliques laid out
    /// so every member's id is ≡ 0 (mod `spacing`). With tau = 0 the
    /// task index equals the vertex id, so round-robin over `spacing`
    /// workers parks every clique task — all the triangle work — on
    /// worker 0, while the other workers draw only isolated vertices.
    fn cliques_on_multiples_of(spacing: usize, cliques: usize, size: usize) -> Graph {
        let mut edges = Vec::new();
        for c in 0..cliques {
            let base = c * size * spacing;
            for i in 0..size {
                for j in (i + 1)..size {
                    edges.push((
                        (base + i * spacing) as VertexId,
                        (base + j * spacing) as VertexId,
                    ));
                }
            }
        }
        Graph::from_edges(edges)
    }

    #[test]
    fn work_stealing_improves_balance_on_skewed_placement() {
        // 4 workers × 1 thread; all clique members at ids ≡ 0 (mod 4) so
        // the static round-robin shuffle lands every heavy task on
        // worker 0.
        let workers = 4;
        let g = cliques_on_multiples_of(workers, 2, 40);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let run = |kind: SchedulerKind| {
            let cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(workers)
                    .threads_per_worker(1)
                    .tau(0)
                    .cache_capacity_bytes(0)
                    .scheduler(kind)
                    .build(),
            );
            cluster.run(&plan).unwrap()
        };
        let stat = run(SchedulerKind::Static);
        let ws = run(SchedulerKind::WorkStealing);
        assert_eq!(stat.total_matches, ws.total_matches);
        assert_eq!(stat.total_steals(), 0);
        assert!(ws.total_steals() > 0, "idle workers must have stolen");
        // Deterministic work (vticks), not wall-clock busy time. Static
        // leaves one of four workers every clique task and the others
        // one store probe per isolated vertex: max/mean just under 4.
        let (i_stat, i_ws) = (stat.work_imbalance(), ws.work_imbalance());
        assert!(i_stat > 3.9, "static must park the work on worker 0");
        assert!(
            i_ws < i_stat,
            "work stealing must improve the work imbalance (static {i_stat:.2}, ws {i_ws:.2})"
        );
        // Migration must be visible in the per-worker reports.
        let moved = ws.workers.iter().any(|w| w.tasks_executed != w.tasks);
        assert!(moved, "some tasks must have migrated");
    }

    #[test]
    fn invariants_hold_under_both_schedulers() {
        let g = gen::barabasi_albert(150, 4, 9);
        let plan = PlanBuilder::new(&queries::q1()).best_plan();
        let expected = benu_engine::count_embeddings(&plan, &g);
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(3)
                    .threads_per_worker(2)
                    .scheduler(kind)
                    .build(),
            );
            let outcome = cluster.run(&plan).unwrap();
            assert_eq!(outcome.total_matches, expected, "{kind} changed the count");
            assert_eq!(outcome.scheduler, kind);
            let executed: usize = outcome.workers.iter().map(|w| w.tasks_executed).sum();
            assert_eq!(
                executed, outcome.total_tasks,
                "{kind} lost or duplicated tasks"
            );
            let assigned: usize = outcome.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(assigned, outcome.total_tasks);
        }
    }

    /// Store damage applied through [`Resident::corrupt`] (while the task
    /// list still names the vertex) must surface structured errors —
    /// never a panic, never a silent undercount — under both schedulers:
    /// a dropped vertex as [`FetchError::Missing`], rotten bytes (on
    /// every replica) as [`FetchError::Corrupt`], both naming the task.
    #[test]
    fn store_corruption_is_structured_across_schedulers() {
        let g = gen::barabasi_albert(80, 3, 13);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let damaged: VertexId = 7;
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let cluster = || {
                Cluster::new(
                    &g,
                    ClusterConfig::builder()
                        .workers(2)
                        .threads_per_worker(1)
                        .cache_capacity_bytes(1 << 20)
                        .scheduler(kind)
                        .build(),
                )
            };
            let mut missing = cluster();
            missing
                .resident
                .corrupt(|store| assert!(store.remove_vertex(damaged)));
            let failure = missing.run(&plan).expect_err("a vertex is gone");
            match failure.cause {
                Cause::Fetch(FetchError::Missing { vertex, shard }) => {
                    assert_eq!(vertex, damaged, "{kind}: wrong vertex blamed");
                    assert_eq!(shard, missing.resident.store().shard_of(damaged));
                }
                other => panic!("{kind}: expected Missing, got {other:?}"),
            }
            assert!(failure.task.is_some() && failure.name() == "corrupt_value");
            let mut rotten = cluster();
            rotten
                .resident
                .corrupt(|store| assert!(store.corrupt_value(damaged)));
            let failure = rotten.run(&plan).expect_err("a value is rotten");
            match failure.cause {
                Cause::Fetch(FetchError::Corrupt(error)) => {
                    assert_eq!(error.vertex, damaged, "{kind}: wrong vertex blamed");
                }
                other => panic!("{kind}: expected Corrupt, got {other:?}"),
            }
            assert!(failure.task.is_some() && failure.name() == "corrupt_value");
        }
    }

    #[test]
    fn delta_codec_cuts_store_bytes_with_identical_matches() {
        let g = gen::barabasi_albert(150, 5, 29);
        let plan = PlanBuilder::new(&queries::q1()).best_plan();
        let run = |codec: benu_kvstore::CodecKind| {
            let cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(2)
                    .threads_per_worker(1)
                    .cache_capacity_bytes(0) // every fetch pays wire bytes
                    .codec(codec)
                    .build(),
            );
            cluster.run_collect(&plan).unwrap()
        };
        let (raw, raw_matches) = run(benu_kvstore::CodecKind::RawU32);
        let (delta, delta_matches) = run(benu_kvstore::CodecKind::DeltaVarint);
        assert_eq!(raw.total_matches, delta.total_matches);
        assert_eq!(raw_matches, delta_matches, "codecs must be byte-identical");
        assert!(
            delta.communication_bytes() < raw.communication_bytes(),
            "delta-varint must shrink the wire ({} vs {})",
            delta.communication_bytes(),
            raw.communication_bytes()
        );
        // The compressed wire volume still reconciles with the store.
        assert_eq!(delta.communication_bytes(), delta.kv.bytes);
    }

    #[test]
    fn adaptive_tau_splits_hubs_and_keeps_counts_exact() {
        // A star hub serializes behind one worker under static τ = 0;
        // the τ `auto_tau` picks from the degrees must split it, be
        // reported as the run's threshold, and leave the count untouched.
        let g = gen::star(300);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let unsplit = Cluster::new(&g, ClusterConfig::builder().workers(4).tau(0).build());
        let static_run = unsplit.run(&plan).unwrap();
        let lanes = 4 * unsplit.config().threads_per_worker;
        let tau = auto_tau(unsplit.resident().degrees(), lanes, true);
        assert_eq!(
            tau,
            auto_tau(unsplit.resident().degrees(), lanes, true),
            "a pure function of the degrees and the lane count"
        );
        let auto_run = Cluster::new(&g, ClusterConfig::builder().workers(4).tau(tau).build())
            .run(&plan)
            .unwrap();
        assert_eq!(auto_run.total_matches, static_run.total_matches);
        assert_eq!(static_run.effective_tau, 0);
        assert!(tau > 0, "the star's hub must be split");
        assert_eq!(auto_run.effective_tau, tau, "the run reports its τ");
        assert!(
            auto_run.total_tasks > static_run.total_tasks,
            "the hub must split ({} vs {} tasks)",
            auto_run.total_tasks,
            static_run.total_tasks
        );
    }

    #[test]
    fn static_tau_is_reported_as_effective() {
        let g = gen::complete(6);
        let cluster = small_cluster(&g, 2, 2);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let outcome = cluster.run(&plan).unwrap();
        assert_eq!(outcome.effective_tau, cluster.config().tau);
    }

    // ---- fault injection & recovery ----

    fn chaos_cluster(g: &Graph, plan: FaultPlan) -> Cluster {
        let mut cluster = Cluster::new(
            g,
            ClusterConfig::builder()
                .workers(3)
                .threads_per_worker(1)
                .cache_capacity_bytes(0) // every fetch hits the store: plenty of fault sites
                .tau(20)
                .build(),
        );
        cluster.set_fault_plan(Some(plan));
        cluster
    }

    #[test]
    fn transient_faults_are_retried_to_an_identical_count() {
        let g = gen::erdos_renyi_gnm(60, 220, 5);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let expected = benu_engine::count_embeddings(&query, &g);
        let cluster = chaos_cluster(&g, FaultPlan::builder(77).transient_rate(0.05).build());
        let outcome = cluster.run(&query).unwrap();
        assert_eq!(outcome.total_matches, expected);
        assert!(outcome.recovery.transient_faults > 0, "5% must fault");
        assert_eq!(outcome.recovery.retries, outcome.recovery.transient_faults);
        assert!(outcome.recovery.backoff_virtual > Duration::ZERO);
        assert_eq!(outcome.recovery.worker_crashes, 0);
        // Faulted attempts never reached the store, so the accounting
        // still reconciles exactly.
        assert_eq!(outcome.communication_bytes(), outcome.kv.bytes);
    }

    #[test]
    fn worker_crash_requeues_tasks_and_keeps_counts_exact() {
        let g = gen::barabasi_albert(120, 4, 31);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let expected = benu_engine::count_embeddings(&query, &g);
        let cluster = chaos_cluster(&g, FaultPlan::builder(3).crash(1, 5).build());
        let outcome = cluster.run(&query).unwrap();
        assert_eq!(outcome.total_matches, expected, "crash changed the count");
        assert_eq!(outcome.recovery.worker_crashes, 1);
        assert!(
            outcome.recovery.tasks_requeued >= 5,
            "the 5 lost results + its queue"
        );
        assert!(outcome.recovery.recovery_passes >= 1);
        // Every task's result enters the tally exactly once.
        let executed: usize = outcome.workers.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(executed, outcome.total_tasks);
        // The dead worker reports no surviving work.
        assert_eq!(outcome.workers[1].tasks_executed, 0);
    }

    #[test]
    fn staggered_crashes_across_passes_do_not_double_count() {
        // Regression: a worker that survives pass 1 (results merged)
        // and crashes in a recovery pass must only requeue the tasks of
        // the pass it died in — requeueing its committed pass-1 tasks
        // would count them twice.
        let g = gen::barabasi_albert(120, 4, 31);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let expected = benu_engine::count_embeddings(&query, &g);
        // Probe the task count so worker 1's boundary provably lands in
        // pass 2: it survives its initial static share and dies a few
        // tasks into the requeued work from worker 0's pass-1 crash.
        let total_tasks = chaos_cluster(&g, FaultPlan::benign(0))
            .run(&query)
            .unwrap()
            .total_tasks;
        let boundary = (total_tasks / 3 + 5) as u64;
        let cluster = chaos_cluster(
            &g,
            FaultPlan::builder(9).crash(0, 5).crash(1, boundary).build(),
        );
        let outcome = cluster.run(&query).unwrap();
        assert_eq!(outcome.total_matches, expected, "multi-crash double count");
        assert_eq!(outcome.recovery.worker_crashes, 2);
        assert!(outcome.recovery.recovery_passes >= 2);
        let executed: usize = outcome.workers.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(
            executed, outcome.total_tasks,
            "every task's result must enter the tally exactly once"
        );
    }

    #[test]
    fn combined_faults_survive_under_both_schedulers() {
        let g = gen::erdos_renyi_gnm(80, 300, 9);
        let query = PlanBuilder::new(&queries::q1()).best_plan();
        let expected = benu_engine::count_embeddings(&query, &g);
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let mut cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(4)
                    .threads_per_worker(2)
                    .cache_capacity_bytes(0)
                    .scheduler(kind)
                    .build(),
            );
            cluster.set_fault_plan(Some(
                FaultPlan::builder(11)
                    .transient_rate(0.02)
                    .timeout_rate(0.01)
                    .crash(2, 4)
                    .build(),
            ));
            let outcome = cluster.run(&query).unwrap();
            assert_eq!(outcome.total_matches, expected, "{kind} lost exactness");
            // Whether worker 2 reaches its crash boundary under work
            // stealing is timing-dependent (its queue may be stolen bare
            // first), so only the static scheduler guarantees the crash.
            if kind == SchedulerKind::Static {
                assert_eq!(outcome.recovery.worker_crashes, 1);
            }
            assert!(outcome.recovery.faults_injected() > 0);
        }
    }

    #[test]
    fn same_seed_replay_reproduces_the_recovery_report() {
        let g = gen::barabasi_albert(100, 3, 17);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let chaos = || {
            FaultPlan::builder(42)
                .transient_rate(0.03)
                .crash(0, 4)
                .build()
        };
        // Determinism scope: static scheduler, one thread per worker —
        // the acceptance configuration. (Work stealing and intra-worker
        // thread races reorder requests, which moves fault sites.)
        let run = || chaos_cluster(&g, chaos()).run(&query).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery, "same seed must replay identically");
        assert_eq!(a.total_matches, b.total_matches);
        assert!(a.recovery.transient_faults > 0);
        assert_eq!(a.recovery.worker_crashes, 1);
    }

    #[test]
    fn benign_plan_changes_nothing_and_reports_clean() {
        let g = gen::erdos_renyi_gnm(50, 180, 2);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let expected = benu_engine::count_embeddings(&query, &g);
        let cluster = chaos_cluster(&g, FaultPlan::benign(0));
        let outcome = cluster.run(&query).unwrap();
        assert_eq!(outcome.total_matches, expected);
        assert!(outcome.recovery.is_clean());
    }

    #[test]
    fn slow_shards_charge_busy_time_without_sleeping() {
        let g = gen::erdos_renyi_gnm(60, 220, 8);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = chaos_cluster(
            &g,
            FaultPlan::builder(5)
                .base_latency(Duration::from_millis(2))
                .slow_shard(0, 4.0)
                .build(),
        );
        let started = Instant::now();
        let outcome = cluster.run(&query).unwrap();
        let wall = started.elapsed();
        let penalty = outcome.recovery.slow_penalty_virtual;
        assert!(
            penalty > Duration::ZERO,
            "shard 0 traffic must be penalised"
        );
        let total_busy: Duration = outcome.workers.iter().map(|w| w.busy_time).sum();
        assert!(
            total_busy >= penalty,
            "virtual latency must be charged into busy time ({total_busy:?} < {penalty:?})"
        );
        assert!(
            wall < penalty,
            "penalties are virtual: wall {wall:?} must undercut charged {penalty:?}"
        );
    }

    #[test]
    fn unrecoverable_shard_outage_surfaces_a_contextual_error() {
        let g = gen::erdos_renyi_gnm(40, 120, 1);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let mut cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(2)
                .threads_per_worker(1)
                .cache_capacity_bytes(0)
                .build(),
        );
        cluster.set_fault_plan(Some(
            FaultPlan::builder(0)
                .transient_rate(0.9)
                .retry(RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                })
                .build(),
        ));
        let failure = cluster.run(&query).expect_err("rate 0.9 with 2 attempts");
        match failure.cause {
            Cause::Fetch(FetchError::Unavailable(error)) => {
                assert_eq!(error.attempts, 2);
                assert_eq!(failure.name(), "retry_exhausted");
                assert!(failure.task.is_some(), "failure happened inside a task");
            }
            other => panic!("rate 0.9 with 2 attempts must exhaust, got {other:?}"),
        }
    }

    // ---- replication & failover ----

    fn replicated_cluster(g: &Graph, replication: usize, plan: Option<FaultPlan>) -> Cluster {
        let mut cluster = Cluster::new(
            g,
            ClusterConfig::builder()
                .workers(3)
                .threads_per_worker(1)
                .cache_capacity_bytes(0) // every fetch hits the store
                .tau(20)
                .replication(replication)
                .build(),
        );
        cluster.set_fault_plan(plan);
        cluster
    }

    #[test]
    fn replicated_cluster_survives_a_whole_shard_outage() {
        let g = gen::barabasi_albert(120, 4, 31);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let (clean, clean_matches) = replicated_cluster(&g, 2, None).run_collect(&query).unwrap();
        let dark = replicated_cluster(
            &g,
            2,
            Some(FaultPlan::builder(0).shard_outage(0, 1).build()),
        );
        let (outcome, matches) = dark.run_collect(&query).unwrap();
        assert_eq!(
            outcome.total_matches, clean.total_matches,
            "a survivable outage must not change the count"
        );
        assert_eq!(matches, clean_matches, "matches must be byte-identical");
        assert!(outcome.recovery.failovers > 0);
        assert!(outcome.recovery.failover_reads > 0);
        assert_eq!(outcome.recovery.shard_outages, 1);
        assert_eq!(
            outcome.recovery.retries, 0,
            "failover happens before the retry budget"
        );
        // Accounting still reconciles: the dark shard served nothing.
        assert_eq!(outcome.communication_bytes(), outcome.kv.bytes);
    }

    #[test]
    fn unreplicated_shard_outage_fails_fast() {
        let g = gen::barabasi_albert(120, 4, 31);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = replicated_cluster(
            &g,
            1,
            Some(FaultPlan::builder(0).shard_outage(0, 1).build()),
        );
        let failure = cluster
            .run(&query)
            .expect_err("single-copy store under outage");
        match failure.cause {
            Cause::Fetch(FetchError::Unavailable(error)) => {
                assert_eq!(error.attempts, 1, "outages must not burn the retry budget");
                assert_eq!(error.kind, FaultKind::Outage);
                assert_eq!(failure.dark_shard(), Some(0));
            }
            other => panic!("single-copy store under outage must abort, got {other:?}"),
        }
    }

    #[test]
    fn losing_every_replica_of_a_group_still_aborts() {
        // R = 2 with two ring-adjacent shards dark destroys a whole
        // placement group: total data loss must surface, not undercount.
        let g = gen::barabasi_albert(120, 4, 31);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = replicated_cluster(
            &g,
            2,
            Some(
                FaultPlan::builder(0)
                    .shard_outage(0, 1)
                    .shard_outage(1, 1)
                    .build(),
            ),
        );
        match cluster.run(&query).map_err(|failure| failure.cause) {
            Err(Cause::Fetch(FetchError::Unavailable(error))) => {
                assert_eq!(error.attempts, 1);
            }
            other => panic!("total placement-group loss must abort, got {other:?}"),
        }
    }

    #[test]
    fn outage_survival_replays_identically() {
        let g = gen::erdos_renyi_gnm(80, 260, 5);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let run = || {
            let cluster = replicated_cluster(
                &g,
                2,
                Some(
                    FaultPlan::builder(13)
                        .shard_outage(2, 1)
                        .transient_rate(0.02)
                        .build(),
                ),
            );
            cluster.run(&query).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_matches, b.total_matches);
        assert_eq!(a.recovery, b.recovery, "failover fields must replay");
        assert!(a.recovery.failover_reads > 0);
    }

    // ---- reports ----

    #[test]
    fn per_shard_requests_sum_to_the_run_total() {
        let g = gen::barabasi_albert(100, 4, 19);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(2)
                .threads_per_worker(1)
                .cache_capacity_bytes(1 << 20)
                .build(),
        );
        let outcome = cluster.run(&plan).unwrap();
        let shard_requests: u64 = outcome.kv_shards.iter().map(|s| s.requests).sum();
        assert_eq!(outcome.kv_shards.len(), 2);
        assert_eq!(shard_requests, outcome.kv.requests);
    }

    #[test]
    fn faulted_runs_are_byte_identical_across_executions() {
        // The acceptance configuration: 1 worker × 1 thread, static
        // scheduler, fixed fault seed. The deterministic report must not
        // differ between two executions.
        let g = gen::barabasi_albert(80, 3, 17);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let run = || {
            let mut cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(1)
                    .threads_per_worker(1)
                    .cache_capacity_bytes(0)
                    .tau(20)
                    .build(),
            );
            cluster.set_fault_plan(Some(FaultPlan::builder(42).transient_rate(0.03).build()));
            cluster
                .run(&plan)
                .unwrap()
                .report(benu_obs::ReportMode::Deterministic)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "deterministic reports must replay identically");
        assert!(
            a.get_u64("recovery/transient_faults").unwrap_or(0) > 0,
            "the fault plan must actually inject"
        );
        // The virtual backoff the faults cost is part of the report.
        let backoff = a.get_u64("recovery/backoff_virtual_nanos").unwrap();
        assert!(backoff > 0);
    }

    #[test]
    fn losing_every_worker_is_an_error() {
        let g = gen::erdos_renyi_gnm(40, 120, 6);
        let query = PlanBuilder::new(&queries::triangle()).best_plan();
        let mut cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(2)
                .threads_per_worker(1)
                .build(),
        );
        cluster.set_fault_plan(Some(FaultPlan::builder(0).crash(0, 1).crash(1, 1).build()));
        match cluster.run(&query).map_err(|failure| failure.cause) {
            Err(Cause::NoSurvivor { outstanding }) => {
                assert!(outstanding > 0, "lost chunks must be reported");
            }
            other => panic!("expected NoSurvivor, got {other:?}"),
        }
    }
}
