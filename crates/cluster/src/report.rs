//! Run reports: the measurements the paper's evaluation plots.
//!
//! [`RunOutcome`] is the typed view a program inspects; its
//! [`RunOutcome::report`] renders the same measurements as one unified
//! [`Report`] tree — the single serialisation surface every bench bin
//! emits (`benu-bench` encodes it canonically as JSON). A
//! [`ReportMode::Deterministic`] report drops every wall-clock-derived
//! field, leaving exactly the values that are byte-identical across two
//! executions of the same seeded run.

use crate::balance;
use crate::config::ExecMode;
use crate::pool::SchedulerKind;
use crate::worker::LaneStats;
use benu_cache::CacheStats;
use benu_engine::{FrontierStats, PoolStats, TaskMetrics};
use benu_kvstore::KvStats;
use benu_obs::{safe_ratio, Report, ReportMode, Value};
use std::time::Duration;

/// What one logical worker machine did during a run.
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Number of (sub)tasks homed on this worker by the round-robin
    /// shuffle.
    pub tasks: usize,
    /// Number of (sub)tasks this worker executed and handed over (a
    /// worker that crashed hands over nothing). Equal to `tasks` under
    /// the static scheduler in a crash-free run; under work stealing the
    /// difference is migration.
    pub tasks_executed: usize,
    /// Tasks this worker stole from other workers' queues (zero under
    /// the static scheduler).
    pub steals: u64,
    /// Batched multi-get round trips this worker issued (a subset of
    /// `comm_requests`).
    pub batch_round_trips: u64,
    /// Aggregated engine metrics.
    pub metrics: TaskMetrics,
    /// Sum of task durations across the worker's threads — the "reducer
    /// load" of Fig. 9b.
    pub busy_time: Duration,
    /// Busy time of each lane visit — one per thread, unless a crash
    /// handed an idle lane more work; the maximum across the cluster is
    /// the simulated makespan on dedicated machines.
    pub thread_busy: Vec<Duration>,
    /// Bytes fetched from the distributed store by this worker (cache
    /// misses only) — the per-worker communication cost.
    pub comm_bytes: u64,
    /// Store requests issued by this worker.
    pub comm_requests: u64,
    /// Database-cache statistics of this worker.
    pub cache: CacheStats,
    /// Aggregated triangle-cache statistics of the worker's threads.
    pub triangle_cache: CacheStats,
    /// Aggregated execution-buffer-pool counters of the worker's threads.
    pub pool: PoolStats,
    /// Aggregated hybrid-frontier counters of the worker's threads (all
    /// zeros under DFS execution).
    pub frontier: FrontierStats,
}

/// What the fault-recovery machinery did during a run. All zeros for a
/// run without an installed fault plan. Whenever `Cluster::run` returns
/// `Ok`, every injected fault was survived: transients and timeouts were
/// retried to success, crashes were absorbed by re-execution — so
/// "survived" equals [`RecoveryReport::faults_injected`] by construction,
/// and the match counts are byte-identical to a fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Injected transient store errors.
    pub transient_faults: u64,
    /// Injected store timeouts.
    pub timeouts: u64,
    /// Retries issued by the transports (each fault survived costs
    /// attempts − 1 of these).
    pub retries: u64,
    /// Worker machines that crashed at a chunk boundary.
    pub worker_crashes: u64,
    /// Tasks handed back to the survivors: what a dead worker had run
    /// plus what was still queued at its home.
    pub tasks_requeued: u64,
    /// Crash epochs after the first: the times a dead worker's chunks
    /// went back to the survivors.
    pub recovery_passes: u64,
    /// Times a store read stepped past a dead or faulted replica to try
    /// the next one in ring order (failover happens *before* any retry
    /// budget is spent).
    pub failovers: u64,
    /// Round trips served by a non-primary replica — the reads that a
    /// single-copy store would have lost to an outage.
    pub failover_reads: u64,
    /// Distinct shards the fault plan held in outage during the run.
    pub shard_outages: u64,
    /// Total virtual retry backoff charged into busy time (never slept).
    pub backoff_virtual: Duration,
    /// Total virtual timeout wait charged into busy time — every
    /// injected timeout blocks (virtually) for the fault plan's full
    /// timeout before its loss is detected, so timeouts cost latency
    /// where transients fail instantly.
    pub timeout_wait_virtual: Duration,
    /// Total virtual slow-shard latency charged into busy time.
    pub slow_penalty_virtual: Duration,
}

impl std::ops::AddAssign for RecoveryReport {
    fn add_assign(&mut self, rhs: Self) {
        self.transient_faults += rhs.transient_faults;
        self.timeouts += rhs.timeouts;
        self.retries += rhs.retries;
        self.worker_crashes += rhs.worker_crashes;
        self.tasks_requeued += rhs.tasks_requeued;
        self.recovery_passes += rhs.recovery_passes;
        self.failovers += rhs.failovers;
        self.failover_reads += rhs.failover_reads;
        self.shard_outages += rhs.shard_outages;
        self.backoff_virtual += rhs.backoff_virtual;
        self.timeout_wait_virtual += rhs.timeout_wait_virtual;
        self.slow_penalty_virtual += rhs.slow_penalty_virtual;
    }
}

/// Renders [`CacheStats`] as a report subtree with its
/// [`CacheStats::hit_rate`] derived, not hand-plumbed.
fn cache_report(stats: &CacheStats) -> Report {
    let mut r = Report::new();
    r.set("hits", stats.hits);
    r.set("misses", stats.misses);
    r.set("evictions", stats.evictions);
    r.set("hit_rate", stats.hit_rate());
    r
}

fn pool_report(pool: &PoolStats) -> Report {
    let mut r = Report::new();
    r.set("hits", pool.hits);
    r.set("misses", pool.misses);
    r.set("returns", pool.returns);
    r
}

fn frontier_report(frontier: &FrontierStats) -> Report {
    let mut r = Report::new();
    r.set("expansions", frontier.expansions);
    r.set("spill_events", frontier.spill_events);
    r.set("peak_bytes", frontier.peak_bytes);
    r
}

/// What lanes' private engines counted, as a report subtree: the
/// db-cache hits their tasks answered themselves, and the triangle
/// cache, buffer pool and frontier in the shapes [`RunOutcome::report`]
/// gives them.
pub fn lane_stats_report(stats: &LaneStats) -> Report {
    let mut r = Report::new();
    r.set("db_cache_hits", stats.db_cache_hits);
    r.set_tree("triangle_cache", cache_report(&stats.triangle_cache));
    r.set_tree("pool", pool_report(&stats.pool));
    r.set_tree("frontier", frontier_report(&stats.frontier));
    r
}

impl RecoveryReport {
    /// This report as a unified subtree. Everything here — including the
    /// *virtual* durations, which are deterministic functions of the
    /// fault seed — survives [`ReportMode::Deterministic`].
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        r.set("transient_faults", self.transient_faults);
        r.set("timeouts", self.timeouts);
        r.set("retries", self.retries);
        r.set("worker_crashes", self.worker_crashes);
        r.set("tasks_requeued", self.tasks_requeued);
        r.set("recovery_passes", self.recovery_passes);
        r.set("failovers", self.failovers);
        r.set("failover_reads", self.failover_reads);
        r.set("shard_outages", self.shard_outages);
        r.set(
            "backoff_virtual_nanos",
            self.backoff_virtual.as_nanos() as u64,
        );
        r.set(
            "timeout_wait_virtual_nanos",
            self.timeout_wait_virtual.as_nanos() as u64,
        );
        r.set(
            "slow_penalty_virtual_nanos",
            self.slow_penalty_virtual.as_nanos() as u64,
        );
        r.set("faults_injected", self.faults_injected());
        r
    }

    /// Total faults injected: transients + timeouts + crashes.
    pub fn faults_injected(&self) -> u64 {
        self.transient_faults + self.timeouts + self.worker_crashes
    }

    /// True if nothing was injected and nothing had to recover.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

impl WorkerReport {
    /// This worker's measurements as a unified subtree. Busy times are
    /// wall-clock-derived and appear only in [`ReportMode::Full`].
    pub fn report(&self, mode: ReportMode) -> Report {
        let mut r = Report::new();
        r.set("worker", self.worker);
        r.set("tasks", self.tasks);
        r.set("tasks_executed", self.tasks_executed);
        r.set("steals", self.steals);
        r.set("batch_round_trips", self.batch_round_trips);
        r.set("comm_bytes", self.comm_bytes);
        r.set("comm_requests", self.comm_requests);
        r.set_tree("cache", cache_report(&self.cache));
        r.set_tree("triangle_cache", cache_report(&self.triangle_cache));
        if mode == ReportMode::Full {
            r.set("busy_seconds", self.busy_time.as_secs_f64());
            r.set(
                "thread_busy_seconds",
                Value::List(
                    self.thread_busy
                        .iter()
                        .map(|d| Value::Float(d.as_secs_f64()))
                        .collect(),
                ),
            );
        }
        r
    }
}

/// The outcome of one cluster run.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Total embeddings found (expanded count for compressed plans;
    /// `metrics.matches`).
    pub total_matches: u64,
    /// Wall-clock time of the parallel execution (excluding store
    /// loading and plan compilation, matching the paper's "pure
    /// enumeration" timing).
    pub elapsed: Duration,
    /// Aggregated engine metrics.
    pub metrics: TaskMetrics,
    /// Per-worker reports.
    pub workers: Vec<WorkerReport>,
    /// Store-level totals (cross-check of the per-worker sums).
    pub kv: KvStats,
    /// The same counters per store shard, in shard order.
    pub kv_shards: Vec<KvStats>,
    /// Total tasks executed (after splitting).
    pub total_tasks: usize,
    /// The split threshold τ the run actually used: the configured
    /// `ClusterConfig::tau`, or 0 when splitting is disabled or the plan
    /// has no second pattern vertex to split on.
    pub effective_tau: usize,
    /// The scheduling policy this run used.
    pub scheduler: SchedulerKind,
    /// The engine driving mode this run used.
    pub exec_mode: ExecMode,
    /// The adjacency wire codec the store was built with (decides what
    /// `kv.bytes` measures).
    pub codec: benu_kvstore::CodecKind,
    /// The workers' hybrid-frontier counters summed: levels expanded
    /// with a batched read and budget spills (zero under DFS), and the
    /// largest charged frontier footprint of any single thread.
    pub frontier: FrontierStats,
    /// What fault injection and recovery did (all zeros without a fault
    /// plan).
    pub recovery: RecoveryReport,
}

impl RunOutcome {
    /// Total communication bytes (cache misses across all workers).
    pub fn communication_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.comm_bytes).sum()
    }

    /// Simulated parallel makespan: the busiest thread's total task time.
    /// On a cluster of dedicated machines (the paper's setting) this is
    /// the wall-clock enumeration time; unlike [`RunOutcome::elapsed`], it
    /// is meaningful even when the simulation host has fewer cores than
    /// the simulated cluster has threads.
    pub fn makespan(&self) -> Duration {
        self.workers
            .iter()
            .flat_map(|w| w.thread_busy.iter())
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Cluster-wide database-cache hit rate (the shared [`safe_ratio`]
    /// convention: 0.0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let (mut hits, mut misses) = (0u64, 0u64);
        for w in &self.workers {
            hits += w.cache.hits;
            misses += w.cache.misses;
        }
        safe_ratio(hits as f64, (hits + misses) as f64)
    }

    /// Total tasks stolen across all workers (zero under the static
    /// scheduler).
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Cluster-wide execution-buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for w in &self.workers {
            total += w.pool;
        }
        total
    }

    /// Work imbalance: max over workers of executed *vticks* (the
    /// deterministic instruction-count work measure, see
    /// [`crate::balance::vticks`]) divided by the mean. 1.0 = perfectly
    /// balanced. The deterministic sibling of [`RunOutcome::load_imbalance`]:
    /// it measures how evenly the *work* landed, independent of wall
    /// clock, so it is byte-stable across runs under the static
    /// scheduler. Returns 0.0 — never NaN — for a run with no workers or
    /// no executed work.
    pub fn work_imbalance(&self) -> f64 {
        let work: Vec<u64> = self
            .workers
            .iter()
            .map(|w| balance::vticks(&w.metrics))
            .collect();
        balance::imbalance(&work)
    }

    /// Load imbalance: max over workers of busy time divided by the mean
    /// (1.0 = perfectly balanced). Returns 0.0 — never NaN — for a run
    /// with no workers or no recorded busy time (a zero-task run has no
    /// balance to speak of).
    pub fn load_imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let times: Vec<f64> = self
            .workers
            .iter()
            .map(|w| w.busy_time.as_secs_f64())
            .collect();
        let mean = safe_ratio(times.iter().sum::<f64>(), times.len() as f64);
        safe_ratio(times.iter().cloned().fold(0.0f64, f64::max), mean)
    }

    /// This outcome as the unified report tree — the canonical shape
    /// every bench bin serialises (schema `benu/report-v2`, see
    /// DESIGN.md "Observability"). [`ReportMode::Deterministic`] drops
    /// every wall-clock-derived field (elapsed, makespan, busy times,
    /// imbalance ratios). Of what remains, the match, code
    /// and task counts, `effective_tau` and the engine's instruction and
    /// cardinality counters are the same for every execution of the same
    /// seeded run on any cluster; the buffer-pool, frontier, per-worker
    /// and store subtrees additionally need the static scheduler with
    /// one thread per worker (which lane runs a task, and which misses a
    /// cold cache first, is timing); the `recovery` subtree replays as
    /// DESIGN.md "Runtime — What replays" spells out: whole under a
    /// crash-free plan at any thread count, its crash fields
    /// (`worker_crashes`, `tasks_requeued`, `recovery_passes`,
    /// `shard_outages`) at any thread count under the static scheduler
    /// when one machine crashes, the rest of it at one thread per
    /// worker.
    pub fn report(&self, mode: ReportMode) -> Report {
        let mut r = Report::new();
        r.set("total_matches", self.total_matches);
        r.set("total_codes", self.metrics.codes);
        r.set("total_tasks", self.total_tasks);
        r.set("effective_tau", self.effective_tau);
        r.set("scheduler", self.scheduler.name());
        r.set("exec_mode", self.exec_mode.name());
        r.set("total_steals", self.total_steals());
        r.set("communication_bytes", self.communication_bytes());
        r.set("cache_hit_rate", self.cache_hit_rate());

        let m = &self.metrics;
        let mut engine = Report::new();
        engine.set("matches", m.matches);
        engine.set("codes", m.codes);
        engine.set("code_bytes", m.code_bytes);
        engine.set("dbq_executions", m.dbq_executions);
        engine.set("int_executions", m.int_executions);
        engine.set("trc_executions", m.trc_executions);
        engine.set("enu_candidates", m.enu_candidates);
        engine.set("obs_candidates", m.obs.totals().0);
        engine.set("obs_survivors", m.obs.totals().1);
        let mut obs = Report::new();
        for (pc, slot) in m.obs.iter_nonzero() {
            let mut s = Report::new();
            s.set("candidates", slot.candidates);
            s.set("survivors", slot.survivors);
            obs.set_tree(&format!("slot_{pc:02}"), s);
        }
        engine.set_tree("obs", obs);
        engine.set_tree("pool", pool_report(&self.pool_stats()));
        engine.set_tree("frontier", frontier_report(&self.frontier));
        r.set_tree("engine", engine);

        let kv_tree = |kv: &KvStats| {
            let mut t = Report::new();
            t.set("requests", kv.requests);
            t.set("keys", kv.keys);
            t.set("bytes", kv.bytes);
            t.set("deduped_keys", kv.deduped_keys);
            t
        };
        let mut store = Report::new();
        store.set("codec", self.codec.name());
        store.merge(kv_tree(&self.kv));
        store.set(
            "shards",
            Value::List(
                self.kv_shards
                    .iter()
                    .map(|s| Value::Tree(kv_tree(s)))
                    .collect(),
            ),
        );
        r.set_tree("store", store);

        r.set(
            "workers",
            Value::List(
                self.workers
                    .iter()
                    .map(|w| Value::Tree(w.report(mode)))
                    .collect(),
            ),
        );
        r.set_tree("recovery", self.recovery.report());
        r.set("work_imbalance", self.work_imbalance());

        if mode == ReportMode::Full {
            r.set("elapsed_seconds", self.elapsed.as_secs_f64());
            r.set("makespan_seconds", self.makespan().as_secs_f64());
            r.set("load_imbalance", self.load_imbalance());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(busy_ms: u64, hits: u64, misses: u64, bytes: u64) -> WorkerReport {
        WorkerReport {
            busy_time: Duration::from_millis(busy_ms),
            cache: CacheStats {
                hits,
                misses,
                evictions: 0,
            },
            comm_bytes: bytes,
            ..WorkerReport::default()
        }
    }

    #[test]
    fn aggregates_communication_and_hit_rate() {
        let outcome = RunOutcome {
            workers: vec![worker(10, 30, 10, 100), worker(10, 50, 10, 200)],
            ..RunOutcome::default()
        };
        assert_eq!(outcome.communication_bytes(), 300);
        assert!((outcome.cache_hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_detects_straggler() {
        let balanced = RunOutcome {
            workers: vec![worker(100, 0, 0, 0), worker(100, 0, 0, 0)],
            ..RunOutcome::default()
        };
        assert!((balanced.load_imbalance() - 1.0).abs() < 1e-9);
        let skewed = RunOutcome {
            workers: vec![worker(300, 0, 0, 0), worker(100, 0, 0, 0)],
            ..RunOutcome::default()
        };
        assert!(skewed.load_imbalance() > 1.4);
    }

    #[test]
    fn work_imbalance_is_deterministic_and_tracks_vticks() {
        let mut heavy = worker(0, 0, 0, 0);
        heavy.metrics.enu_candidates = 300;
        let mut light = worker(0, 0, 0, 0);
        light.metrics.enu_candidates = 100;
        let o = RunOutcome {
            workers: vec![heavy, light],
            ..RunOutcome::default()
        };
        assert!((o.work_imbalance() - 1.5).abs() < 1e-9);
        // Deterministic: present even in deterministic-mode reports.
        let det = o.report(ReportMode::Deterministic);
        assert_eq!(det.get_f64("work_imbalance"), Some(o.work_imbalance()));
        // Guard zero-work runs.
        assert_eq!(RunOutcome::default().work_imbalance(), 0.0);
    }

    #[test]
    fn report_surfaces_observed_slot_cardinalities() {
        let mut o = RunOutcome::default();
        o.metrics.obs.record(2, 10, 4);
        let r = o.report(ReportMode::Deterministic);
        assert_eq!(r.get_u64("engine/obs/slot_02/candidates"), Some(10));
        assert_eq!(r.get_u64("engine/obs/slot_02/survivors"), Some(4));
        assert_eq!(r.get_u64("engine/obs_candidates"), Some(10));
    }

    #[test]
    fn makespan_is_busiest_thread() {
        let mut w1 = worker(0, 0, 0, 0);
        w1.thread_busy = vec![Duration::from_millis(40), Duration::from_millis(90)];
        let mut w2 = worker(0, 0, 0, 0);
        w2.thread_busy = vec![Duration::from_millis(70)];
        let o = RunOutcome {
            workers: vec![w1, w2],
            ..RunOutcome::default()
        };
        assert_eq!(o.makespan(), Duration::from_millis(90));
    }

    #[test]
    fn empty_outcome_is_sane() {
        let o = RunOutcome::default();
        assert_eq!(o.communication_bytes(), 0);
        assert_eq!(o.cache_hit_rate(), 0.0);
        assert_eq!(o.load_imbalance(), 0.0);
        assert_eq!(o.total_steals(), 0);
        assert_eq!(o.scheduler, SchedulerKind::Static);
        assert!(o.recovery.is_clean());
    }

    // Regression: a zero-task or zero-time run must yield finite metrics
    // (0.0), not NaN or ∞ — downstream JSON and table writers choke on
    // non-finite numbers.
    #[test]
    fn imbalance_metrics_guard_zero_work_runs() {
        let no_workers = RunOutcome::default();
        assert_eq!(no_workers.load_imbalance(), 0.0);

        let all_idle = RunOutcome {
            workers: vec![worker(0, 0, 0, 0), worker(0, 0, 0, 0)],
            ..RunOutcome::default()
        };
        assert_eq!(all_idle.load_imbalance(), 0.0);
    }

    // Regression per call site: every ratio helper shares safe_ratio's
    // zero-work semantics and never emits NaN/∞.
    #[test]
    fn ratio_helpers_share_safe_ratio_semantics() {
        let empty = RunOutcome::default();
        for v in [empty.cache_hit_rate(), empty.load_imbalance()] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
        // Non-degenerate values are unchanged by the rerouting.
        let o = RunOutcome {
            workers: vec![worker(200, 9, 1, 0), worker(100, 0, 0, 0)],
            ..RunOutcome::default()
        };
        assert!((o.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((o.load_imbalance() - 200.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn unified_report_modes_split_wall_fields() {
        let o = RunOutcome {
            total_matches: 7,
            elapsed: Duration::from_millis(5),
            workers: vec![worker(10, 1, 1, 64)],
            ..RunOutcome::default()
        };
        let full = o.report(ReportMode::Full);
        assert_eq!(full.get_u64("total_matches"), Some(7));
        assert!(full.get_f64("elapsed_seconds").is_some());
        assert!(full.get_f64("load_imbalance").is_some());
        let det = o.report(ReportMode::Deterministic);
        assert_eq!(det.get_u64("total_matches"), Some(7));
        assert!(det.get_path("elapsed_seconds").is_none());
        assert!(det.get_path("makespan_seconds").is_none());
        assert!(det.get_path("load_imbalance").is_none());
        // Deterministic worker subtrees carry no busy times.
        match det.get_path("workers") {
            Some(Value::List(ws)) => match &ws[0] {
                Value::Tree(w) => {
                    assert!(w.get_path("busy_seconds").is_none());
                    assert_eq!(w.get_u64("comm_bytes"), Some(64));
                }
                other => panic!("expected tree, got {other:?}"),
            },
            other => panic!("expected workers list, got {other:?}"),
        }
        // Derived ratios route through the typed helpers.
        assert_eq!(
            det.get_f64("cache_hit_rate"),
            Some(o.cache_hit_rate()),
            "report and typed view must agree"
        );
    }

    #[test]
    fn recovery_report_subtree_is_deterministic_fields_only() {
        let rec = RecoveryReport {
            transient_faults: 3,
            retries: 3,
            backoff_virtual: Duration::from_micros(70),
            ..RecoveryReport::default()
        };
        let r = rec.report();
        assert_eq!(r.get_u64("transient_faults"), Some(3));
        assert_eq!(r.get_u64("backoff_virtual_nanos"), Some(70_000));
        assert_eq!(r.get_u64("faults_injected"), Some(3));
    }

    #[test]
    fn recovery_report_carries_failover_fields() {
        let rec = RecoveryReport {
            failovers: 4,
            failover_reads: 3,
            shard_outages: 1,
            ..RecoveryReport::default()
        };
        let r = rec.report();
        assert_eq!(r.get_u64("failovers"), Some(4));
        assert_eq!(r.get_u64("failover_reads"), Some(3));
        assert_eq!(r.get_u64("shard_outages"), Some(1));
        // Masked faults never surface, so they are not "injected" — but
        // a run that failed over is not clean either.
        assert_eq!(rec.faults_injected(), 0);
        assert!(!rec.is_clean());
    }

    #[test]
    fn recovery_report_aggregates_faults() {
        let r = RecoveryReport {
            transient_faults: 5,
            timeouts: 2,
            worker_crashes: 1,
            retries: 7,
            tasks_requeued: 3,
            recovery_passes: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(r.faults_injected(), 8);
        assert!(!r.is_clean());
        assert!(RecoveryReport::default().is_clean());
    }
}
