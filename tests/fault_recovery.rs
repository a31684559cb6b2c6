//! Chaos property tests: fault injection must never change results.
//!
//! The acceptance invariant of the fault subsystem — with any seeded
//! [`FaultPlan`] the cluster survives (transient store faults retried,
//! a crashed worker's tasks requeued and re-executed on survivors), and
//! the match counts *and the collected match sets* are byte-identical to
//! a fault-free run. Exercised across graph families (Erdős–Rényi,
//! Barabási–Albert, star) and both schedulers, over a deterministic fan
//! of fault seeds.

use benu::cluster::{
    Cause, Cluster, ClusterConfig, FaultKind, FetchError, RecoveryReport, RunOutcome, SchedulerKind,
};
use benu::engine::MatchSet;
use benu::fault::{FaultPlan, RetryPolicy};
use benu::graph::{gen, Graph};
use benu::pattern::queries;
use benu::plan::{ExecutionPlan, PlanBuilder};

const SEEDS: u64 = 8;

fn graph_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("erdos-renyi", gen::erdos_renyi_gnm(60, 220, 7)),
        ("barabasi-albert", gen::barabasi_albert(80, 4, 3)),
        ("star", gen::star(50)),
    ]
}

fn config(kind: SchedulerKind) -> ClusterConfig {
    ClusterConfig::builder()
        .workers(3)
        .threads_per_worker(2)
        // A tiny cache keeps plenty of store traffic — fault sites —
        // while still exercising the cache layer under retries.
        .cache_capacity_bytes(1 << 12)
        .tau(16)
        .scheduler(kind)
        .build()
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .transient_rate(0.01)
        .timeout_rate(0.005)
        .crash(seed as usize % 3, 3) // one mid-run crash, rotating victim
        .build()
}

/// One run's total count and its collected match set.
type Collected = (u64, MatchSet);

fn run_pair(
    g: &Graph,
    plan: &ExecutionPlan,
    kind: SchedulerKind,
    seed: u64,
) -> (Collected, Collected, RecoveryReport) {
    let clean_cluster = Cluster::new(g, config(kind));
    let (clean, clean_matches) = clean_cluster.run_collect(plan).expect("fault-free run");

    let mut chaos_cluster = Cluster::new(g, config(kind));
    chaos_cluster.set_fault_plan(Some(chaos_plan(seed)));
    let (chaos, chaos_matches) = chaos_cluster
        .run_collect(plan)
        .expect("every injected fault must be survivable");
    (
        (clean.total_matches, clean_matches),
        (chaos.total_matches, chaos_matches),
        chaos.recovery,
    )
}

#[test]
fn faults_never_change_counts_or_matches() {
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    let mut total_faults = 0u64;
    let mut total_requeues = 0u64;
    for (family, g) in graph_families() {
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            for seed in 0..SEEDS {
                let (clean, chaos, recovery) = run_pair(&g, &query, kind, seed);
                assert_eq!(
                    clean.0, chaos.0,
                    "{family}/{kind}/seed {seed}: count diverged under faults"
                );
                assert_eq!(
                    clean.1, chaos.1,
                    "{family}/{kind}/seed {seed}: match set diverged under faults"
                );
                total_faults += recovery.faults_injected();
                total_requeues += recovery.tasks_requeued;
            }
        }
    }
    // The property is vacuous if nothing was ever injected or recovered.
    assert!(total_faults > 0, "chaos plans must actually inject faults");
    assert!(total_requeues > 0, "at least one crash must requeue tasks");
}

#[test]
fn compressed_plans_survive_faults_identically() {
    let g = gen::barabasi_albert(70, 4, 11);
    let query = PlanBuilder::new(&queries::q4())
        .compressed(true)
        .best_plan();
    for seed in 0..SEEDS {
        let (clean, chaos, _) = run_pair(&g, &query, SchedulerKind::Static, seed);
        assert_eq!(clean.0, chaos.0, "seed {seed}: compressed count diverged");
        assert_eq!(clean.1, chaos.1, "seed {seed}: expanded matches diverged");
    }
}

#[test]
fn same_seed_replay_is_deterministic() {
    // Static scheduler; 400 tasks, so every worker's share is three
    // chunks and worker 1's second lane is mid-chunk when the first
    // reaches the crash boundary.
    let g = gen::erdos_renyi_gnm(400, 1600, 13);
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    for threads in [1, 2] {
        let run = || {
            let mut cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(3)
                    .threads_per_worker(threads)
                    .cache_capacity_bytes(0)
                    .build(),
            );
            cluster.set_fault_plan(Some(chaos_plan(4)));
            cluster.run(&query).expect("survivable plan")
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_matches, b.total_matches);
        assert!(
            a.recovery.faults_injected() > 0,
            "the replay test must see faults"
        );
        // What the crash did replays at any lane count: the machine dies
        // at its first chunk boundary whichever lane gets there, and
        // everything homed on it goes back.
        let crash = |r: &RecoveryReport| {
            (
                r.worker_crashes,
                r.tasks_requeued,
                r.recovery_passes,
                r.shard_outages,
            )
        };
        assert_eq!(
            crash(&a.recovery),
            crash(&b.recovery),
            "{threads} thread(s)"
        );
        assert_eq!(a.recovery.worker_crashes, 1);
        assert!(a.recovery.tasks_requeued > 128, "the whole share goes back");
        // What the gates absorbed also counts the accesses of the chunk
        // the dying machine's other lane was in the middle of, so the
        // whole report replays at one lane per machine.
        if threads == 1 {
            assert_eq!(a.recovery, b.recovery, "replay must reproduce the report");
        }
    }
}

/// What the fault gate's position buys: verdicts are drawn per logical
/// adjacency access in front of the cache, so under DFS with a cache
/// that evicts nothing the absorbed faults and their virtual-time cost
/// are a function of the plan and the task list alone — not of which
/// thread ran a task, which thread missed first, or how warm the cache
/// was. (With the fault layer behind the cache, a warm cache drew no
/// faults at all.)
#[test]
fn replay_is_independent_of_threads_and_cache_warmth() {
    use SchedulerKind::{Static, WorkStealing};
    let g = gen::barabasi_albert(90, 4, 21);
    let query = PlanBuilder::new(&queries::q1()).best_plan();
    let cluster = |threads: usize, kind: SchedulerKind, faulty: bool| {
        let mut cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(3)
                .threads_per_worker(threads)
                .cache_capacity_bytes(1 << 24) // holds the whole graph
                .tau(16)
                .scheduler(kind)
                .build(),
        );
        cluster.set_fault_plan(faulty.then(|| {
            FaultPlan::builder(19)
                .transient_rate(0.03)
                .timeout_rate(0.01)
                .build()
        }));
        cluster
    };
    let expected = cluster(2, Static, false).run(&query).unwrap();
    let check = |arm: &str, outcome: RunOutcome, want: &RecoveryReport| {
        assert_eq!(outcome.total_matches, expected.total_matches, "{arm}");
        assert_eq!(&outcome.recovery, want, "{arm}");
    };

    // (a) Run to run, two racing threads per worker, cold caches.
    let two = cluster(2, Static, true);
    let cold = two.run(&query).unwrap();
    assert_eq!(cold.total_matches, expected.total_matches);
    assert!(cold.recovery.transient_faults > 0 && cold.recovery.timeouts > 0);
    assert!(cold.recovery.backoff_virtual > std::time::Duration::ZERO);
    let want = &cold.recovery;
    check(
        "run to run",
        cluster(2, Static, true).run(&query).unwrap(),
        want,
    );

    // (b) The same cluster again, caches now warm: no store traffic is
    // left to fault, the verdicts are all still drawn.
    let warm = two.run(&query).unwrap();
    assert_eq!(warm.kv.requests, 0, "the second run is served from cache");
    check("warm vs cold", warm, want);
    two.clear_caches();
    check("cleared", two.run(&query).unwrap(), want);

    // (c) One thread per worker draws the same weather as two.
    check(
        "1 vs 2 threads",
        cluster(1, Static, true).run(&query).unwrap(),
        want,
    );

    // (d) Nor does it matter which worker a task ran on: store-fault
    // decisions are keyed by the access, not by who makes it.
    check(
        "work stealing",
        cluster(2, WorkStealing, true).run(&query).unwrap(),
        want,
    );
}

// ---- shard outages & replica failover ----

fn replicated_config(kind: SchedulerKind) -> ClusterConfig {
    ClusterConfig::builder()
        .workers(3)
        .threads_per_worker(2)
        .cache_capacity_bytes(1 << 12)
        .tau(16)
        .scheduler(kind)
        .replication(2)
        .build()
}

/// Runs `plan` clean and under `fault_plan` on an `R = 2` cluster and
/// asserts counts and collected matches are byte-identical.
fn assert_outage_exactness(
    g: &Graph,
    plan: &ExecutionPlan,
    kind: SchedulerKind,
    fault_plan: FaultPlan,
    label: &str,
) -> benu::cluster::RecoveryReport {
    let clean_cluster = Cluster::new(g, replicated_config(kind));
    let (clean, clean_matches) = clean_cluster.run_collect(plan).expect("fault-free run");
    let mut dark_cluster = Cluster::new(g, replicated_config(kind));
    dark_cluster.set_fault_plan(Some(fault_plan));
    let (dark, dark_matches) = dark_cluster
        .run_collect(plan)
        .expect("replication must absorb the outage");
    assert_eq!(
        clean.total_matches, dark.total_matches,
        "{label}: count diverged"
    );
    assert_eq!(clean_matches, dark_matches, "{label}: match set diverged");
    dark.recovery
}

#[test]
fn single_shard_outages_are_invisible_with_replication() {
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    for (family, g) in graph_families() {
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let recovery = assert_outage_exactness(
                &g,
                &query,
                kind,
                FaultPlan::builder(0).shard_outage(0, 1).build(),
                &format!("{family}/{kind}"),
            );
            assert_eq!(recovery.shard_outages, 1);
            assert!(
                recovery.failover_reads > 0,
                "{family}/{kind}: the mirror must have served reads"
            );
            assert_eq!(
                recovery.retries, 0,
                "{family}/{kind}: failover must not consume retry budget"
            );
        }
    }
}

#[test]
fn staggered_multi_shard_outages_keep_counts_exact() {
    // Shard 0 dark only during pass 1, shard 1 dark from pass 2 on; a
    // worker crash forces the recovery pass, so both windows are
    // actually exercised. The two outages never overlap, so every
    // placement group always has a live copy. Only static placement
    // guarantees worker 0 books the three tasks its crash waits for:
    // under work stealing thieves can drain its queue first, the crash
    // never fires, and no recovery pass reaches the second window.
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    for (family, g) in graph_families() {
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let fault_plan = FaultPlan::builder(5)
                .shard_outage_window(0, 1, 2)
                .shard_outage(1, 2)
                .crash(0, 3)
                .build();
            let recovery = assert_outage_exactness(
                &g,
                &query,
                kind,
                fault_plan,
                &format!("{family}/{kind}/staggered"),
            );
            if kind == SchedulerKind::Static {
                assert_eq!(recovery.worker_crashes, 1);
                assert!(recovery.recovery_passes >= 1, "the crash must force a pass");
                assert_eq!(
                    recovery.shard_outages, 2,
                    "both outage windows overlap executed passes"
                );
            } else {
                assert!(recovery.worker_crashes <= 1);
            }
        }
    }
}

#[test]
fn outage_with_worker_crash_and_store_faults_combined() {
    // The full chaos menu at once: a dark shard (masked by failover), a
    // mid-run worker crash (absorbed by requeue) and background
    // transient faults (absorbed by retries) — counts must still be
    // byte-identical to the clean run.
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    for (family, g) in graph_families() {
        for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
            let fault_plan = FaultPlan::builder(21)
                .shard_outage(2, 1)
                .crash(0, 3)
                .transient_rate(0.01)
                .build();
            let recovery = assert_outage_exactness(
                &g,
                &query,
                kind,
                fault_plan,
                &format!("{family}/{kind}/combined"),
            );
            if kind == SchedulerKind::Static {
                assert_eq!(recovery.worker_crashes, 1);
            } else {
                // Thieves may drain worker 0 before its crash boundary.
                assert!(recovery.worker_crashes <= 1);
            }
            assert!(recovery.failover_reads > 0);
        }
    }
}

#[test]
fn outage_replay_reproduces_the_failover_report() {
    // Determinism scope: static scheduler, one thread per worker.
    let g = gen::erdos_renyi_gnm(50, 180, 13);
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    let run = || {
        let mut cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(3)
                .threads_per_worker(1)
                .cache_capacity_bytes(0)
                .replication(2)
                .build(),
        );
        cluster.set_fault_plan(Some(
            FaultPlan::builder(4)
                .shard_outage(1, 1)
                .transient_rate(0.01)
                .crash(1, 3)
                .build(),
        ));
        cluster.run(&query).expect("survivable plan")
    };
    let a = run();
    let b = run();
    assert_eq!(a.recovery, b.recovery, "replay must reproduce the report");
    assert_eq!(a.total_matches, b.total_matches);
    assert!(a.recovery.failovers > 0, "the replay test must fail over");
    assert!(a.recovery.failover_reads > 0);
    assert_eq!(a.recovery.shard_outages, 1);
}

#[test]
fn unreplicated_outage_fails_fast_with_a_structured_error() {
    // The same outage that R = 2 shrugs off must abort a single-copy
    // cluster — fast (no retry budget burned) and typed, never an Ok
    // with a short count.
    let g = gen::erdos_renyi_gnm(40, 120, 1);
    let query = PlanBuilder::new(&queries::triangle()).best_plan();
    let mut cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(3)
            .threads_per_worker(1)
            .cache_capacity_bytes(0)
            .build(),
    );
    cluster.set_fault_plan(Some(FaultPlan::builder(0).shard_outage(0, 1).build()));
    let failure = cluster.run(&query).expect_err("the only copy is dark");
    match failure.cause {
        Cause::Fetch(FetchError::Unavailable(error)) => {
            assert_eq!(error.attempts, 1, "outages must fail fast, not retry");
            assert_eq!((error.kind, error.shard), (FaultKind::Outage, 0));
        }
        other => panic!("expected an unavailable shard, got {other:?}"),
    }
    assert_eq!(failure.name(), "store_unavailable");
    assert!(failure.task.is_some(), "the failing task is named");
}

#[test]
fn hopeless_outages_fail_instead_of_undercounting() {
    // When a fault plan outruns the retry policy, the run must error —
    // never return Ok with a silently short count.
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
        FaultPlan::builder(2)
            .transient_rate(0.5)
            .retry(RetryPolicy {
                max_attempts: 1, // no retries at all
                ..RetryPolicy::default()
            })
            .build(),
    ));
    match cluster.run(&query) {
        Err(failure) if failure.name() == "retry_exhausted" => {
            assert!(matches!(
                failure.cause,
                Cause::Fetch(FetchError::Unavailable(error)) if error.attempts == 1
            ));
        }
        other => panic!("expected an exhausted retry budget, got {other:?}"),
    }
}
