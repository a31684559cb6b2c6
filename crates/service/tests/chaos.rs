//! Satellite: the service chaos suite.
//!
//! Seeded fault injection against the serving layer, crossed over
//! worker counts and execution modes. The resilience
//! contract under test (DESIGN.md §4h):
//!
//! * recovered faults (transients, timeouts, replica failover, worker
//!   crashes with survivors) are *invisible* — results byte-identical
//!   to a faultless run across the whole matrix;
//! * unrecoverable faults settle exactly one query with the
//!   [`Failure`] its lane built (or [`Terminal::DegradedPartial`] when
//!   opted in), never a panic and never a sibling;
//! * which queries fail, and with what, is a pure function of the
//!   fault seed and the execution mode's access granularity —
//!   identical across worker counts and replays. (DFS
//!   draws one fault decision per vertex access, hybrid one per
//!   deduplicated shard batch, so *failure* outcomes are compared
//!   within a mode; *recovered* runs are identical across modes too.)

use benu_cluster::{ExecMode, FaultKind, FetchError};
use benu_graph::gen;
use benu_pattern::queries;
use benu_service::{
    Cause, Failure, FaultPlan, QueryOptions, QueryResult, QueryService, ResultMode, RetryPolicy,
    ServiceConfig, ServiceConfigBuilder, Terminal,
};

fn graph() -> benu_graph::Graph {
    gen::barabasi_albert(120, 4, 7)
}

/// Store sharding is pinned: fault decisions are keyed by `(shard,
/// vertex)`, so a fixed deployment shape is what makes failure outcomes
/// comparable across worker counts.
fn base(workers: usize, exec_mode: ExecMode) -> ServiceConfigBuilder {
    ServiceConfig::builder()
        .workers(workers)
        .exec_mode(exec_mode)
        .store_shards(4)
        .chunk_tasks(16)
}

/// The fixed query mix: counting, collecting, budgeted and sampled.
fn run_mix(config: ServiceConfig) -> Vec<QueryResult> {
    let g = graph();
    let service = QueryService::new(&g, config);
    let ids = vec![
        service.submit(&queries::triangle(), QueryOptions::new()),
        service.submit(
            &queries::triangle(),
            QueryOptions::new().mode(ResultMode::Collect),
        ),
        service.submit(
            &queries::q1(),
            QueryOptions::new().mode(ResultMode::Collect),
        ),
        service.submit(
            &queries::q2(),
            QueryOptions::new().mode(ResultMode::Sample { n: 5, seed: 3 }),
        ),
        service.submit(&queries::square(), QueryOptions::new().max_matches(500)),
    ];
    ids.into_iter().map(|id| service.wait(id)).collect()
}

/// The comparable surface of a result: everything except wall time,
/// completion order and which machine's lane observed a failure (which
/// legitimately depend on worker timing). What failed — cause, task,
/// attempt — is compared.
fn surface(r: &QueryResult) -> impl PartialEq + std::fmt::Debug {
    let terminal = match r.terminal {
        Terminal::Failed(failure) => Terminal::Failed(Failure {
            machine: 0,
            ..failure
        }),
        ref other => other.clone(),
    };
    (
        r.id,
        terminal,
        r.matches_found,
        r.matches.clone(),
        r.vticks,
        r.chunks_committed,
        r.chunks_discarded,
        r.exhaustive,
        r.dark_shards.clone(),
        r.metrics,
    )
}

/// The report name of a failed result's failure.
fn failure_name(r: &QueryResult) -> Option<&'static str> {
    match &r.terminal {
        Terminal::Failed(failure) => Some(failure.name()),
        _ => None,
    }
}

/// Runs the mix for one execution mode under every worker count of
/// `make` and asserts the full result surfaces —
/// including failures, degradations and their error payloads — are
/// identical everywhere. Returns the (verified common) result set.
fn mode_invariant(
    exec_mode: ExecMode,
    make: impl Fn(usize, ExecMode) -> ServiceConfig,
) -> Vec<QueryResult> {
    let mut baseline: Option<Vec<QueryResult>> = None;
    for workers in [1, 4] {
        let results = run_mix(make(workers, exec_mode));
        match &baseline {
            None => baseline = Some(results),
            Some(expect) => {
                for (got, want) in results.iter().zip(expect) {
                    assert_eq!(
                        surface(got),
                        surface(want),
                        "query {} diverged at workers={workers} {exec_mode:?}",
                        got.id
                    );
                }
            }
        }
    }
    baseline.expect("at least one configuration ran")
}

#[test]
fn recovered_transients_and_timeouts_are_invisible() {
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    // Recovered faults leave no trace, so the matrix extends across
    // execution modes too: every configuration must equal the faultless
    // baseline byte-for-byte, virtual latency included.
    for exec_mode in [ExecMode::Dfs, ExecMode::Hybrid] {
        let faulted = mode_invariant(exec_mode, |workers, exec_mode| {
            let plan = FaultPlan::builder(11)
                .transient_rate(0.02)
                .timeout_rate(0.02)
                .build();
            base(workers, exec_mode).fault_plan(plan).build()
        });
        for (got, want) in faulted.iter().zip(&faultless) {
            assert_eq!(
                surface(got),
                surface(want),
                "recovered faults must not change query {} in {exec_mode:?}",
                got.id
            );
            assert!(matches!(
                got.terminal,
                Terminal::Completed | Terminal::MaxMatchesReached
            ));
        }
    }
}

#[test]
fn retry_exhaustion_fails_only_affected_queries_deterministically() {
    // Two attempts against a moderate fault rate: each query draws its
    // own scoped decision stream, so some queries exhaust the budget
    // and some survive — a per-query outcome, not a service-wide one.
    let results = mode_invariant(ExecMode::Dfs, |workers, exec_mode| {
        let plan = FaultPlan::builder(23)
            .transient_rate(0.06)
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
            .build();
        base(workers, exec_mode).fault_plan(plan).build()
    });
    let statuses: Vec<_> = results.iter().map(|r| r.terminal.name()).collect();
    let failed: Vec<_> = results
        .iter()
        .filter(|r| matches!(r.terminal, Terminal::Failed(_)))
        .collect();
    let completed: Vec<_> = results
        .iter()
        .filter(|r| !matches!(r.terminal, Terminal::Failed(_)))
        .collect();
    assert!(
        !failed.is_empty(),
        "the seed must fail at least one query: {statuses:?}"
    );
    assert!(
        !completed.is_empty(),
        "siblings of a failed query must keep completing: {statuses:?}"
    );
    for r in &failed {
        match r.terminal {
            Terminal::Failed(Failure {
                cause: Cause::Fetch(FetchError::Unavailable(error)),
                task: Some(_),
                attempt: 1,
                ..
            }) => {
                assert_eq!(error.attempts, 2);
                assert_ne!(error.kind, FaultKind::Outage);
            }
            ref other => panic!("failure must carry the exhausted access, got {other:?}"),
        }
        assert_eq!(failure_name(r), Some("retry_exhausted"));
    }
    // Survivors are byte-identical to the faultless run — recovered
    // retries leave no trace in results or virtual latency.
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    for r in &completed {
        let want = &faultless[r.id as usize];
        assert_eq!(surface(r), surface(want), "survivor {} diverged", r.id);
    }
}

#[test]
fn scoped_gates_retry_under_the_plans_policy() {
    // Each query gates its reads through the plan scoped to it, and
    // every scope keeps the plan's retry policy: under the default
    // policy a transient plan is invisible, and the same plan with no
    // retries fails queries on the first refused access.
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    let plan = || FaultPlan::builder(5).transient_rate(0.05);
    let retried = run_mix(base(4, ExecMode::Dfs).fault_plan(plan().build()).build());
    for (got, want) in retried.iter().zip(&faultless) {
        assert_eq!(surface(got), surface(want), "query {} diverged", got.id);
    }
    let unretried = run_mix(
        base(4, ExecMode::Dfs)
            .fault_plan(plan().retry(RetryPolicy::none()).build())
            .build(),
    );
    let names: Vec<_> = unretried.iter().map(|r| r.terminal.name()).collect();
    assert!(
        unretried
            .iter()
            .any(|r| failure_name(r) == Some("retry_exhausted")),
        "without retries the plan's faults must surface: {names:?}"
    );
    for r in &unretried {
        if let Terminal::Failed(failure) = r.terminal {
            assert_eq!(failure.name(), "retry_exhausted");
            assert!(matches!(
                failure.cause,
                Cause::Fetch(FetchError::Unavailable(error)) if error.attempts == 1
            ));
        }
    }
}

#[test]
fn hybrid_batch_faults_surface_the_same_taxonomy() {
    // Hybrid draws one fault decision per deduplicated shard batch; a
    // rate hot enough to exhaust two attempts across a chunk's batches
    // fails queries with the same structured error, deterministically
    // across worker counts.
    let results = mode_invariant(ExecMode::Hybrid, |workers, exec_mode| {
        let plan = FaultPlan::builder(31)
            .transient_rate(0.45)
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
            .build();
        base(workers, exec_mode).fault_plan(plan).build()
    });
    assert!(
        results
            .iter()
            .any(|r| failure_name(r) == Some("retry_exhausted")),
        "the hot seed must exhaust at least one query: {:?}",
        results
            .iter()
            .map(|r| r.terminal.name())
            .collect::<Vec<_>>()
    );
}

#[test]
fn unreplicated_shard_outage_fails_queries_with_structured_errors() {
    for exec_mode in [ExecMode::Dfs, ExecMode::Hybrid] {
        let results = mode_invariant(exec_mode, |workers, exec_mode| {
            let plan = FaultPlan::builder(5).shard_outage(0, 1).build();
            base(workers, exec_mode).fault_plan(plan).build()
        });
        for r in &results {
            match &r.terminal {
                Terminal::Failed(failure) if failure.name() == "store_unavailable" => {
                    assert_eq!(
                        failure.dark_shard(),
                        Some(0),
                        "the outage names the dark shard"
                    );
                    assert!(failure.task.is_some(), "and the task that needed it");
                }
                other => panic!(
                    "query {} must fail on the dark shard without degradation, got {other:?}",
                    r.id
                ),
            }
            assert!(
                r.dark_shards.is_empty(),
                "failed queries report no dark shards"
            );
        }
    }
}

#[test]
fn graceful_degradation_turns_the_outage_into_partial_results() {
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    for exec_mode in [ExecMode::Dfs, ExecMode::Hybrid] {
        let results = mode_invariant(exec_mode, |workers, exec_mode| {
            let plan = FaultPlan::builder(5).shard_outage(0, 1).build();
            base(workers, exec_mode)
                .fault_plan(plan)
                .graceful_degradation(true)
                .build()
        });
        for (r, full) in results.iter().zip(&faultless) {
            assert_eq!(
                r.terminal,
                Terminal::DegradedPartial,
                "query {} must degrade, not fail",
                r.id
            );
            assert_eq!(
                r.dark_shards,
                vec![0],
                "the partial is flagged with its dark shard"
            );
            assert!(!r.exhaustive, "a degraded result is never exhaustive");
            assert!(
                r.matches_found <= full.matches_found,
                "a partial can never overcount"
            );
            // Committed partials are honest subsets of the faultless
            // stream.
            for m in r.matches.rows() {
                assert!(
                    full.matches.rows().any(|row| row == m),
                    "degraded match {m:?} must exist in the faultless result"
                );
            }
        }
    }
}

#[test]
fn replication_masks_the_outage_entirely() {
    // Same dark shard, but every placement group has a live replica:
    // failover serves the request and results are byte-identical to the
    // faultless run — no failure, no degradation, no vtick drift.
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    let plan = FaultPlan::builder(5).shard_outage(0, 1).build();
    let results = run_mix(
        base(4, ExecMode::Dfs)
            .replication(2)
            .fault_plan(plan)
            .build(),
    );
    for (got, want) in results.iter().zip(&faultless) {
        assert_eq!(surface(got), surface(want), "failover must be invisible");
    }
}

#[test]
fn worker_crashes_with_survivors_are_invisible() {
    let faultless = run_mix(base(4, ExecMode::Dfs).build());
    // Survivors serve the backlog and the chunks a crashed lane died
    // holding re-execute elsewhere — byte-exact. Crash boundaries count
    // tasks: lane 1 dies at the end of its first 16-task chunk, lane 2
    // at the end of its second, each holding the chunk it just ran.
    let plan = FaultPlan::builder(7).crash(1, 16).crash(2, 32).build();
    for workers in [2, 4] {
        for exec_mode in [ExecMode::Dfs, ExecMode::Hybrid] {
            let results = run_mix(base(workers, exec_mode).fault_plan(plan.clone()).build());
            for (got, want) in results.iter().zip(&faultless) {
                assert_eq!(
                    surface(got),
                    surface(want),
                    "crash recovery must be byte-exact at workers={workers} {exec_mode:?}"
                );
            }
        }
    }
}

#[test]
fn dead_pool_surfaces_worker_lost_instead_of_hanging() {
    let g = graph();
    // 8-task chunks, crash after 9 tasks: the worker hands its first
    // chunk over and dies at the boundary of the second, holding it.
    let plan = FaultPlan::builder(3).crash(0, 9).build();
    let service = QueryService::new(
        &g,
        ServiceConfig::builder()
            .workers(1)
            .chunk_tasks(8)
            .fault_plan(plan)
            .build(),
    );
    let id = service.submit(
        &queries::triangle(),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let result = service.wait(id);
    // Everything but the chunk handed over went with machine 0.
    let lost = |outstanding| Failure {
        cause: Cause::NoSurvivor { outstanding },
        task: None,
        machine: 0,
        attempt: 1,
    };
    let chunks = result.chunks_committed + result.chunks_discarded;
    assert_eq!(result.terminal, Terminal::Failed(lost(chunks - 1)));
    assert_eq!(failure_name(&result), Some("worker_lost"));
    assert_eq!(
        result.chunks_committed, 1,
        "the one chunk handed over before the crash still committed"
    );
    // The pool is gone: later submissions settle immediately with the
    // same structured error instead of queueing forever.
    let late = service.submit(&queries::triangle(), QueryOptions::new());
    let late = service.wait(late);
    assert_eq!(
        late.terminal,
        Terminal::Failed(lost(chunks)),
        "post-crash submissions must fail fast"
    );
}

#[test]
fn corrupt_store_fails_the_query_not_the_process() {
    // Regression: both ServiceSource panic paths ("vertex missing from
    // the resident store" and the transport corruption unwrap) are now
    // structured per-query errors.
    let g = graph();
    let missing = QueryService::new_corrupted(
        &g,
        ServiceConfig::builder().workers(2).chunk_tasks(16).build(),
        |store| assert!(store.remove_vertex(100), "chaos hook must bite"),
    );
    let id = missing.submit(
        &queries::triangle(),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let result = missing.wait(id);
    let shard = missing.resident().store().shard_of(100);
    match &result.terminal {
        Terminal::Failed(failure) => {
            let gone = FetchError::Missing { vertex: 100, shard };
            assert_eq!(failure.cause, Cause::Fetch(gone));
            assert_eq!(failure.name(), "corrupt_value");
            assert!(
                failure.to_string().contains("vertex 100 missing"),
                "the line names the damage: {failure}"
            );
        }
        other => panic!("expected a failure for the removed vertex, got {other:?}"),
    }
    // The result was handed over once: the service no longer knows the
    // query.
    assert_eq!(missing.status(id), None);
    assert!(!missing.cancel(id));
    // The service keeps serving after the failure (no abort, no wedge):
    // a follow-up whose limit is met before the damaged vertex's chunk
    // commits completes with what an undamaged service answers.
    let first = QueryOptions::new().mode(ResultMode::TopK(5));
    let follow = missing.wait(missing.submit(&queries::triangle(), first.clone()));
    let pristine = QueryService::new(
        &g,
        ServiceConfig::builder().workers(2).chunk_tasks(16).build(),
    );
    let oracle = pristine.wait(pristine.submit(&queries::triangle(), first));
    assert_eq!(follow.terminal, Terminal::Completed);
    assert_eq!((follow.matches_found, follow.matches.len()), (5, 5));
    assert_eq!(follow.matches, oracle.matches, "the same first five");

    let rotten = QueryService::new_corrupted(
        &g,
        ServiceConfig::builder().workers(2).chunk_tasks(16).build(),
        |store| assert!(store.corrupt_value(100), "chaos hook must bite"),
    );
    let id = rotten.submit(&queries::triangle(), QueryOptions::new());
    let result = rotten.wait(id);
    match &result.terminal {
        Terminal::Failed(Failure {
            cause: Cause::Fetch(FetchError::Corrupt(rot)),
            task: Some(_),
            ..
        }) => {
            assert_eq!((rot.vertex, rot.shard), (100, shard), "vertex and shard");
            assert_eq!(failure_name(&result), Some("corrupt_value"));
        }
        other => panic!("expected the damaged bytes' codec error, got {other:?}"),
    }
}

/// The acceptance scenario: transient faults + a shard outage + a
/// worker crash across 16 concurrent queries on 4 workers, degradation
/// on. Every query settles in a terminal state (no hang, no abort),
/// both unrecoverable classes appear, and replaying the same seed
/// reproduces every status and every result byte-for-byte. (The
/// fourth resilience terminal, `Rejected`, is deterministically
/// load-dependent by design and is pinned by the admission suite.)
#[test]
fn seeded_chaos_scenario_replays_identically() {
    let run_scenario = || {
        let g = gen::barabasi_albert(200, 4, 13);
        let plan = FaultPlan::builder(77)
            .transient_rate(0.03)
            .timeout_rate(0.01)
            .shard_outage(2, 1)
            .crash(3, 32) // two 16-task chunks in
            .retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
            .build();
        let service = QueryService::new(
            &g,
            ServiceConfig::builder()
                .workers(4)
                .store_shards(4)
                .chunk_tasks(16)
                .fault_plan(plan)
                .graceful_degradation(true)
                .build(),
        );
        let patterns = [
            queries::triangle(),
            queries::q1(),
            queries::q2(),
            queries::square(),
        ];
        let ids: Vec<_> = (0..16)
            .map(|i| {
                service.submit(
                    &patterns[i % patterns.len()],
                    QueryOptions::new().weight(1 + (i as u32) % 3),
                )
            })
            .collect();
        ids.into_iter()
            .map(|id| service.wait(id))
            .collect::<Vec<QueryResult>>()
    };
    let results = run_scenario();
    let statuses: Vec<_> = results.iter().map(|r| r.terminal.name()).collect();
    assert!(
        results.iter().all(|r| matches!(
            r.terminal,
            Terminal::Completed | Terminal::Failed(_) | Terminal::DegradedPartial
        )),
        "every query must settle in a resilience terminal: {statuses:?}"
    );
    assert!(
        results
            .iter()
            .any(|r| matches!(r.terminal, Terminal::DegradedPartial)),
        "the dark shard must degrade at least one query: {statuses:?}"
    );
    assert!(
        results
            .iter()
            .any(|r| matches!(r.terminal, Terminal::Failed(_))),
        "the fault pressure must fail at least one query: {statuses:?}"
    );
    for r in &results {
        if r.terminal == Terminal::DegradedPartial {
            assert_eq!(r.dark_shards, vec![2], "partials name the dark shard");
        }
    }
    // Same seed, same scenario, same everything.
    let replay = run_scenario();
    for (a, b) in results.iter().zip(&replay) {
        assert_eq!(surface(a), surface(b), "replay diverged on query {}", a.id);
    }
}

/// An engine panic on the request path is one query's failure, not a
/// lane's death: a labeled pattern against the (unlabelled) resident
/// store trips the engine's data-label `expect`; the query must settle
/// `Failed(TaskPanicked)` and every lane must keep serving. With one
/// worker the lane that panicked is the only lane there is, so the
/// follow-up queries prove it survived.
#[test]
fn an_engine_panic_fails_one_query_and_the_lane_keeps_serving() {
    use benu_service::QueryStatus;
    use std::time::{Duration, Instant};

    let g = graph();
    let plan = benu_plan::PlanBuilder::new(&queries::triangle()).best_plan();
    let expected = benu_engine::count_embeddings(&plan, &g);
    for workers in [1, 2] {
        let service = QueryService::new(&g, base(workers, ExecMode::Dfs).build());
        let labeled = service.submit(
            &queries::triangle().with_labels(vec![0, 1, 2]),
            QueryOptions::new(),
        );
        // `wait` would hang forever on a dead lane: poll with a deadline.
        let deadline = Instant::now() + Duration::from_secs(20);
        let result = loop {
            if let Some(QueryStatus::Finished(result)) = service.status(labeled) {
                break result;
            }
            assert!(
                Instant::now() < deadline,
                "workers={workers}: the panicking query never settled"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        match &result.terminal {
            Terminal::Failed(failure) => {
                assert_eq!(failure.cause, Cause::EnginePanicked, "workers={workers}");
                assert_eq!(failure.name(), "task_panicked");
                assert!(failure.task.is_some(), "the panicking task is named");
            }
            other => panic!("workers={workers}: expected a failure, got {other:?}"),
        }
        assert_eq!(
            result.matches_found, 0,
            "a failed chunk contributes nothing"
        );
        // Every lane is still pulling chunks: the follow-ups complete
        // with the solo count.
        let ids: Vec<_> = (0..2 * workers)
            .map(|_| service.submit(&queries::triangle(), QueryOptions::new()))
            .collect();
        for id in ids {
            let r = service.wait(id);
            assert_eq!(r.terminal, Terminal::Completed, "workers={workers}");
            assert_eq!(r.matches_found, expected, "workers={workers}");
        }
    }
}
