//! Satellite: admission-control and fairness regressions.
//!
//! Shedding is evaluated under the admission lock as a pure function of
//! the backlog snapshot (see `crate::admission`), so constructions that
//! pin the snapshot — an idle service, or a saturating query that is
//! orders of magnitude slower than the submit path — make rejection
//! itself deterministic and replayable. A rejected query executes
//! nothing, leaves no trace in the fair queue, and completes
//! identically when resubmitted after the backlog drains.

use benu_graph::gen;
use benu_obs::ReportMode;
use benu_pattern::queries;
use benu_service::{
    Failure, FaultPlan, QueryOptions, QueryResult, QueryService, ResultMode, RetryPolicy,
    ServiceConfig, Terminal,
};

/// The comparable surface of a result (wall time, completion order and
/// which machine's lane observed a failure excluded).
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

fn assert_nothing_executed(r: &QueryResult) {
    assert_eq!(r.chunks_committed, 0, "a shed query executes nothing");
    assert_eq!(r.matches_found, 0);
    assert!(r.matches.is_empty());
    assert_eq!(r.vticks, 0);
    assert!(!r.exhaustive);
}

#[test]
fn oversized_submission_is_shed_even_on_an_idle_service() {
    // The chunk cap charges the incoming query's full footprint, so a
    // query bigger than the cap is rejected against *any* backlog —
    // including an empty one. That makes this shed fully deterministic:
    // no load, no timing, no seed.
    let g = gen::barabasi_albert(120, 4, 7);
    let service = QueryService::new(
        &g,
        ServiceConfig::builder()
            .workers(4)
            .chunk_tasks(16)
            .max_queued_chunks(4)
            .build(),
    );
    for _ in 0..3 {
        let id = service.submit(
            &queries::triangle(),
            QueryOptions::new().mode(ResultMode::Collect),
        );
        let result = service.wait(id);
        assert_eq!(
            result.terminal,
            Terminal::Rejected {
                retry_after_vticks: 1
            },
            "an idle backlog advises the minimum retry hint"
        );
        assert_nothing_executed(&result);
        assert_eq!(service.queue_depth(), 0, "a shed query is never queued");
    }
    // The same query against a cap that fits it completes normally —
    // the shed was the cap's verdict, not the query's.
    let roomy = QueryService::new(
        &g,
        ServiceConfig::builder()
            .workers(4)
            .chunk_tasks(16)
            .max_queued_chunks(100)
            .build(),
    );
    let id = roomy.submit(&queries::triangle(), QueryOptions::new());
    assert_eq!(roomy.wait(id).terminal, Terminal::Completed);
}

#[test]
fn rejected_then_resubmitted_completes_identically() {
    let g = gen::barabasi_albert(250, 5, 7);
    // Solo baseline: the triangle query on an uncapped, otherwise idle
    // service.
    let baseline = {
        let service = QueryService::new(
            &g,
            ServiceConfig::builder().workers(1).chunk_tasks(16).build(),
        );
        let id = service.submit(
            &queries::triangle(),
            QueryOptions::new().mode(ResultMode::Collect),
        );
        service.wait(id)
    };
    let service = QueryService::new(
        &g,
        ServiceConfig::builder()
            .workers(1)
            .chunk_tasks(16)
            .max_inflight_queries(1)
            .build(),
    );
    // Saturate the single inflight slot with a query whose runtime
    // dwarfs the submit path, then submit into the full service.
    let heavy = service.submit(
        &queries::q2(),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let rejected = service.submit(
        &queries::triangle(),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let rejected = service.wait(rejected);
    assert!(
        matches!(rejected.terminal, Terminal::Rejected { .. }),
        "the saturated inflight cap must shed, got {:?}",
        rejected.terminal
    );
    assert_nothing_executed(&rejected);
    // Drain the backlog, then resubmit: the retried query is admitted
    // and completes byte-identically to the solo baseline — rejection
    // left no residue in the caches, the fair queue or the commit path.
    let heavy = service.wait(heavy);
    assert_eq!(
        heavy.terminal,
        Terminal::Completed,
        "the sheddee's load was untouched"
    );
    let retried = service.submit(
        &queries::triangle(),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let retried = service.wait(retried);
    assert_eq!(retried.terminal, Terminal::Completed);
    assert_eq!(retried.matches, baseline.matches);
    assert_eq!(retried.matches_found, baseline.matches_found);
    assert_eq!(retried.vticks, baseline.vticks);
    assert_eq!(retried.chunks_committed, baseline.chunks_committed);
}

#[test]
fn a_deadline_is_charged_for_the_querys_own_work_not_its_queue_time() {
    let g = gen::barabasi_albert(250, 5, 7);
    let config = || ServiceConfig::builder().workers(1).chunk_tasks(16).build();
    // Solo baseline: what the triangle costs on an idle service.
    let solo = {
        let service = QueryService::new(&g, config());
        service.wait(service.submit(&queries::triangle(), QueryOptions::new()))
    };
    assert_eq!(solo.terminal, Terminal::Completed);
    // A deadline 10 % above the solo cost.
    let deadline = solo.vticks + solo.vticks / 10;

    // Queue heavy queries until draining the backlog alone — at least
    // one vtick per queued task — would cost twice the deadline. A gate
    // comparing the deadline with the backlog would shed the triangle.
    let service = QueryService::new(&g, config());
    let mut backlog = Vec::new();
    while service.queue_depth() as u64 * 16 <= 2 * deadline {
        assert!(backlog.len() < 500, "the backlog never built up");
        backlog.push(service.submit(&queries::q2(), QueryOptions::new()));
    }
    let id = service.submit(
        &queries::triangle(),
        QueryOptions::new().deadline_vticks(deadline),
    );
    let result = service.wait(id);
    assert_eq!(
        result.terminal,
        Terminal::Completed,
        "the backlog ahead of a query is not charged to its deadline"
    );
    assert_eq!(result.vticks, solo.vticks);
    assert_eq!(result.matches_found, solo.matches_found);
    for heavy in backlog {
        service.cancel(heavy);
        service.wait(heavy);
    }

    // A deadline the query's own work cannot meet: an idle service
    // admits it, and it settles through deadline semantics.
    let idle = QueryService::new(&g, config());
    let id = idle.submit(&queries::triangle(), QueryOptions::new().deadline_vticks(1));
    assert_eq!(idle.wait(id).terminal, Terminal::DeadlineExceeded);
}

#[test]
fn weighted_fairness_survives_sibling_failure_and_recovery() {
    // Weighted queries racing a worker crash and per-query fault
    // streams hot enough to fail some of them: the failures are a pure
    // function of the seed, the survivors are byte-identical to a
    // faultless run with the same weights, and the deterministic report
    // replays exactly.
    let g = gen::barabasi_albert(120, 4, 7);
    let weights: [u32; 5] = [4, 1, 2, 1, 3];
    let mix = |config: ServiceConfig| {
        let service = QueryService::new(&g, config);
        let ids = vec![
            service.submit(&queries::triangle(), QueryOptions::new().weight(weights[0])),
            service.submit(
                &queries::triangle(),
                QueryOptions::new()
                    .weight(weights[1])
                    .mode(ResultMode::Collect),
            ),
            service.submit(
                &queries::q1(),
                QueryOptions::new()
                    .weight(weights[2])
                    .mode(ResultMode::Collect),
            ),
            service.submit(
                &queries::q2(),
                QueryOptions::new()
                    .weight(weights[3])
                    .mode(ResultMode::Sample { n: 5, seed: 3 }),
            ),
            service.submit(
                &queries::square(),
                QueryOptions::new().weight(weights[4]).max_matches(500),
            ),
        ];
        let results: Vec<QueryResult> = ids.into_iter().map(|id| service.wait(id)).collect();
        let report = service.report(ReportMode::Deterministic);
        (results, report)
    };
    let config = || {
        ServiceConfig::builder()
            .workers(4)
            .store_shards(4)
            .chunk_tasks(16)
            .fault_plan(
                FaultPlan::builder(23)
                    .transient_rate(0.06)
                    .crash(1, 16) // one 16-task chunk in
                    .retry(RetryPolicy {
                        max_attempts: 2,
                        ..RetryPolicy::default()
                    })
                    .build(),
            )
            .build()
    };
    let faultless = mix(ServiceConfig::builder()
        .workers(4)
        .store_shards(4)
        .chunk_tasks(16)
        .build())
    .0;
    let (results, report) = mix(config());
    let failed: Vec<_> = results
        .iter()
        .filter(|r| matches!(r.terminal, Terminal::Failed(_)))
        .collect();
    assert!(
        !failed.is_empty(),
        "the seed must doom at least one sibling: {:?}",
        results
            .iter()
            .map(|r| r.terminal.name())
            .collect::<Vec<_>>()
    );
    for r in &results {
        if !matches!(r.terminal, Terminal::Failed(_)) {
            let want = &faultless[r.id as usize];
            assert_eq!(
                surface(r),
                surface(want),
                "surviving query {} must not feel its siblings' failures or the crash",
                r.id
            );
        }
    }
    // Same seed, same weights, same crash → same report, line for line.
    let (replay, replay_report) = mix(config());
    for (a, b) in results.iter().zip(&replay) {
        assert_eq!(surface(a), surface(b), "replay diverged on query {}", a.id);
    }
    assert_eq!(report, replay_report, "deterministic report must replay");
}
