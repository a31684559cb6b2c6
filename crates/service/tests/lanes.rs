//! One lane loop under two fronts.
//!
//! The batch cluster and the query service run their tasks through the
//! same `benu_cluster::pool::lane_loop`; what differs is who owns the
//! lanes and when a lane hands over. These tests look at the seam from
//! the service's side: the same fault plan gives the same answers on
//! both fronts, what a lane cannot absorb reaches both fronts as the
//! same `Failure`, and a lane keeps one executor for as long as it is
//! granted chunks of the same query.

use benu_cluster::{Cluster, ClusterConfig, ExecMode, Split};
use benu_engine::CompiledPlan;
use benu_graph::gen;
use benu_kvstore::KvStore;
use benu_obs::{Report, ReportMode};
use benu_pattern::{queries, Pattern};
use benu_plan::PlanBuilder;
use benu_service::{
    Failure, FaultPlan, QueryOptions, QueryService, ResultMode, RetryPolicy, ServiceConfig,
    Terminal, AUTO_TAU_VIRTUAL_LANES,
};

/// 1 % transient store faults and machine 1 dying five tasks in.
fn weather() -> FaultPlan {
    FaultPlan::builder(29)
        .transient_rate(0.01)
        .crash(1, 5)
        .build()
}

#[test]
fn one_fault_plan_gives_the_fault_free_count_on_both_fronts() {
    let g = gen::barabasi_albert(400, 5, 31);
    for (name, pattern) in [
        ("triangle", queries::triangle()),
        ("q4", queries::q4()),
        ("chordal_square", queries::chordal_square()),
    ] {
        let plan = PlanBuilder::new(&pattern).best_plan();
        let expected = benu_engine::count_embeddings(&plan, &g);
        for mode in [ExecMode::Dfs, ExecMode::Hybrid] {
            let ctx = format!("{name} {mode:?}");

            let mut cluster = Cluster::new(
                &g,
                ClusterConfig::builder()
                    .workers(3)
                    .threads_per_worker(1)
                    .replication(2)
                    .exec_mode(mode)
                    .build(),
            );
            cluster.set_fault_plan(Some(weather()));
            let outcome = cluster.run(&plan).expect("the plan is survivable");
            assert_eq!(outcome.total_matches, expected, "{ctx}: cluster");
            assert_eq!(outcome.recovery.worker_crashes, 1, "{ctx}: cluster");

            // 16-task chunks: every lane is granted some of the few dozen,
            // so worker 1 reaches its boundary.
            let service = QueryService::new(
                &g,
                ServiceConfig::builder()
                    .workers(3)
                    .replication(2)
                    .exec_mode(mode)
                    .chunk_tasks(16)
                    .fault_plan(weather())
                    .build(),
            );
            // Which lane is granted what is up to the host's scheduler: a
            // query can be over before lane 1 ran five tasks, so keep
            // serving until it has.
            let mut crashes = Some(0);
            for _ in 0..50 {
                let id = service.submit(&pattern, QueryOptions::new());
                let result = service.wait(id);
                assert_eq!(result.terminal, Terminal::Completed, "{ctx}: service");
                assert_eq!(result.matches_found, expected, "{ctx}: service");
                crashes = service
                    .report(ReportMode::Full)
                    .get_u64("service/worker_crashes");
                if crashes != Some(0) {
                    break;
                }
            }
            assert_eq!(crashes, Some(1), "{ctx}: service");
        }
    }
}

/// One way to break a run: what to ask, what the store suffers before
/// serving, and the weather while it does.
struct Injection {
    kind: &'static str,
    pattern: Pattern,
    rot: fn(&mut KvStore),
    weather: Option<FaultPlan>,
    /// What both fronts must report.
    name: &'static str,
    line: &'static str,
}

/// The failure `Cluster::run` returns and the one a served query
/// settles with, on one machine with one lane each: same graph, same
/// task list (the service's τ), same single-copy store, same weather.
fn on_both_fronts(inject: &Injection) -> (Failure, Failure) {
    let g = gen::barabasi_albert(80, 4, 7);
    let mut config = ServiceConfig::builder().workers(1).chunk_tasks(1);
    if let Some(weather) = &inject.weather {
        config = config.fault_plan(weather.clone());
    }
    let service = QueryService::new_corrupted(&g, config.build(), inject.rot);
    let plan = PlanBuilder::new(&inject.pattern).best_plan();
    let split = Split::Auto {
        lanes: AUTO_TAU_VIRTUAL_LANES,
    };
    let (tasks, tau) = service
        .resident()
        .tasks(&CompiledPlan::compile(&plan), split);
    // One task per chunk on both fronts: a batch run this small cuts
    // its chunks that short by itself.
    assert!(tasks.len() < 64 * 2, "{} tasks", tasks.len());
    let id = service.submit(&inject.pattern, QueryOptions::new());
    let served = match service.wait(id).terminal {
        Terminal::Failed(failure) => failure,
        other => panic!("{}: the query must fail, got {other:?}", inject.kind),
    };

    let mut cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(1)
            .tau(tau)
            .build(),
    );
    cluster.resident_mut().corrupt(inject.rot);
    cluster.set_fault_plan(inject.weather.clone());
    let batch = cluster.run(&plan).expect_err("the batch run must fail too");
    (batch, served)
}

#[test]
fn what_a_lane_cannot_absorb_is_the_same_failure_on_both_fronts() {
    let triangle = queries::triangle;
    let table = [
        Injection {
            kind: "missing vertex",
            pattern: triangle(),
            rot: |store| assert!(store.remove_vertex(50)),
            weather: None,
            name: "corrupt_value",
            line: "machine 0: vertex 50 missing from shard 0 (task v27, attempt 1)",
        },
        Injection {
            kind: "corrupt value",
            pattern: triangle(),
            rot: |store| assert!(store.corrupt_value(50)),
            weather: None,
            name: "corrupt_value",
            line: "machine 0: corrupt value for vertex 50 on shard 0: \
                   unknown codec tag 0xff (task v27, attempt 1)",
        },
        Injection {
            kind: "retries exhausted",
            pattern: triangle(),
            rot: |_| {},
            // Each front draws its own decision stream; at this rate
            // both refuse the first access there is, and neither retries.
            weather: Some(
                FaultPlan::builder(3)
                    .transient_rate(0.999)
                    .retry(RetryPolicy::none())
                    .build(),
            ),
            name: "retry_exhausted",
            line: "machine 0: shard 0 unavailable for vertex 0 after 1 attempts \
                   (task v0[1/2], attempt 1)",
        },
        Injection {
            kind: "outage at replication 1",
            pattern: triangle(),
            rot: |_| {},
            weather: Some(FaultPlan::builder(3).shard_outage(0, 1).build()),
            name: "store_unavailable",
            line: "machine 0: shard 0 unavailable for vertex 0 after 1 attempts \
                   (task v0[1/2], attempt 1)",
        },
        Injection {
            kind: "engine panic",
            // Labels against an unlabelled store trip the engine's
            // data-label `expect`.
            pattern: triangle().with_labels(vec![0, 1, 2]),
            rot: |_| {},
            weather: None,
            name: "task_panicked",
            line: "machine 0: engine panicked (task v0[1/2], attempt 1)",
        },
        Injection {
            kind: "every machine dead",
            pattern: triangle(),
            rot: |_| {},
            weather: Some(FaultPlan::builder(3).crash(0, 1).build()),
            name: "worker_lost",
            line: "machine 0: died last with 104 chunks outstanding (attempt 1)",
        },
    ];
    for inject in &table {
        let (batch, served) = on_both_fronts(inject);
        let kind = inject.kind;
        assert_eq!(batch, served, "{kind}: one failure, said once");
        assert_eq!(batch.name(), inject.name, "{kind}");
        assert_eq!(batch.to_string(), inject.line, "{kind}");
        let in_a_task = inject.name != "worker_lost";
        assert_eq!(batch.task.is_some(), in_a_task, "{kind}: batch");
        assert_eq!(served.task.is_some(), in_a_task, "{kind}: served");
    }
}

/// Probes the one worker's shared database cache has counted.
fn shared_probes(service: &QueryService) -> u64 {
    let shared = service.resident().caches()[0].stats();
    shared.hits + shared.misses
}

/// `service/lanes` of a one-lane service once every query settled so
/// far has been handed over. A lane hands a visit over when it runs out
/// of the query's chunks — after the last chunk settled the query, so
/// after `wait` may have returned — and before it starts another
/// query's: a fence query that has settled orders the hand-over before
/// this read. The fence is one edge — no TRC, and no DBQ its lane
/// answers itself — so whether its own visit is in the report yet
/// changes neither the triangle-cache counters nor `db_cache_hits`.
fn lanes_after_fence(service: &QueryService) -> Report {
    let before = shared_probes(service);
    let fence = service.wait(service.submit(&queries::path(2), QueryOptions::new()));
    assert_eq!(fence.terminal, Terminal::Completed);
    assert_eq!(fence.metrics.trc_executions, 0);
    assert_eq!(
        shared_probes(service) - before,
        fence.metrics.dbq_executions
    );
    service
        .report(ReportMode::Full)
        .get_tree("service")
        .and_then(|s| s.get_tree("lanes"))
        .expect("an unobserved service reports its lanes")
        .clone()
}

/// Triangle-cache misses of one query served by one lane.
fn triangle_misses(chunk_tasks: usize) -> (u64, usize) {
    let g = gen::barabasi_albert(400, 6, 5);
    let service = QueryService::new(
        &g,
        ServiceConfig::builder()
            .workers(1)
            .chunk_tasks(chunk_tasks)
            .build(),
    );
    let id = service.submit(
        &queries::clique(4),
        QueryOptions::new().mode(ResultMode::Collect),
    );
    let result = service.wait(id);
    assert_eq!(result.terminal, Terminal::Completed);
    let lanes = lanes_after_fence(&service);
    (
        lanes.get_u64("triangle_cache/misses").unwrap(),
        result.chunks_committed,
    )
}

#[test]
fn a_solo_query_keeps_one_executor_across_its_chunks() {
    // One chunk is one executor by construction; dozens of chunks granted
    // back to back to the only lane must miss exactly as often — the
    // misses of one cold triangle cache, not of one per chunk.
    let (whole, one) = triangle_misses(1 << 20);
    let (chunked, many) = triangle_misses(16);
    assert_eq!(one, 1);
    assert!(many > 20, "{many} chunks");
    assert!(whole > 0, "clique4 must use the triangle cache");
    assert_eq!(chunked, whole);
}

/// The service-side twin of `cache_accounting.rs`'s identity: under DFS
/// every DBQ of a query is answered by the lane's own table, by a
/// shared-cache hit or by a shared-cache miss — read off an unobserved
/// service.
#[test]
fn every_dbq_of_a_served_query_is_a_hit_or_a_miss_of_the_db_cache_tier() {
    let g = gen::barabasi_albert(150, 8, 5);
    let service = QueryService::new(&g, ServiceConfig::builder().workers(1).build());
    let result = service.wait(service.submit(&queries::clique(4), QueryOptions::new()));
    assert_eq!(result.terminal, Terminal::Completed);
    let shared = shared_probes(&service);
    let lane_hits = lanes_after_fence(&service)
        .get_u64("db_cache_hits")
        .unwrap();
    assert!(lane_hits > 0, "clique4 re-queries down a task");
    assert_eq!(lane_hits + shared, result.metrics.dbq_executions);
}
