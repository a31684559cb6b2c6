//! Satellite: the service determinism guard.
//!
//! The same seed and query mix must produce identical per-query results
//! — terminal status, match count, committed match stream, virtual-time
//! latency — and an identical deterministic report at every concurrency
//! level and across both execution modes. This
//! is the serving-layer extension of the cluster's
//! `hybrid_equivalence` suite: budgets and result modes are enforced at
//! deterministic chunk-commit boundaries, so even *truncating* queries
//! (deadlines, match caps, TopK) cut the stream at the same point
//! everywhere.

use benu_cluster::ExecMode;
use benu_graph::gen;
use benu_obs::{Report, ReportMode};
use benu_pattern::{queries, Pattern};
use benu_service::{QueryOptions, QueryResult, QueryService, ResultMode, ServiceConfig, Terminal};

/// The comparable surface of a result: everything except wall time and
/// completion order (which legitimately depend on worker timing).
fn surface(r: &QueryResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.id,
        r.terminal.clone(),
        r.matches_found,
        r.matches.clone(),
        r.vticks,
        r.chunks_committed,
        r.chunks_discarded,
        r.plan_cache_hit,
        r.exhaustive,
        r.metrics,
    )
}

/// The fixed mix: every truncation mode and a plan-cache hit.
fn mix() -> Vec<(Pattern, QueryOptions)> {
    vec![
        (queries::triangle(), QueryOptions::new()),
        (queries::q1(), QueryOptions::new().mode(ResultMode::Collect)),
        // Budgeted queries: every truncation mode is in the mix.
        (queries::triangle(), QueryOptions::new().max_matches(100)),
        (queries::q1(), QueryOptions::new().deadline_vticks(2_000)),
        (
            queries::triangle(),
            QueryOptions::new().mode(ResultMode::TopK(7)),
        ),
        (
            queries::q2(),
            QueryOptions::new().mode(ResultMode::Sample { n: 5, seed: 42 }),
        ),
        // A relabeled triangle — plan-cache hit, same results.
        (
            Pattern::from_edges(3, &[(2, 1), (1, 0), (0, 2)]),
            QueryOptions::new().mode(ResultMode::Collect),
        ),
    ]
}

/// Submits `queries` and waits for every one, in id order.
fn run(config: ServiceConfig, queries: &[(Pattern, QueryOptions)]) -> (Vec<QueryResult>, Report) {
    let g = gen::barabasi_albert(150, 4, 7);
    let service = QueryService::new(&g, config);
    let ids: Vec<_> = queries
        .iter()
        .map(|(pattern, options)| service.submit(pattern, options.clone()))
        .collect();
    let results: Vec<QueryResult> = ids.into_iter().map(|id| service.wait(id)).collect();
    let report = service.report(ReportMode::Deterministic);
    (results, report)
}

/// Submits the fixed mix and waits for every query, in id order.
fn run_mix(config: ServiceConfig) -> (Vec<QueryResult>, Report) {
    run(config, &mix())
}

#[test]
fn results_are_identical_across_concurrency_and_modes() {
    let base = ServiceConfig::builder().chunk_tasks(16);
    let mut baseline: Option<(Vec<QueryResult>, Report)> = None;
    for workers in [1, 3] {
        for exec_mode in [ExecMode::Dfs, ExecMode::Hybrid] {
            let config = base.clone().workers(workers).exec_mode(exec_mode).build();
            let (results, report) = run_mix(config);
            match &baseline {
                None => baseline = Some((results, report)),
                Some((expect_results, expect_report)) => {
                    for (got, want) in results.iter().zip(expect_results) {
                        assert_eq!(
                            surface(got),
                            surface(want),
                            "query {} diverged at workers={workers} {exec_mode:?}",
                            got.id
                        );
                    }
                    assert_eq!(
                        &report, expect_report,
                        "deterministic report diverged at workers={workers} {exec_mode:?}"
                    );
                }
            }
        }
    }
    let (results, _) = baseline.expect("at least one configuration ran");
    // The mix exercised every terminal class.
    assert_eq!(results[0].terminal, Terminal::Completed);
    assert!(results[0].exhaustive);
    assert_eq!(results[2].terminal, Terminal::MaxMatchesReached);
    assert_eq!(results[2].matches_found, 100, "count clamps at the cap");
    assert_eq!(results[3].terminal, Terminal::DeadlineExceeded);
    assert!(results[3].chunks_discarded > 0, "the deadline must bite");
    assert_eq!(results[4].terminal, Terminal::Completed);
    assert_eq!(results[4].matches.len(), 7);
    assert!(!results[4].exhaustive, "TopK completes without exhausting");
    assert_eq!(results[5].matches.len(), 5, "reservoir filled");
    assert!(results[6].plan_cache_hit, "relabeled pattern must hit");
}

/// Asserts that the report's lifecycle counts are the terminals of
/// `results` counted: `completed` includes `max_matches_reached`, and
/// `degraded` is `degraded_partial`. `admitted` counts every submission
/// admission did not shed.
fn assert_lifecycle_counts(results: &[QueryResult], report: &Report) {
    let admitted = results.iter().filter(|r| r.terminal.name() != "rejected");
    assert_eq!(
        report.get_u64("service/admitted"),
        Some(admitted.count() as u64),
        "service/admitted"
    );
    for (key, terminals) in [
        ("completed", &["completed", "max_matches_reached"][..]),
        ("cancelled", &["cancelled"]),
        ("deadline_exceeded", &["deadline_exceeded"]),
        ("failed", &["failed"]),
        ("degraded", &["degraded_partial"]),
        ("rejected", &["rejected"]),
    ] {
        let counted = results
            .iter()
            .filter(|r| terminals.contains(&r.terminal.name()))
            .count();
        assert_eq!(
            report.get_u64(&format!("service/{key}")),
            Some(counted as u64),
            "service/{key}"
        );
    }
}

#[test]
fn the_report_sums_what_wait_handed_over() {
    // The deterministic report is one record per pattern class, folded
    // from results the service no longer holds: each class's sums must
    // be the sums over the results `wait` returned.
    let config = || ServiceConfig::builder().workers(2).chunk_tasks(16).build();
    let queries = mix();
    let (results, report) = run(config(), &queries);
    let mut sums = std::collections::BTreeMap::<u64, (u64, u64)>::new();
    for ((pattern, _), r) in queries.iter().zip(&results) {
        let class = sums.entry(pattern.canonical_hash()).or_default();
        class.0 += r.matches_found;
        class.1 += r.vticks;
    }
    assert_eq!(sums.len(), 3, "triangle, q1 and q2");
    for (hash, (matches_found, vticks)) in &sums {
        let class = format!("service/class.{hash}");
        let read = |key: &str| report.get_u64(&format!("{class}/{key}"));
        assert_eq!(read("matches_found"), Some(*matches_found), "{class}");
        assert_eq!(read("vticks"), Some(*vticks), "{class}");
        assert!(*vticks > 0, "{class} did work");
    }
    let classes = report.get_tree("service").expect("service subtree").iter();
    let reported = classes.filter(|(key, _)| key.starts_with("class.")).count();
    assert_eq!(
        reported,
        sums.len(),
        "one record per class, nothing per query"
    );
    assert_lifecycle_counts(&results, &report);

    // A chunk cap below every query's footprint sheds each query that
    // admission evaluates, whatever the backlog; a query terminal at
    // admission settles without being evaluated.
    let mut shed = queries.clone();
    shed.push((queries::triangle(), QueryOptions::new().max_matches(0)));
    shed.push((
        queries::triangle(),
        QueryOptions::new().mode(ResultMode::TopK(0)),
    ));
    let one_chunk_cap = ServiceConfig::builder()
        .workers(2)
        .chunk_tasks(16)
        .max_queued_chunks(1)
        .build();
    let (shed_results, shed_report) = run(one_chunk_cap, &shed);
    let reached = |terminal: &str| shed_results.iter().any(|r| r.terminal.name() == terminal);
    for terminal in ["completed", "max_matches_reached", "rejected"] {
        assert!(reached(terminal), "the capped mix reaches {terminal}");
    }
    assert_lifecycle_counts(&shed_results, &shed_report);

    // A query that does less shows in the report.
    let mut capped = queries;
    capped[0].1 = QueryOptions::new().max_matches(10);
    let (_, capped_report) = run(config(), &capped);
    assert_ne!(capped_report, report, "the report reads the results");
}

#[test]
fn results_are_identical_across_wire_codecs() {
    // The codec changes how adjacency values travel, never what they
    // decode to — the whole query mix (including truncating modes, which
    // cut the stream at chunk boundaries) must be byte-identical across
    // codecs. Wire statistics legitimately differ and are excluded.
    let mix = |codec| {
        run_mix(
            ServiceConfig::builder()
                .workers(2)
                .chunk_tasks(16)
                .codec(codec)
                .build(),
        )
        .0
    };
    let raw = mix(benu_cluster::CodecKind::RawU32);
    let delta = mix(benu_cluster::CodecKind::DeltaVarint);
    for (got, want) in delta.iter().zip(&raw) {
        assert_eq!(
            surface(got),
            surface(want),
            "query {} diverged across codecs",
            got.id
        );
    }
}

#[test]
fn unbudgeted_counts_match_the_sequential_engine() {
    let g = gen::barabasi_albert(120, 4, 11);
    let service = QueryService::new(
        &g,
        ServiceConfig::builder().workers(3).chunk_tasks(16).build(),
    );
    for pattern in [queries::triangle(), queries::q1(), queries::square()] {
        let plan = benu_plan::PlanBuilder::new(&pattern).best_plan();
        let expected = benu_engine::count_embeddings(&plan, &g);
        let id = service.submit(&pattern, QueryOptions::new());
        let result = service.wait(id);
        assert_eq!(result.matches_found, expected);
        assert!(result.exhaustive);
    }
}

#[test]
fn collected_streams_are_sorted_and_complete() {
    // The committed match stream is chunk-ordered with sorted chunks of
    // submitted-numbering embeddings; for a full run over the whole
    // graph that equals the sequential engine's sorted embedding list.
    let g = gen::erdos_renyi_gnm(60, 220, 3);
    let service = QueryService::new(
        &g,
        ServiceConfig::builder().workers(2).chunk_tasks(8).build(),
    );
    let pattern = queries::triangle();
    let plan = benu_plan::PlanBuilder::new(&pattern).best_plan();
    let mut expected = benu_engine::collect_embeddings(&plan, &g);
    expected.sort();
    let id = service.submit(&pattern, QueryOptions::new().mode(ResultMode::Collect));
    let mut got = service.wait(id).matches;
    got.sort();
    assert_eq!(got, expected);
}
