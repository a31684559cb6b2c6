//! The class table under its LRU bound.
//!
//! The service keeps one record per pattern class. At most 32 classes
//! hold a compiled plan at once; a miss beyond that evicts the plan of
//! the class used least recently, while its tally and observations stay.
//! These tests serve more classes than the bound and pin the plan-cache
//! counters, each result's hit flag, the per-class report rows, and
//! feedback re-planning across an eviction.

use benu_graph::gen;
use benu_obs::ReportMode;
use benu_pattern::{queries, Pattern};
use benu_service::{PlanCacheStats, QueryOptions, QueryResult, QueryService, ServiceConfig};

/// A `cycle`-vertex cycle with a path of `tail` more vertices hanging
/// off vertex 0.
fn tadpole(cycle: usize, tail: usize) -> Pattern {
    let mut edges: Vec<_> = (0..cycle).map(|i| (i, (i + 1) % cycle)).collect();
    edges.extend((cycle..cycle + tail).map(|i| (if i == cycle { 0 } else { i - 1 }, i)));
    Pattern::from_edges(cycle + tail, &edges)
}

/// 33 distinct classes, one more than the plan bound, each at most nine
/// vertices (planning time grows steeply past that): paths of 2–9
/// vertices, cycles of 3–8, stars of 3–8 leaves, triangles and squares
/// with tails of 1–5 vertices, and cliques of 4–6.
fn classes() -> Vec<Pattern> {
    let paths = (2..=9).map(queries::path);
    let cycles = (3..=8).map(queries::cycle);
    let stars = (3..=8).map(queries::star);
    let tadpoles = (3..=4).flat_map(|c| (1..=5).map(move |t| tadpole(c, t)));
    let cliques = (4..=6).map(queries::clique);
    let classes = paths.chain(cycles).chain(stars).chain(tadpoles);
    classes.chain(cliques).collect()
}

fn service(feedback: bool) -> QueryService {
    let g = gen::random_connected(24, 6, 5);
    let config = ServiceConfig::builder()
        .workers(2)
        .chunk_tasks(8)
        .feedback_replanning(feedback)
        .build();
    QueryService::new(&g, config)
}

fn serve(service: &QueryService, pattern: &Pattern) -> QueryResult {
    service.wait(service.submit(pattern, QueryOptions::new()))
}

fn stats(hits: u64, misses: u64, evictions: u64, entries: usize) -> PlanCacheStats {
    PlanCacheStats {
        hits,
        misses,
        evictions,
        entries,
    }
}

#[test]
fn the_coldest_class_loses_its_plan_and_keeps_its_record() {
    let service = service(false);
    let classes = classes();
    assert_eq!(classes.len(), 33);
    let mut first = Vec::new();
    for pattern in &classes {
        let result = serve(&service, pattern);
        assert!(!result.plan_cache_hit, "a new class compiles");
        first.push(result.matches_found);
    }
    // The 33rd class evicted the first one's plan.
    assert_eq!(service.plan_cache_stats(), stats(0, 33, 1, 32));

    // A hit makes the second class, the coldest, the most recent: the
    // first class recompiles and evicts the third instead.
    assert!(serve(&service, &classes[1]).plan_cache_hit);
    let again = serve(&service, &classes[0]);
    assert!(!again.plan_cache_hit, "an evicted class recompiles");
    assert_eq!(again.matches_found, first[0]);
    assert_eq!(service.plan_cache_stats(), stats(1, 34, 2, 32));

    // A relabeled image of a resident class hits, the spared second
    // class hits, and the evicted third misses and evicts the fourth.
    let relabeled = Pattern::from_edges(4, &[(3, 0), (3, 1), (3, 2)]);
    assert_eq!(relabeled.canonical_hash(), classes[14].canonical_hash());
    assert!(serve(&service, &relabeled).plan_cache_hit);
    assert!(serve(&service, &classes[1]).plan_cache_hit);
    assert!(!serve(&service, &classes[2]).plan_cache_hit);
    assert_eq!(service.plan_cache_stats(), stats(3, 35, 3, 32));

    // Every class still reports, evicted or not: its settled queries
    // and their matches.
    let report = service.report(ReportMode::Deterministic);
    for (i, pattern) in classes.iter().enumerate() {
        let class = format!("service/class.{}", pattern.canonical_hash());
        let read = |key: &str| report.get_u64(&format!("{class}/{key}"));
        let hits = match i {
            1 => 2,
            14 => 1,
            _ => 0,
        };
        let served = 1 + hits + u64::from(i == 0 || i == 2);
        assert_eq!(read("completed"), Some(served), "{class}");
        assert_eq!(read("matches_found"), Some(served * first[i]), "{class}");
        assert_eq!(read("plan_cache_hits"), Some(hits), "{class}");
    }
    for (key, value) in [
        ("hits", 3),
        ("misses", 35),
        ("evictions", 3),
        ("entries", 32),
    ] {
        let got = report.get_u64(&format!("service/plan_cache/{key}"));
        assert_eq!(got, Some(value), "service/plan_cache/{key}");
    }
}

#[test]
fn an_evicted_replanned_class_is_not_replanned_again() {
    let service = service(true);
    let mut classes = classes();
    // The 4-vertex path: on this graph its re-planned plan does less
    // work than its statistics plan, so vticks tell the two apart.
    let path = classes.remove(2);
    let cold = serve(&service, &path);
    let warm = serve(&service, &path);
    assert!(warm.plan_cache_hit);
    assert_eq!(service.feedback_replans(), 1);
    assert_ne!(warm.vticks, cold.vticks, "the re-plan changed the plan");
    // 32 more classes push the re-planned plan out.
    for pattern in &classes {
        assert!(!serve(&service, pattern).plan_cache_hit);
    }
    assert_eq!(service.plan_cache_stats(), stats(1, 33, 1, 32));
    // Back, the class compiles its statistics plan and keeps it.
    let back = serve(&service, &path);
    assert!(!back.plan_cache_hit);
    let resident = serve(&service, &path);
    assert!(resident.plan_cache_hit);
    assert_eq!(service.plan_cache_stats(), stats(2, 34, 2, 32));
    assert_eq!(service.feedback_replans(), 1, "one re-plan per class");
    for result in [&back, &resident] {
        assert_eq!(result.vticks, cold.vticks, "the statistics plan ran");
    }
    for result in [&warm, &back, &resident] {
        assert_eq!(result.matches_found, cold.matches_found);
    }
    let report = service.report(ReportMode::Deterministic);
    assert_eq!(report.get_u64("service/feedback_replans"), Some(1));
}
