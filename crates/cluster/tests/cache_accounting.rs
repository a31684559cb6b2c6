//! What the database-cache tier reports once the engine answers a task's
//! repeated DBQs from the adjacency sets the task already holds: the
//! tier's hit count still covers every DBQ, and what the shared cache
//! fetches and evicts is what its capacity implies.

use benu_cluster::{Cluster, ClusterConfig};
use benu_graph::gen;
use benu_pattern::queries;
use benu_plan::PlanBuilder;

/// Under DFS every DBQ is exactly one of: answered by the lane's own
/// table, a shared-cache hit, a shared-cache miss. The lanes' hits reach
/// the worker reports in bulk; dropping them breaks the sum.
#[test]
fn every_dbq_is_a_hit_or_a_miss_of_the_db_cache_tier() {
    let g = gen::barabasi_albert(150, 8, 5);
    let plan = PlanBuilder::new(&queries::clique(4)).best_plan();
    for threads in [1, 2] {
        let config = ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(threads)
            .build();
        let outcome = Cluster::new(&g, config).run(&plan).unwrap();
        let hits: u64 = outcome.workers.iter().map(|w| w.cache.hits).sum();
        let misses: u64 = outcome.workers.iter().map(|w| w.cache.misses).sum();
        assert_eq!(
            hits + misses,
            outcome.metrics.dbq_executions,
            "{threads} thread(s): {hits} hits + {misses} misses"
        );
        // Each vertex is fetched once per thread at most, and clique4
        // re-queries the same vertices all the way down a task.
        assert!(misses <= (threads * g.num_vertices()) as u64);
        assert!(outcome.cache_hit_rate() > 0.9);
    }
}

/// The lane's table is dropped whenever the cache evicts, so a cache
/// far smaller than the working set fetches and evicts exactly what it
/// did before the table existed (values pinned at the parent commit): a
/// handle kept past an eviction would skip re-fetches and read fewer
/// bytes.
#[test]
fn cold_cache_traffic_is_what_it_was_without_the_lane_table() {
    let g = gen::barabasi_albert(400, 6, 9);
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    let config = ClusterConfig::builder()
        .workers(1)
        .threads_per_worker(1)
        .cache_capacity_bytes(8 << 10)
        .build();
    let outcome = Cluster::new(&g, config).run(&plan).unwrap();
    let evictions: u64 = outcome.workers.iter().map(|w| w.cache.evictions).sum();
    let misses: u64 = outcome.workers.iter().map(|w| w.cache.misses).sum();
    assert_eq!(
        (outcome.communication_bytes(), misses, evictions),
        (144_830, 1_750, 1_686),
        "bytes, misses, evictions"
    );
}

/// A lane's triangle cache reports what it evicted: with room for four
/// sets, every miss past the fourth pushes one out — and the cache's
/// size changes no instruction count.
#[test]
fn a_full_triangle_cache_reports_its_evictions() {
    let g = gen::barabasi_albert(150, 8, 5);
    let plan = PlanBuilder::new(&queries::clique(4)).best_plan();
    let run = |entries| {
        let config = ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(1)
            .triangle_cache_entries(entries)
            .build();
        Cluster::new(&g, config).run(&plan).unwrap()
    };
    let (small, roomy) = (run(4), run(1 << 14));
    let tri = small.workers[0].triangle_cache;
    assert!(tri.evictions > 0);
    assert_eq!(tri.evictions, tri.misses - 4);
    assert_eq!(roomy.workers[0].triangle_cache.evictions, 0);
    assert_eq!(small.metrics, roomy.metrics);
}

/// Exp-3's zero-capacity point is the paper's no-cache baseline: every
/// DBQ is a store read, however often a task repeats a vertex. The
/// lane's table must not turn a task's repeats into hits the cache could
/// not have served.
#[test]
fn a_disabled_cache_sends_every_dbq_to_the_store() {
    let g = gen::barabasi_albert(150, 8, 5);
    let plan = PlanBuilder::new(&queries::clique(4)).best_plan();
    let config = ClusterConfig::builder()
        .workers(1)
        .threads_per_worker(2)
        .cache_capacity_bytes(0)
        .build();
    let outcome = Cluster::new(&g, config).run(&plan).unwrap();
    let hits: u64 = outcome.workers.iter().map(|w| w.cache.hits).sum();
    let misses: u64 = outcome.workers.iter().map(|w| w.cache.misses).sum();
    assert_eq!((hits, misses), (0, outcome.metrics.dbq_executions));
    assert_eq!(outcome.kv.keys, outcome.metrics.dbq_executions);
}

/// The whole-graph case of the paper's §V-A bound: once a machine's
/// cache holds every adjacency set it reads, each worker faults each set
/// at most once, so a run reads at most `p·|V(G)|` keys from the store —
/// whatever the pattern. (One thread per worker: concurrent threads may
/// race on the same cold miss and double-fetch.)
///
/// "Holds every set" is not `capacity ≥ adjacency_bytes()`: the cache
/// charges `ENTRY_OVERHEAD_BYTES` (48 B) per entry on top of the list and
/// splits its capacity over `cache_shards`, so a cache of exactly the
/// graph's adjacency bytes still evicts. On `ok` × 0.03 with 4 workers ×
/// 1 thread at that capacity, q4 reads 13 150 keys and q5 131 072
/// against `p·|V|` = 480. The 64 MB cache here is far past both charges.
#[test]
fn a_graph_sized_cache_keeps_store_reads_within_the_whole_graph_bound() {
    let g = gen::barabasi_albert(300, 5, 11);
    let capacity = 64 << 20;
    for (name, pattern) in [("triangle", queries::triangle()), ("q4", queries::q4())] {
        let plan = PlanBuilder::new(&pattern).best_plan();
        for workers in [1, 4] {
            let config = ClusterConfig::builder()
                .workers(workers)
                .threads_per_worker(1)
                .cache_capacity_bytes(capacity)
                .build();
            let bound = (workers * g.num_vertices()) as u64;
            let outcome = Cluster::new(&g, config).run(&plan).unwrap();
            assert!(outcome.kv.keys > 0, "{name}: a cold run reads the store");
            assert!(
                outcome.kv.keys <= bound,
                "{name} on {workers} worker(s): {} keys read, bound {bound}",
                outcome.kv.keys
            );
        }
    }
}
