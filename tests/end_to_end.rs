//! End-to-end integration tests spanning every crate: the plan compiler,
//! the engine, the cluster runtime, both baselines and the brute-force
//! reference must all agree on match counts.

use benu::baselines::{starjoin, wcoj};
use benu::engine::reference;
use benu::graph::{gen, Graph};
use benu::pattern::queries;
use benu::plan::PlanBuilder;
use benu::prelude::*;

fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("er", gen::erdos_renyi_gnm(60, 220, 5)),
        (
            "powerlaw",
            gen::chung_lu_power_law(gen::PowerLawConfig {
                n: 80,
                m: 320,
                gamma: 2.3,
                clustering: 0.4,
                seed: 11,
            }),
        ),
        ("ba", gen::barabasi_albert(70, 3, 2)),
        ("demo", Graph::from_edges(queries::demo_data_edges())),
    ]
}

#[test]
fn all_systems_agree_on_all_queries() {
    for (gname, g) in test_graphs() {
        let cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(3)
                .threads_per_worker(2)
                .cache_capacity_bytes(1 << 20)
                .tau(8)
                .build(),
        );
        for (qname, p) in queries::catalogue() {
            let expected = reference::count_subgraphs(&g, &p);

            let plan = PlanBuilder::new(&p)
                .graph_stats(g.num_vertices(), g.num_edges())
                .best_plan();
            let engine_count = benu::engine::count_embeddings(&plan, &g);
            assert_eq!(engine_count, expected, "{gname}/{qname}: engine");

            let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
            let cluster_outcome = cluster.run(&compressed).unwrap();
            assert_eq!(
                cluster_outcome.total_matches, expected,
                "{gname}/{qname}: cluster (compressed)"
            );

            let join = starjoin::run(&g, &p, &starjoin::StarJoinConfig::default());
            assert!(join.completed, "{gname}/{qname}: star join crashed");
            assert_eq!(join.matches, expected, "{gname}/{qname}: star join");

            let wc = wcoj::run(&g, &p, &wcoj::WcojConfig::default());
            assert!(wc.completed, "{gname}/{qname}: wcoj oom");
            assert_eq!(wc.matches, expected, "{gname}/{qname}: wcoj");
        }
    }
}

#[test]
fn demo_graph_contains_the_papers_match() {
    // Fig. 1: f' = (v1, v2, v3, v4, v5, v8) — 0-based (0,1,2,3,4,7) — is a
    // match of the demo pattern in the demo data graph.
    let g = Graph::from_edges(queries::demo_data_edges());
    let p = queries::demo_pattern();
    let plan = PlanBuilder::new(&p).best_plan();
    let matches = benu::engine::collect_embeddings(&plan, &g);
    assert!(
        matches.rows().any(|row| row == [0, 1, 2, 3, 4, 7]),
        "paper match missing from {matches:?}"
    );
}

#[test]
fn forced_matching_orders_all_give_the_same_count() {
    // Every matching order must enumerate the same matches — only cost
    // differs (§III-B: plans are correct for any order).
    let g = gen::erdos_renyi_gnm(40, 150, 9);
    let p = queries::q1();
    let expected = reference::count_subgraphs(&g, &p);
    let orders: [[usize; 5]; 4] = [
        [0, 1, 2, 3, 4],
        [4, 3, 2, 1, 0],
        [2, 0, 4, 1, 3],
        [1, 4, 0, 3, 2],
    ];
    for order in orders {
        let plan = PlanBuilder::new(&p).matching_order(order.to_vec()).build();
        assert_eq!(
            benu::engine::count_embeddings(&plan, &g),
            expected,
            "order {order:?}"
        );
    }
}

#[test]
fn optimization_levels_preserve_semantics() {
    use benu::plan::optimize::OptLevel;
    let g = gen::chung_lu_power_law(gen::PowerLawConfig {
        n: 50,
        m: 200,
        gamma: 2.2,
        clustering: 0.5,
        seed: 3,
    });
    for (qname, p) in queries::evaluation_queries() {
        let expected = reference::count_subgraphs(&g, &p);
        for level in OptLevel::LADDER {
            let plan = PlanBuilder::new(&p).optimizations(level).build();
            assert_eq!(
                benu::engine::count_embeddings(&plan, &g),
                expected,
                "{qname} at optimization level {}",
                level.label()
            );
        }
    }
}

#[test]
fn cluster_collects_the_reference_match_set() {
    let g = gen::erdos_renyi_gnm(35, 120, 31);
    let p = queries::q6();
    let sb = benu::pattern::SymmetryBreaking::compute(&p);
    let expected = reference::enumerate(&g, &p, &sb);
    let cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(2)
            .threads_per_worker(2)
            .build(),
    );
    let plan = PlanBuilder::new(&p).best_plan();
    let (_, matches) = cluster.run_collect(&plan).unwrap();
    assert_eq!(matches.to_vecs(), expected);
}

#[test]
fn kv_store_round_trip_through_cluster() {
    // The cluster's store serves exactly the graph's adjacency sets.
    let g = gen::barabasi_albert(100, 3, 7);
    let cluster = Cluster::new(&g, ClusterConfig::builder().workers(4).build());
    for v in g.vertices() {
        let adj = cluster.resident().store().get_unaccounted(v).unwrap();
        assert_eq!(adj.as_slice(), g.neighbors(v));
    }
    // Stored values are the raw adjacency payload behind a one-byte
    // codec tag (raw-u32 is the default), one tag per vertex.
    assert_eq!(
        cluster.resident().store().total_value_bytes(),
        g.adjacency_bytes() + g.num_vertices()
    );
}

#[test]
fn match_counts_are_invariant_under_the_total_order() {
    // The total order ≺ only selects which representative match of each
    // subgraph survives symmetry breaking — the count is order-free.
    use benu::engine::{CompiledPlan, CountingConsumer, InMemorySource, LocalEngine};
    let g = gen::barabasi_albert(80, 3, 33);
    let source = InMemorySource::from_graph(&g);
    let orders = [
        benu::graph::TotalOrder::new(&g),
        benu::graph::TotalOrder::identity(g.num_vertices()),
        // An arbitrary one: the degree order of an unrelated graph.
        benu::graph::TotalOrder::new(&gen::barabasi_albert(80, 3, 34)),
    ];
    for (qname, p) in queries::evaluation_queries() {
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let counts: Vec<u64> = orders
            .iter()
            .map(|order| {
                let mut engine = LocalEngine::new(&compiled, &source, order);
                let mut c = CountingConsumer::default();
                engine.run_all_vertices(&mut c).matches
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{qname}: counts differ across total orders: {counts:?}"
        );
    }
}

#[test]
fn scalability_counts_stable_across_worker_counts() {
    let g = gen::barabasi_albert(200, 4, 19);
    let p = queries::q9();
    let plan = PlanBuilder::new(&p).compressed(true).best_plan();
    let mut counts = std::collections::HashSet::new();
    for workers in [1usize, 2, 4, 8] {
        let cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(workers)
                .threads_per_worker(2)
                .build(),
        );
        counts.insert(cluster.run(&plan).unwrap().total_matches);
    }
    assert_eq!(counts.len(), 1, "worker count changed results: {counts:?}");
}
