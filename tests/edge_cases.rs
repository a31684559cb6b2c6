//! Edge-case behaviour across the stack: degenerate graphs, patterns
//! larger than the data graph, isolated vertices, empty candidate
//! spaces, and split interactions.

use benu::engine;
use benu::graph::{gen, Graph, GraphBuilder};
use benu::pattern::queries;
use benu::plan::PlanBuilder;
use benu::prelude::*;

#[test]
fn pattern_larger_than_graph_yields_zero() {
    let g = gen::complete(3);
    let plan = PlanBuilder::new(&queries::clique(5)).best_plan();
    assert_eq!(engine::count_embeddings(&plan, &g), 0);
}

#[test]
fn edgeless_graph_yields_zero_for_any_pattern() {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(10);
    let g = b.build();
    for (name, p) in queries::evaluation_queries() {
        let plan = PlanBuilder::new(&p).best_plan();
        assert_eq!(engine::count_embeddings(&plan, &g), 0, "{name}");
    }
}

#[test]
fn isolated_vertices_do_not_affect_counts() {
    let base = gen::complete(5);
    let mut padded = GraphBuilder::new();
    for (u, v) in base.edges() {
        padded.add_edge(u, v);
    }
    padded.reserve_vertices(50); // 45 isolated vertices
    let padded = padded.build();
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    assert_eq!(
        engine::count_embeddings(&plan, &base),
        engine::count_embeddings(&plan, &padded)
    );
}

#[test]
fn single_edge_pattern_counts_edges() {
    let g = gen::erdos_renyi_gnm(50, 170, 12);
    let p = benu::pattern::Pattern::from_edges(2, &[(0, 1)]);
    let plan = PlanBuilder::new(&p).best_plan();
    // Symmetry breaking halves the 2M ordered maps: one match per edge.
    assert_eq!(engine::count_embeddings(&plan, &g), g.num_edges() as u64);
}

#[test]
fn star_pattern_with_non_adjacent_second_vertex_splits_correctly() {
    // Force a matching order whose second vertex is NOT adjacent to the
    // first: candidates come from V(G) and splitting divides by |V(G)|.
    let g = gen::barabasi_albert(60, 3, 21);
    let p = queries::path(3); // 0-1-2
    let plan = PlanBuilder::new(&p).matching_order(vec![0, 2, 1]).build();
    let expected = engine::count_embeddings(&plan, &g);
    let cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(2)
            .threads_per_worker(2)
            .tau(7)
            .build(),
    );
    let outcome = cluster.run(&plan).unwrap();
    assert_eq!(outcome.total_matches, expected);
    assert!(
        outcome.total_tasks > g.num_vertices(),
        "non-adjacent second vertex splits hubs by |V(G)| / tau"
    );
}

#[test]
fn self_loops_in_input_are_ignored_end_to_end() {
    let g = Graph::from_edges([(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]);
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    assert_eq!(engine::count_embeddings(&plan, &g), 1);
}

#[test]
fn two_vertex_graph_hosts_no_triangle_but_one_edge() {
    let g = Graph::from_edges([(0, 1)]);
    let tri = PlanBuilder::new(&queries::triangle()).best_plan();
    assert_eq!(engine::count_embeddings(&tri, &g), 0);
    let edge = benu::pattern::Pattern::from_edges(2, &[(0, 1)]);
    let plan = PlanBuilder::new(&edge).best_plan();
    assert_eq!(engine::count_embeddings(&plan, &g), 1);
}

#[test]
fn cluster_on_tiny_graph_with_many_workers() {
    // More workers than vertices: empty task queues must be fine.
    let g = gen::complete(3);
    let cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(8)
            .threads_per_worker(2)
            .build(),
    );
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    let outcome = cluster.run(&plan).unwrap();
    assert_eq!(outcome.total_matches, 1);
    assert_eq!(outcome.workers.len(), 8);
}

#[test]
fn compressed_plan_on_graph_without_matches_emits_no_codes() {
    let g = gen::grid(5, 5); // bipartite: no triangles
    let plan = PlanBuilder::new(&queries::q2())
        .compressed(true)
        .best_plan();
    let cluster = Cluster::new(&g, ClusterConfig::default());
    let outcome = cluster.run(&plan).unwrap();
    assert_eq!(outcome.total_matches, 0);
    assert_eq!(outcome.metrics.codes, 0);
    assert_eq!(outcome.metrics.code_bytes, 0);
}
