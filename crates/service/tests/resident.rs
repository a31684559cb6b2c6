//! One deployment, two runtimes.
//!
//! The serving layer and the batch cluster are both clients of
//! `benu_cluster::Resident`: given the same `DataPath` and shard count
//! they hold the same store, and asked for the same split they generate
//! the same task list. A second loader, or a second copy of the §V-B
//! split, would show up here as a difference.

use benu_cluster::{Cluster, ClusterConfig, CodecKind, DataPath, Split};
use benu_engine::CompiledPlan;
use benu_graph::gen;
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use benu_service::{QueryService, ServiceConfig, AUTO_TAU_VIRTUAL_LANES};

#[test]
fn service_and_cluster_load_the_same_deployment_from_one_data_path() {
    let g = gen::barabasi_albert(400, 5, 23);
    let data = DataPath {
        cache_capacity_bytes: 1 << 20,
        replication: 2,
        codec: CodecKind::DeltaVarint,
        ..DataPath::default()
    };
    let workers = 3;
    let service = QueryService::new(
        &g,
        ServiceConfig {
            workers,
            data,
            ..ServiceConfig::default()
        },
    );
    let cluster = Cluster::new(
        &g,
        ClusterConfig {
            workers,
            threads_per_worker: 1,
            data,
            ..ClusterConfig::default()
        },
    );
    let (serving, batch) = (service.resident(), cluster.resident());
    assert_eq!(serving.data(), batch.data());
    assert_eq!(
        serving.store().total_value_bytes(),
        batch.store().total_value_bytes()
    );
    assert_eq!(serving.store().num_shards(), batch.store().num_shards());
    assert_eq!(serving.store().replication(), batch.store().replication());
    assert_eq!(serving.caches().len(), batch.caches().len());

    let split = Split::Auto {
        lanes: AUTO_TAU_VIRTUAL_LANES,
    };
    let mut split_somewhere = false;
    for (name, pattern) in queries::evaluation_queries().into_iter().take(5) {
        let plan = PlanBuilder::new(&pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let tasks = serving.tasks(&compiled, split);
        assert_eq!(
            tasks,
            batch.tasks(&compiled, split),
            "{name}: the two runtimes split differently"
        );
        split_somewhere |= tasks.0.len() > g.num_vertices();
    }
    assert!(
        split_somewhere,
        "the power-law hubs must split under auto τ"
    );
}
