//! `balance::price` prices what a run spends.
//!
//! A task's vticks depend on the graph, the plan and the task only, so
//! the run's task list priced in memory sums to the run's own vticks,
//! whatever the execution mode, the lane count or the split.

use benu_cluster::{balance, Cluster, ClusterConfig, ExecMode, Split};
use benu_engine::CompiledPlan;
use benu_graph::gen;
use benu_pattern::queries;
use benu_plan::PlanBuilder;

#[test]
fn priced_tasks_sum_to_the_runs_vticks_under_dfs_and_hybrid() {
    let g = gen::barabasi_albert(600, 5, 3);
    let plans = [
        (
            "triangle",
            PlanBuilder::new(&queries::triangle()).best_plan(),
        ),
        ("q1", PlanBuilder::new(&queries::q1()).best_plan()),
        (
            "q5 compressed",
            PlanBuilder::new(&queries::q5())
                .compressed(true)
                .best_plan(),
        ),
    ];
    for (name, plan) in &plans {
        let compiled = CompiledPlan::compile(plan);
        for tau in [0, 24] {
            for (mode, workers, threads) in [(ExecMode::Dfs, 4, 1), (ExecMode::Hybrid, 2, 2)] {
                let ctx = format!("{name}, τ {tau}, {mode:?} {workers} × {threads}");
                let config = ClusterConfig::builder()
                    .workers(workers)
                    .threads_per_worker(threads)
                    .tau(tau)
                    .exec_mode(mode)
                    .build();
                let cluster = Cluster::new(&g, config);
                let run = cluster.run(plan).unwrap();
                let (tasks, _) = cluster.resident().tasks(&compiled, Split::Fixed(tau));
                assert_eq!(tasks.len(), run.total_tasks, "{ctx}");
                if tau > 0 {
                    assert!(tasks.len() > g.num_vertices(), "{ctx}: τ splits a hub");
                }
                let priced: u64 = balance::price(&g, &compiled, &tasks).iter().sum();
                assert!(priced > 0, "{ctx}");
                assert_eq!(priced, balance::vticks(&run.metrics), "{ctx}");
            }
        }
    }
}
