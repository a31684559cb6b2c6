//! Regression tests for two defects found while the four worker bodies
//! were folded into one executor: both fail at the commit before the
//! fold.

use benu_cluster::{Cluster, ClusterConfig, ExecMode};
use benu_graph::gen;
use benu_pattern::queries;
use benu_plan::PlanBuilder;

/// Regression: hybrid execution records no per-task cost, and used to
/// hand back an all-zero profile — which, installed, placed every task
/// as if it cost nothing. A DFS profile, installed, places tasks and
/// keeps the configured split.
#[test]
fn hybrid_runs_report_no_cost_profile_and_dfs_profiles_keep_the_split() {
    let g = gen::star(200);
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    let config = |mode| {
        ClusterConfig::builder()
            .workers(2)
            .threads_per_worker(1)
            .tau_auto(true)
            .exec_mode(mode)
            .collect_task_profile(true)
            .build()
    };
    let hybrid = Cluster::new(&g, config(ExecMode::Hybrid))
        .run(&plan)
        .unwrap();
    assert_eq!(hybrid.cost_profile, None, "no per-task cost was recorded");

    let mut cluster = Cluster::new(&g, config(ExecMode::Dfs));
    let first = cluster.run(&plan).unwrap();
    let profile = first.cost_profile.clone().expect("DFS records task costs");
    assert!(profile.total() > 0);
    assert!(
        first.total_tasks > g.num_vertices(),
        "auto τ splits the hub"
    );
    cluster.set_cost_profile(Some(profile));
    let second = cluster.run(&plan).unwrap();
    assert_eq!(second.total_matches, first.total_matches);
    assert_eq!(
        (second.total_tasks, second.effective_tau),
        (first.total_tasks, first.effective_tau),
        "an installed profile keeps the configured split"
    );
}

/// Regression: a non-zero budget smaller than the thread count used
/// to integer-divide to a zero per-thread share, which reads as
/// *unbounded* — the tightest budget became no budget.
#[test]
fn tightest_memory_budget_spills_instead_of_reading_as_unbounded() {
    let g = gen::barabasi_albert(120, 4, 21);
    let plan = PlanBuilder::new(&queries::q5()).best_plan();
    let config = |mode, budget| {
        ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(2)
            .tau(20)
            .exec_mode(mode)
            .memory_budget_bytes(budget)
            .build()
    };
    let dfs = Cluster::new(&g, config(ExecMode::Dfs, 0))
        .run(&plan)
        .unwrap();
    let tight = Cluster::new(&g, config(ExecMode::Hybrid, 1))
        .run(&plan)
        .unwrap();
    assert!(tight.spill_events > 0, "a 1-byte budget must spill");
    assert_eq!(tight.total_matches, dfs.total_matches);
    assert_eq!(tight.metrics, dfs.metrics);
}
