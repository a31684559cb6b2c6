//! Regression test for a defect found while the four worker bodies were
//! folded into one executor: it fails at the commit before the fold.

use benu_cluster::{Cluster, ClusterConfig, ExecMode};
use benu_graph::gen;
use benu_pattern::queries;
use benu_plan::PlanBuilder;

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
    assert!(
        tight.frontier.spill_events > 0,
        "a 1-byte budget must spill"
    );
    assert_eq!(tight.total_matches, dfs.total_matches);
    assert_eq!(tight.metrics, dfs.metrics);
}
