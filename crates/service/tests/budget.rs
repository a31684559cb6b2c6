//! The frontier byte budget in the serving layer.
//!
//! `DataPath::memory_budget_bytes` is the budget of whatever shares it —
//! here the pool, split evenly across its workers by the same
//! `benu_cluster::Resident::executor` the batch runtime gets its lanes
//! from (whose unit test pins that a share never rounds down to zero,
//! i.e. to *unbounded*). The service exposes no spill counter, so
//! what is checked here is the other half of the contract: hybrid chunks
//! that spill on every level still commit exactly what DFS commits.

use benu_cluster::ExecMode;
use benu_graph::gen;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ResultMode, ServiceConfig};

#[test]
fn tightest_budget_commits_exactly_what_dfs_commits() {
    let g = gen::barabasi_albert(150, 4, 7);
    let run = |exec_mode, budget| {
        let service = QueryService::new(
            &g,
            ServiceConfig::builder()
                .workers(2)
                .chunk_tasks(16)
                .exec_mode(exec_mode)
                .memory_budget_bytes(budget)
                .build(),
        );
        let count = service.submit(&queries::q5(), QueryOptions::new());
        let collect = service.submit(
            &queries::q1(),
            QueryOptions::new().mode(ResultMode::Collect),
        );
        let (count, collect) = (service.wait(count), service.wait(collect));
        (
            count.matches_found,
            count.vticks,
            count.metrics,
            collect.matches,
        )
    };
    // One byte across two workers: the smallest non-zero budget there is.
    assert_eq!(run(ExecMode::Hybrid, 1), run(ExecMode::Dfs, 0));
}
