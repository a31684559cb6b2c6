//! DFS-vs-hybrid byte-identity property suite.
//!
//! The hybrid frontier engine reorders *when* adjacency sets are fetched
//! (one deduplicated batch per expansion level instead of one lookup per
//! DBQ miss) but must never change *what* is enumerated. This suite
//! crosses {static, work-stealing} schedulers × {faults off, crash +
//! shard outage} × {tiny, medium, unbounded} byte budgets and asserts
//! that every hybrid configuration produces the exact match count, the
//! exact sorted match set, and — on deterministic configurations — a
//! same-seed replay of the frontier/spill report.

use benu_cluster::{Cluster, ClusterConfig, ExecMode, RunOutcome, SchedulerKind};
use benu_engine::MatchSet;
use benu_fault::FaultPlan;
use benu_graph::Graph;
use benu_pattern::queries;
use benu_plan::{ExecutionPlan, PlanBuilder};

const BUDGETS: [(&str, usize); 3] = [("tiny", 512), ("medium", 64 << 10), ("unbounded", 0)];

fn config(scheduler: SchedulerKind, mode: ExecMode, budget: usize, faulty: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .workers(3)
        .threads_per_worker(2)
        // Faulty runs disable the cache so every fetch is a fault site;
        // clean runs keep a small cache in the loop.
        .cache_capacity_bytes(if faulty { 0 } else { 1 << 18 })
        .tau(20)
        .scheduler(scheduler)
        // Replication 2 lets reads fail over across the injected outage.
        .replication(if faulty { 2 } else { 1 })
        .exec_mode(mode)
        .memory_budget_bytes(budget)
        .build()
}

/// Crash worker 1 after 4 tasks and darken shard 0 from the recovery
/// pass onwards — the requeue and failover machinery both engage.
fn chaos_plan() -> FaultPlan {
    FaultPlan::builder(42)
        .transient_rate(0.02)
        .crash(1, 4)
        .shard_outage(0, 2)
        .build()
}

fn run(
    g: &Graph,
    plan: &ExecutionPlan,
    scheduler: SchedulerKind,
    mode: ExecMode,
    budget: usize,
    faults: Option<FaultPlan>,
) -> (RunOutcome, MatchSet) {
    let mut cluster = Cluster::new(g, config(scheduler, mode, budget, faults.is_some()));
    cluster.set_fault_plan(faults);
    cluster.run_collect(plan).expect("run must survive")
}

#[test]
fn hybrid_matches_dfs_across_schedulers_faults_and_budgets() {
    let g = benu_graph::gen::barabasi_albert(100, 4, 13);
    let plan = PlanBuilder::new(&queries::q5()).best_plan();
    for scheduler in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
        for faulty in [false, true] {
            let faults = faulty.then(chaos_plan);
            let (dfs, dfs_matches) = run(&g, &plan, scheduler, ExecMode::Dfs, 0, faults.clone());
            assert_eq!(dfs.exec_mode, ExecMode::Dfs);
            assert_eq!(dfs.frontier.expansions, 0, "DFS never expands a frontier");
            assert_eq!(dfs.frontier.spill_events, 0);
            for (label, budget) in BUDGETS {
                let (hy, hy_matches) = run(
                    &g,
                    &plan,
                    scheduler,
                    ExecMode::Hybrid,
                    budget,
                    faults.clone(),
                );
                let ctx = format!("{scheduler:?}/faulty={faulty}/budget={label}");
                assert_eq!(hy.exec_mode, ExecMode::Hybrid);
                assert_eq!(hy.total_matches, dfs.total_matches, "{ctx}: count diverged");
                assert_eq!(hy.metrics.codes, dfs.metrics.codes, "{ctx}: codes diverged");
                assert_eq!(hy_matches, dfs_matches, "{ctx}: match set diverged");
                // Instruction-level metrics are order-free counts, so
                // they agree exactly too.
                assert_eq!(hy.metrics, dfs.metrics, "{ctx}: metrics diverged");
                if budget == 0 {
                    assert_eq!(
                        hy.frontier.spill_events, 0,
                        "{ctx}: unbounded must not spill"
                    );
                    assert!(hy.frontier.expansions > 0, "{ctx}: hybrid must batch");
                }
            }
        }
    }
}

#[test]
fn frontier_report_replays_byte_identically_on_deterministic_configs() {
    // 1 worker × 1 thread × static scheduler is the deterministic
    // snapshot configuration: two same-seed runs must agree on every
    // frontier counter, not just the match count.
    let g = benu_graph::gen::erdos_renyi_gnm(80, 320, 7);
    let plan = PlanBuilder::new(&queries::triangle()).best_plan();
    let cfg = ClusterConfig::builder()
        .workers(1)
        .threads_per_worker(1)
        .cache_capacity_bytes(1 << 18)
        .tau(20)
        .exec_mode(ExecMode::Hybrid)
        .memory_budget_bytes(8 << 10)
        .build();
    let a = Cluster::new(&g, cfg).run(&plan).unwrap();
    let b = Cluster::new(&g, cfg).run(&plan).unwrap();
    assert_eq!(a.frontier, b.frontier);
    assert_eq!(a.total_matches, b.total_matches);
    assert!(a.frontier.expansions > 0);
}

#[test]
fn tight_budget_spills_yet_finishes_with_exact_counts() {
    let g = benu_graph::gen::barabasi_albert(150, 5, 3);
    let plan = PlanBuilder::new(&queries::clique(4)).best_plan();
    let expected = {
        let cfg = config(SchedulerKind::Static, ExecMode::Dfs, 0, false);
        Cluster::new(&g, cfg).run(&plan).unwrap().total_matches
    };
    let cfg = config(SchedulerKind::Static, ExecMode::Hybrid, 256, false);
    let outcome = Cluster::new(&g, cfg).run(&plan).unwrap();
    assert_eq!(outcome.total_matches, expected);
    assert!(
        outcome.frontier.spill_events > 0,
        "256 bytes must force spills"
    );
}
