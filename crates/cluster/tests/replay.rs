//! The pool replayed in virtual time agrees with the pool on threads.
//!
//! `pool::replay` runs a batch run's chunk layout through the pool's own
//! state machine, with a clock instead of threads. Under the static
//! scheduler at one lane per machine — where a batch run's per-machine
//! work and its crash recovery replay (DESIGN §4c) — it reports what
//! `Cluster::run` does, each task priced by `balance::price`: so these
//! tests also check the pricing, machine by machine, against a real run.

use benu_cluster::pool::{replay, Replay};
use benu_cluster::{
    balance, Cluster, ClusterConfig, ExecMode, FaultPlan, Layout, RunOutcome, SchedulerKind, Split,
};
use benu_engine::{CompiledPlan, SearchTask};
use benu_graph::{gen, Graph};
use benu_pattern::queries;
use benu_plan::{ExecutionPlan, PlanBuilder};
use std::collections::HashMap;

const MACHINES: usize = 4;
const TAU: usize = 16;

/// 1 500 vertices, so a DFS chunk holds five or six tasks and a crash
/// boundary falls inside one.
fn setup() -> (Graph, ExecutionPlan) {
    let g = gen::barabasi_albert(1_500, 4, 11);
    (g, PlanBuilder::new(&queries::q1()).best_plan())
}

fn cluster(g: &Graph, crash: Option<&FaultPlan>) -> Cluster {
    let config = ClusterConfig::builder()
        .workers(MACHINES)
        .threads_per_worker(1)
        .tau(TAU)
        .build();
    let mut cluster = Cluster::new(g, config);
    cluster.set_fault_plan(crash.cloned());
    cluster
}

/// `cluster`'s layout for `plan` on `g` replayed, each task priced by
/// [`balance::price`].
fn replayed(
    g: &Graph,
    cluster: &Cluster,
    plan: &ExecutionPlan,
    crash: Option<&FaultPlan>,
) -> Replay {
    let compiled = CompiledPlan::compile(plan);
    let (tasks, _) = cluster.resident().tasks(&compiled, Split::Fixed(TAU));
    let priced = balance::price(g, &compiled, &tasks);
    let vticks: HashMap<SearchTask, u64> = tasks.iter().copied().zip(priced).collect();
    let layout = Layout::new(tasks, MACHINES, 1, ExecMode::Dfs, None);
    let chunks = layout.replay_chunks(|t| vticks[t]);
    replay(&chunks, MACHINES, 1, SchedulerKind::Static, crash)
}

fn per_machine(run: &RunOutcome) -> (Vec<u64>, Vec<usize>) {
    let work = run.workers.iter().map(|w| balance::vticks(&w.metrics));
    let executed = run.workers.iter().map(|w| w.tasks_executed);
    (work.collect(), executed.collect())
}

#[test]
fn the_replay_runs_on_each_machine_what_the_run_ran() {
    let (g, plan) = setup();
    let cluster = cluster(&g, None);
    let run = cluster.run(&plan).unwrap();
    let r = replayed(&g, &cluster, &plan, None);
    assert_eq!((r.work.clone(), r.executed.clone()), per_machine(&run));
    assert_eq!((r.steals, r.handed_back), (0, 0));
    assert_eq!(r.imbalance, run.work_imbalance());
    assert!(r.makespan > 0);
}

#[test]
fn a_replayed_crash_hands_back_what_the_run_requeued_and_costs_time() {
    let (g, plan) = setup();
    let crash = FaultPlan::builder(0).crash(1, 23).build();
    let faulted = cluster(&g, Some(&crash));
    let run = faulted.run(&plan).unwrap();
    assert_eq!(run.recovery.worker_crashes, 1);
    let clean = replayed(&g, &faulted, &plan, None);
    let r = replayed(&g, &faulted, &plan, Some(&crash));
    assert!(r.handed_back > 0);
    assert_eq!(r.handed_back, run.recovery.tasks_requeued);
    assert_eq!((r.work.clone(), r.executed.clone()), per_machine(&run));
    assert!(
        r.makespan >= clean.makespan,
        "a crash cannot finish sooner: {} vs {}",
        r.makespan,
        clean.makespan
    );
}
