//! Budget sweep — hybrid frontier execution under a memory-budget sweep
//! vs the DFS baseline: throughput, kv round trips and peak frontier
//! bytes per budget.
//!
//! Runs the fig9-style workloads (q5, clique4) through a fresh cluster
//! per arm with the database cache disabled, so every adjacency fetch is
//! a store round trip and the frontier's batched reads are visible in
//! `kv.requests`. The DFS baseline runs first, then the hybrid engine
//! sweeps byte budgets from spill-forcing tiny to unbounded. The bin
//! asserts the headline properties directly: every arm reproduces the
//! DFS match count exactly, the unbounded hybrid issues *fewer* kv round
//! trips than DFS, and it never spills — tight budgets trade round-trip
//! savings for spills, never exactness.
//!
//! ```text
//! cargo run --release -p benu-bench --bin budget_sweep -- \
//!     [--dataset ok] [--scale 0.05] [--workers 4] [--threads 2] \
//!     [--tau 32] [--scheduler static] [--codec delta-varint] \
//!     [--json BENCH_budget_sweep.json]
//! ```
//!
//! `--exec-mode`/`--memory-budget` spellings are shared with
//! `degradation_curve` via `benu_bench::cli`; here `--memory-budget`
//! *adds* one extra budget point to the sweep.

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::report::BenchReport;
use benu_bench::{load_dataset, print_table};
use benu_cluster::{Cluster, ClusterConfig, CodecKind, ExecMode, RunOutcome, SchedulerKind};
use benu_graph::datasets::Dataset;
use benu_graph::Graph;
use benu_obs::safe_ratio;
use benu_pattern::queries;
use benu_plan::{ExecutionPlan, PlanBuilder};

/// The swept budgets: spill-forcing tiny through unbounded (0).
const BUDGETS: [(&str, usize); 4] = [
    ("4k", 4 << 10),
    ("64k", 64 << 10),
    ("1m", 1 << 20),
    ("unbounded", 0),
];

struct Row {
    workload: String,
    mode: String,
    budget_bytes: u64,
    matches: u64,
    elapsed_s: f64,
    matches_per_sec: f64,
    kv_requests: u64,
    kv_keys: u64,
    deduped_keys: u64,
    store_bytes: u64,
    frontier_expansions: u64,
    spill_events: u64,
    peak_frontier_bytes: u64,
}

impl_to_json!(Row {
    workload,
    mode,
    budget_bytes,
    matches,
    elapsed_s,
    matches_per_sec,
    kv_requests,
    kv_keys,
    deduped_keys,
    store_bytes,
    frontier_expansions,
    spill_events,
    peak_frontier_bytes
});

fn row(workload: &str, label: &str, budget: usize, outcome: &RunOutcome) -> Row {
    let elapsed = outcome.elapsed.as_secs_f64();
    Row {
        workload: workload.to_string(),
        mode: label.to_string(),
        budget_bytes: budget as u64,
        matches: outcome.total_matches,
        elapsed_s: elapsed,
        matches_per_sec: safe_ratio(outcome.total_matches as f64, elapsed),
        kv_requests: outcome.kv.requests,
        kv_keys: outcome.kv.keys,
        deduped_keys: outcome.kv.deduped_keys,
        store_bytes: outcome.kv.bytes,
        frontier_expansions: outcome.frontier_expansions,
        spill_events: outcome.spill_events,
        peak_frontier_bytes: outcome.peak_frontier_bytes,
    }
}

/// One arm: a fresh cluster (cold store, no database cache) so the kv
/// round-trip counts are comparable across arms.
fn run_arm(
    g: &Graph,
    base: &ClusterConfig,
    mode: ExecMode,
    budget: usize,
    plan: &ExecutionPlan,
) -> RunOutcome {
    let config = ClusterConfig::builder()
        .workers(base.workers)
        .threads_per_worker(base.threads_per_worker)
        .cache_capacity_bytes(0)
        .tau(base.tau)
        .scheduler(base.scheduler)
        .codec(base.data.codec)
        .exec_mode(mode)
        .memory_budget_bytes(budget)
        .build();
    Cluster::new(g, config)
        .run(plan)
        .expect("a budget sweep arm must never error — tight budgets spill, they don't fail")
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.05);
    let workers: usize = args.get("workers", 4);
    let threads: usize = args.get("threads", 2);
    let tau: usize = args.get("tau", 32);
    let scheduler = args.scheduler().unwrap_or(SchedulerKind::Static);
    let codec = args.codec().unwrap_or(CodecKind::RawU32);
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("ok")).expect("unknown dataset");
    let g = load_dataset(dataset, scale);
    let base = ClusterConfig::builder()
        .workers(workers)
        .threads_per_worker(threads)
        .tau(tau)
        .scheduler(scheduler)
        .codec(codec)
        .build();

    let mut budgets: Vec<(String, usize)> = BUDGETS
        .iter()
        .map(|&(label, bytes)| (label.to_string(), bytes))
        .collect();
    if let Some(extra) = args.memory_budget_bytes() {
        if !budgets.iter().any(|(_, b)| *b == extra) {
            budgets.push((format!("{extra}b"), extra));
            budgets.sort_by_key(|&(_, b)| if b == 0 { usize::MAX } else { b });
        }
    }

    let workloads = [("q5", queries::q5()), ("clique4", queries::clique(4))];

    let mut rows: Vec<Row> = Vec::new();
    for (name, pattern) in &workloads {
        let plan = PlanBuilder::new(pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .compressed(false)
            .best_plan();

        let dfs = run_arm(&g, &base, ExecMode::Dfs, 0, &plan);
        rows.push(row(name, "dfs", 0, &dfs));

        for (label, budget) in &budgets {
            let hy = run_arm(&g, &base, ExecMode::Hybrid, *budget, &plan);
            assert_eq!(
                hy.total_matches, dfs.total_matches,
                "{name}/{label}: the budget changed the count — spills must \
                 land on task boundaries, never drop work"
            );
            if *budget == 0 {
                assert_eq!(hy.spill_events, 0, "{name}: unbounded must not spill");
                assert!(
                    hy.kv.requests < dfs.kv.requests,
                    "{name}: unbounded hybrid must batch reads into fewer kv \
                     round trips than DFS ({} vs {})",
                    hy.kv.requests,
                    dfs.kv.requests
                );
            }
            rows.push(row(name, &format!("hybrid/{label}"), *budget, &hy));
        }
    }

    println!(
        "\nBudget sweep on {} (scale {scale}, {workers}x{threads}, {scheduler}, tau {tau}, \
         codec {codec}):",
        dataset.abbrev()
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.mode.clone(),
                r.matches.to_string(),
                format!("{:.0}", r.matches_per_sec),
                r.kv_requests.to_string(),
                r.deduped_keys.to_string(),
                r.store_bytes.to_string(),
                r.frontier_expansions.to_string(),
                r.spill_events.to_string(),
                r.peak_frontier_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "mode",
            "matches",
            "matches/s",
            "kv trips",
            "deduped",
            "store bytes",
            "expansions",
            "spills",
            "peak bytes",
        ],
        &table,
    );
    println!(
        "\nexpected shape: every row's match count equals the DFS baseline;\n\
         kv round trips fall as the budget grows (one batched read per\n\
         frontier level) while tight budgets spill back toward DFS-shaped\n\
         traffic — the sweep trades memory for round trips, never exactness."
    );

    if let Some(path) = args.get_str("json") {
        let mut report = BenchReport::new("budget_sweep");
        report
            .param("dataset", dataset.abbrev())
            .param("scale", scale)
            .param("workers", workers as u64)
            .param("threads", threads as u64)
            .param("tau", tau as u64)
            .param("scheduler", scheduler.name())
            .param("codec", codec.name());
        for r in &rows {
            report.push_row(r);
        }
        report.write(path).expect("write json");
    }
}
