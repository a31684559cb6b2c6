//! Degradation curve — throughput and recovery cost vs injected fault
//! rate, plus an optional whole-shard outage sweep.
//!
//! The default mode sweeps the transient store-fault rate over
//! {0, 0.1%, 1%, 5%} (plus an optional planned worker crash at every
//! point) and reports matches/sec alongside the recovery counters. With
//! `--shard-outage` the sweep instead darkens whole shards under a
//! replicated store (`--replication`, default 2) and reports the
//! failover counters. The headline property in both modes: the *count*
//! column is constant down the sweep — recovery trades throughput,
//! never exactness.
//!
//! ```text
//! cargo run --release -p benu-bench --bin degradation_curve -- \
//!     [--scale 0.05] [--query q3] [--dataset ok] [--workers 4] \
//!     [--fault-seed 0] [--crash 1:50] [--scheduler ws] [--json out.json] \
//!     [--shard-outage] [--replication 2] \
//!     [--exec-mode dfs|hybrid] [--memory-budget 256k]
//! ```
//!
//! `--exec-mode`/`--memory-budget` come from the shared parser in
//! `benu_bench::cli`, so this bin and `budget_sweep` accept the exact
//! same spellings.

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::report::BenchReport;
use benu_bench::{load_dataset, print_table};
use benu_cluster::{Cluster, ClusterConfig, ExecMode, RunOutcome, SchedulerKind};
use benu_fault::FaultPlan;
use benu_graph::datasets::Dataset;
use benu_graph::Graph;
use benu_obs::{ObsHub, ReportMode};
use benu_pattern::queries;
use benu_plan::ExecutionPlan;
use benu_plan::PlanBuilder;
use std::sync::Arc;

const FAULT_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

struct Point {
    fault_rate: f64,
    matches: u64,
    matches_per_sec: f64,
    elapsed_s: f64,
    transient_faults: u64,
    timeouts: u64,
    retries: u64,
    worker_crashes: u64,
    tasks_requeued: u64,
    recovery_passes: u64,
    backoff_virtual_ms: f64,
    timeout_wait_virtual_ms: f64,
}

impl_to_json!(Point {
    fault_rate,
    matches,
    matches_per_sec,
    elapsed_s,
    transient_faults,
    timeouts,
    retries,
    worker_crashes,
    tasks_requeued,
    recovery_passes,
    backoff_virtual_ms,
    timeout_wait_virtual_ms,
});

struct OutagePoint {
    dark_shards: String,
    matches: u64,
    matches_per_sec: f64,
    elapsed_s: f64,
    shard_outages: u64,
    failovers: u64,
    failover_reads: u64,
    retries: u64,
    recovery_passes: u64,
}

impl_to_json!(OutagePoint {
    dark_shards,
    matches,
    matches_per_sec,
    elapsed_s,
    shard_outages,
    failovers,
    failover_reads,
    retries,
    recovery_passes,
});

/// The shared per-point run: fresh observed cluster (cold caches keep
/// the store traffic — the fault surface — identical across the sweep),
/// optional fault plan, full report merged with the hub's.
fn run_point(
    g: &Graph,
    config: ClusterConfig,
    plan: Option<FaultPlan>,
    query: &ExecutionPlan,
) -> (RunOutcome, benu_obs::Report) {
    let hub = Arc::new(ObsHub::new());
    let mut cluster = Cluster::new_observed(g, config, Arc::clone(&hub));
    cluster.set_fault_plan(plan);
    let outcome = cluster.run(query).expect("the sweep must be survivable");
    let mut run = outcome.report(ReportMode::Full);
    run.merge(hub.report(ReportMode::Full));
    (outcome, run)
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.05);
    let workers: usize = args.get("workers", 4);
    let threads: usize = args.get("threads", 2);
    let outage_mode = args.has("shard-outage");
    let replication: usize = args.get("replication", if outage_mode { 2 } else { 1 });
    let qname = args.get_str("query").unwrap_or("q3").to_string();
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("ok")).expect("unknown dataset");
    let scheduler = args.scheduler().unwrap_or(SchedulerKind::Static);
    let pattern = queries::by_name(&qname).expect("unknown query");
    let g = load_dataset(dataset, scale);
    let plan = PlanBuilder::new(&pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(true)
        .best_plan();
    let exec_mode = args.exec_mode().unwrap_or(ExecMode::Dfs);
    let memory_budget = args.memory_budget_bytes().unwrap_or(0);
    let config = ClusterConfig::builder()
        .workers(workers)
        .threads_per_worker(threads)
        .scheduler(scheduler)
        .replication(replication)
        .exec_mode(exec_mode)
        .memory_budget_bytes(memory_budget)
        .build();

    let mut report = BenchReport::new("degradation_curve");
    report
        .param("dataset", dataset.abbrev())
        .param("scale", scale)
        .param("query", qname.as_str())
        .param("workers", workers as u64)
        .param("threads", threads as u64)
        .param("scheduler", scheduler.name())
        .param("exec_mode", exec_mode.name())
        .param("memory_budget_bytes", memory_budget as u64)
        .param("replication", replication as u64)
        .param(
            "mode",
            if outage_mode {
                "shard-outage"
            } else {
                "fault-rate"
            },
        );

    if outage_mode {
        run_outage_sweep(&args, &g, config, &plan, &mut report);
    } else {
        run_rate_sweep(&args, &g, config, &plan, &mut report);
    }

    println!(
        "\n({} on {}, scale {scale}, {workers}x{threads}, {scheduler}, R={replication})",
        qname,
        dataset.abbrev()
    );
    if let Some(path) = args.get_str("json") {
        report.write(path).expect("write json");
    }
}

fn run_rate_sweep(
    args: &Args,
    g: &Graph,
    config: ClusterConfig,
    plan: &ExecutionPlan,
    report: &mut BenchReport,
) {
    let mut points: Vec<Point> = Vec::new();
    let mut runs = Vec::new();
    for rate in FAULT_RATES {
        let (outcome, run) = run_point(g, config, args.fault_plan(rate), plan);
        runs.push(run);
        let elapsed = outcome.elapsed.as_secs_f64();
        let r = outcome.recovery;
        points.push(Point {
            fault_rate: rate,
            matches: outcome.total_matches,
            matches_per_sec: outcome.total_matches as f64 / elapsed.max(1e-9),
            elapsed_s: elapsed,
            transient_faults: r.transient_faults,
            timeouts: r.timeouts,
            retries: r.retries,
            worker_crashes: r.worker_crashes,
            tasks_requeued: r.tasks_requeued,
            recovery_passes: r.recovery_passes,
            backoff_virtual_ms: r.backoff_virtual.as_secs_f64() * 1e3,
            timeout_wait_virtual_ms: r.timeout_wait_virtual.as_secs_f64() * 1e3,
        });
    }
    for p in &points[1..] {
        assert_eq!(
            points[0].matches, p.matches,
            "rate {} changed the count — recovery must preserve exactness",
            p.fault_rate
        );
    }

    println!("\nDegradation curve — transient fault-rate sweep:");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}%", p.fault_rate * 100.0),
                p.matches.to_string(),
                format!("{:.0}", p.matches_per_sec),
                p.transient_faults.to_string(),
                p.retries.to_string(),
                p.worker_crashes.to_string(),
                p.tasks_requeued.to_string(),
                p.recovery_passes.to_string(),
                format!("{:.2}ms", p.backoff_virtual_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "fault rate",
            "matches",
            "matches/s",
            "faults",
            "retries",
            "crashes",
            "requeued",
            "passes",
            "backoff",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: the match count is constant down the sweep while\n\
         retries (and, with --crash, requeues) grow with the fault rate —\n\
         recovery degrades throughput gracefully instead of losing results."
    );
    for (p, run) in points.iter().zip(&runs) {
        report.push_row_with_run(p, run);
    }
}

fn run_outage_sweep(
    args: &Args,
    g: &Graph,
    config: ClusterConfig,
    plan: &ExecutionPlan,
    report: &mut BenchReport,
) {
    assert!(
        config.data.replication >= 2,
        "--shard-outage needs --replication >= 2 (a single-copy store \
         cannot survive a dark shard)"
    );
    // Outage sets to sweep: clean baseline, one dark shard, and — with
    // enough workers — two dark shards chosen non-adjacent in ring
    // order, so each placement group keeps a live copy under R = 2.
    let mut sweeps: Vec<Vec<usize>> = vec![vec![], vec![0]];
    if config.workers >= 4 {
        sweeps.push(vec![0, 2]);
    }
    let seed = args.get("fault-seed", 0u64);

    let mut points: Vec<OutagePoint> = Vec::new();
    let mut runs = Vec::new();
    for dark in &sweeps {
        let fault_plan = if dark.is_empty() {
            None
        } else {
            let mut builder = FaultPlan::builder(seed);
            for &shard in dark {
                builder = builder.shard_outage(shard, 1);
            }
            Some(builder.build())
        };
        let (outcome, run) = run_point(g, config, fault_plan, plan);
        runs.push(run);
        let elapsed = outcome.elapsed.as_secs_f64();
        let r = outcome.recovery;
        let label = if dark.is_empty() {
            "none".to_string()
        } else {
            dark.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("+")
        };
        points.push(OutagePoint {
            dark_shards: label,
            matches: outcome.total_matches,
            matches_per_sec: outcome.total_matches as f64 / elapsed.max(1e-9),
            elapsed_s: elapsed,
            shard_outages: r.shard_outages,
            failovers: r.failovers,
            failover_reads: r.failover_reads,
            retries: r.retries,
            recovery_passes: r.recovery_passes,
        });
    }
    for p in &points[1..] {
        assert_eq!(
            points[0].matches, p.matches,
            "dark shards {{{}}} changed the count — failover must preserve exactness",
            p.dark_shards
        );
        assert_eq!(p.retries, 0, "failover must not consume retry budget");
    }

    println!(
        "\nDegradation curve — shard-outage sweep (R = {}):",
        config.data.replication
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.dark_shards.clone(),
                p.matches.to_string(),
                format!("{:.0}", p.matches_per_sec),
                p.shard_outages.to_string(),
                p.failovers.to_string(),
                p.failover_reads.to_string(),
                p.retries.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "dark shards",
            "matches",
            "matches/s",
            "outages",
            "failovers",
            "mirror reads",
            "retries",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: the match count is constant down the sweep while\n\
         mirror reads grow with each dark shard — replica failover absorbs\n\
         whole-shard loss without burning retry budget or losing results."
    );
    for (p, run) in points.iter().zip(&runs) {
        report.push_row_with_run(p, run);
    }
}
