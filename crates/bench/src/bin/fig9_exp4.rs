//! Exp-4 / Fig. 9 — effect of task splitting on task-time distribution
//! (a) and per-worker load (b).
//!
//! Runs q5 on the Orkut stand-in with splitting off and with the degree
//! threshold τ, reporting task counts, the tail of the task-time
//! distribution, and per-worker busy times.
//!
//! ```text
//! cargo run --release -p benu-bench --bin fig9_exp4 -- [--scale 0.15] [--tau 64] [--query q5]
//! ```

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::report::BenchReport;
use benu_bench::{load_dataset, print_table};
use benu_cluster::{Cluster, ClusterConfig, RunOutcome, SchedulerKind};
use benu_graph::datasets::Dataset;
use benu_obs::{ObsHub, ReportMode};
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use std::sync::Arc;

struct Summary {
    variant: String,
    scheduler: String,
    tasks: usize,
    steals: u64,
    max_task_s: f64,
    p99_task_s: f64,
    mean_task_s: f64,
    load_imbalance: f64,
    worker_busy_s: Vec<f64>,
}

impl_to_json!(Summary {
    variant,
    scheduler,
    tasks,
    steals,
    max_task_s,
    p99_task_s,
    mean_task_s,
    load_imbalance,
    worker_busy_s,
});

fn summarize(variant: &str, outcome: &RunOutcome) -> Summary {
    let mut times: Vec<f64> = outcome
        .task_times
        .as_ref()
        .expect("task times collected")
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = times[((times.len() as f64 * 0.99) as usize).min(times.len() - 1)];
    Summary {
        variant: variant.to_string(),
        scheduler: outcome.scheduler.name().to_string(),
        tasks: outcome.total_tasks,
        steals: outcome.total_steals(),
        max_task_s: *times.last().unwrap_or(&0.0),
        p99_task_s: p99,
        mean_task_s: times.iter().sum::<f64>() / times.len().max(1) as f64,
        load_imbalance: outcome.load_imbalance(),
        worker_busy_s: outcome
            .workers
            .iter()
            .map(|w| w.busy_time.as_secs_f64())
            .collect(),
    }
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.15);
    let tau: usize = args.get("tau", 64);
    let qname = args.get_str("query").unwrap_or("q5").to_string();
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("ok")).expect("unknown dataset");
    let pattern = queries::by_name(&qname).expect("unknown query");
    let g = load_dataset(dataset, scale);
    let plan = PlanBuilder::new(&pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(true)
        .best_plan();

    // `--scheduler` pins one policy; without it both are run for the A/B.
    let schedulers = match args.scheduler() {
        Some(kind) => vec![kind],
        None => vec![SchedulerKind::Static, SchedulerKind::WorkStealing],
    };
    let mut summaries = Vec::new();
    let mut runs = Vec::new();
    for (variant, tau_value) in [("no splitting", 0usize), ("tau splitting", tau)] {
        for &kind in &schedulers {
            // Each variant gets its own hub so the per-layer metrics in
            // the JSON dump are attributable to one run.
            let hub = Arc::new(ObsHub::new());
            let cluster = Cluster::new_observed(
                &g,
                ClusterConfig::builder()
                    .workers(4)
                    .threads_per_worker(2)
                    .cache_capacity_bytes(64 << 20)
                    .tau(tau_value)
                    .collect_task_profile(true)
                    .scheduler(kind)
                    .build(),
                Arc::clone(&hub),
            );
            let outcome = cluster.run(&plan).expect("cluster run failed");
            let mut run = outcome.report(ReportMode::Full);
            run.merge(hub.report(ReportMode::Full));
            runs.push(run);
            summaries.push((summarize(variant, &outcome), outcome.total_matches));
        }
    }
    for (s, count) in &summaries[1..] {
        assert_eq!(
            summaries[0].1, *count,
            "{}/{} changed the count",
            s.variant, s.scheduler
        );
    }

    println!(
        "\nFig. 9 — task splitting, {qname} on {} (scale {scale}, tau {tau}):",
        dataset.abbrev()
    );
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|(s, _)| {
            vec![
                s.variant.clone(),
                s.scheduler.clone(),
                s.tasks.to_string(),
                s.steals.to_string(),
                format!("{:.4}s", s.max_task_s),
                format!("{:.4}s", s.p99_task_s),
                format!("{:.6}s", s.mean_task_s),
                format!("{:.2}", s.load_imbalance),
            ]
        })
        .collect();
    print_table(
        &[
            "variant",
            "scheduler",
            "tasks",
            "steals",
            "max task",
            "p99 task",
            "mean task",
            "imbalance",
        ],
        &rows,
    );
    for (s, _) in &summaries {
        println!(
            "{:<14} {:<14} per-worker busy time: {:?}",
            s.variant,
            s.scheduler,
            s.worker_busy_s
                .iter()
                .map(|t| format!("{t:.2}s"))
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\npaper shape: without splitting a few hub tasks dominate (huge max\n\
         task time, skewed reducers); with tau the task count grows slightly\n\
         while the maximum task time collapses and workers even out. Work\n\
         stealing attacks the same skew at run time: steals > 0 and the\n\
         imbalance drops even when tau is off."
    );
    if let Some(path) = args.get_str("json") {
        let mut report = BenchReport::new("fig9_exp4");
        report
            .param("dataset", dataset.abbrev())
            .param("scale", scale)
            .param("query", qname.as_str())
            .param("tau", tau as u64);
        for ((s, _), run) in summaries.iter().zip(&runs) {
            report.push_row_with_run(s, run);
        }
        report.write(path).expect("write json");
    }
}
