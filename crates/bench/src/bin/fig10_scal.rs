//! Fig. 10 — machine scalability: execution time and relative speedup of
//! q5 and q9 on the Orkut and FriendSter stand-ins with 1–16 workers.
//!
//! Methodology: per-task durations are measured once on a single
//! dedicated thread (no time-slice dilation), then the cluster's
//! scheduler — round-robin task assignment to workers, greedy pulling by
//! each worker's threads — is simulated for every worker count and the
//! makespan (busiest simulated thread) reported. On a host with at least
//! as many cores as simulated threads this coincides with measured wall
//! time; on smaller hosts it is the only undistorted estimate.
//!
//! ```text
//! cargo run --release -p benu-bench --bin fig10_scal -- [--scale 0.08] [--tau 24]
//! ```

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::{load_dataset, print_table};
use benu_cluster::{Cluster, ClusterConfig};
use benu_graph::datasets::Dataset;
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use std::collections::BinaryHeap;

struct Record {
    dataset: String,
    query: String,
    workers: usize,
    makespan_s: f64,
    speedup_vs_1: f64,
}

impl_to_json!(Record {
    dataset,
    query,
    workers,
    makespan_s,
    speedup_vs_1
});

/// One arm of the load-balancing A/B: degree-driven `auto_tau` vs
/// observed-cost splitting fed back from the first arm's profile.
struct BalanceRecord {
    dataset: String,
    query: String,
    arm: String,
    workers: usize,
    total_tasks: usize,
    threshold: usize,
    work_imbalance: f64,
    load_imbalance: f64,
}

impl_to_json!(BalanceRecord {
    dataset,
    query,
    arm,
    workers,
    total_tasks,
    threshold,
    work_imbalance,
    load_imbalance
});

/// Simulates the runtime's scheduler: tasks are assigned round-robin to
/// `workers`; within each worker, `threads` threads repeatedly pull the
/// next queued task. Returns the makespan in seconds.
fn simulate_makespan(task_times: &[f64], workers: usize, threads: usize) -> f64 {
    let mut worker_queues: Vec<Vec<f64>> = vec![Vec::new(); workers];
    for (i, &t) in task_times.iter().enumerate() {
        worker_queues[i % workers].push(t);
    }
    let mut makespan = 0.0f64;
    for queue in worker_queues {
        // Min-heap of thread finish times (floats via Reverse of ordered
        // bits).
        let mut heap: BinaryHeap<std::cmp::Reverse<u64>> =
            (0..threads).map(|_| std::cmp::Reverse(0u64)).collect();
        // Fixed-point nanoseconds keep the heap orderable.
        for t in queue {
            let std::cmp::Reverse(free_at) = heap.pop().expect("threads >= 1");
            let finish = free_at + (t * 1e9) as u64;
            heap.push(std::cmp::Reverse(finish));
        }
        let worker_finish = heap
            .into_iter()
            .map(|std::cmp::Reverse(f)| f)
            .max()
            .unwrap_or(0) as f64
            / 1e9;
        makespan = makespan.max(worker_finish);
    }
    makespan
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.08);
    let max_workers: usize = args.get("max-workers", 16);
    let threads: usize = args.get("threads", 2);
    // Splitting must be fine-grained relative to the mini graphs' hub
    // degrees, or one unsplittable hub task flattens the curve.
    let tau: usize = args.get("tau", 24);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w <= max_workers)
        .collect();

    let dataset_filter = args.get_str("datasets").map(|s| s.to_string());
    let query_filter = args.get_str("queries").map(|s| s.to_string());
    let cases: Vec<(Dataset, &str)> = [
        (Dataset::Orkut, "q5"),
        (Dataset::FriendSter, "q5"),
        (Dataset::Orkut, "q9"),
        (Dataset::FriendSter, "q9"),
    ]
    .into_iter()
    .filter(|(d, q)| {
        dataset_filter
            .as_deref()
            .is_none_or(|f| f.split(',').any(|x| x == d.abbrev()))
            && query_filter
                .as_deref()
                .is_none_or(|f| f.split(',').any(|x| x == *q))
    })
    .collect();

    let mut records = Vec::new();
    for &(dataset, qname) in &cases {
        let g = load_dataset(dataset, scale);
        let pattern = queries::by_name(qname).unwrap();
        let plan = PlanBuilder::new(&pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .compressed(true)
            .best_plan();
        // One dedicated-thread measurement run collecting per-task times.
        let cluster = Cluster::new(
            &g,
            ClusterConfig::builder()
                .workers(1)
                .threads_per_worker(1)
                .cache_capacity_bytes(64 << 20)
                .tau(tau)
                .collect_task_profile(true)
                .build(),
        );
        let outcome = cluster.run(&plan).expect("cluster run failed");
        let task_times: Vec<f64> = outcome
            .task_times
            .as_ref()
            .expect("collected")
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();

        let mut base = None;
        let mut rows = Vec::new();
        for &workers in &worker_counts {
            let makespan = simulate_makespan(&task_times, workers, threads);
            let base_time = *base.get_or_insert(makespan);
            let record = Record {
                dataset: dataset.abbrev().to_string(),
                query: qname.to_string(),
                workers,
                makespan_s: makespan,
                speedup_vs_1: base_time / makespan.max(1e-12),
            };
            rows.push(vec![
                workers.to_string(),
                format!("{:.3}s", record.makespan_s),
                format!("{:.2}x", record.speedup_vs_1),
            ]);
            records.push(record);
        }
        println!(
            "\nFig. 10 — {qname} on {} (scale {scale}, {} tasks, {} matches):",
            dataset.abbrev(),
            outcome.total_tasks,
            outcome.total_matches
        );
        print_table(&["workers", "makespan", "speedup"], &rows);
    }
    println!(
        "\npaper shape: near-linear speedup with worker count, flattening as\n\
         straggler tasks start to dominate (sub-4x from 4 to 16 workers)."
    );

    // Load-balancing A/B: degree-driven auto_tau vs observed-cost
    // splitting. Pass 1 splits on the degree proxy and records the
    // per-start-vertex cost profile; pass 2 feeds the profile back, so
    // splitting thresholds and LPT placement act on real work.
    // `work_imbalance` (max/mean of per-worker deterministic vticks) is
    // the headline: unlike wall-clock load_imbalance it is byte-stable,
    // so the in-bin regression assert can lean on it.
    let balance_workers: usize = args.get("balance-workers", 4);
    let mut balance_records = Vec::new();
    for (dataset, qname) in &cases {
        let g = load_dataset(*dataset, scale);
        let pattern = queries::by_name(qname).unwrap();
        let plan = PlanBuilder::new(&pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .compressed(true)
            .best_plan();
        let config = ClusterConfig::builder()
            .workers(balance_workers)
            .threads_per_worker(1)
            .cache_capacity_bytes(64 << 20)
            .tau_auto(true)
            .collect_task_profile(true)
            .build();
        let mut cluster = Cluster::new(&g, config);
        let degree_arm = cluster.run(&plan).expect("degree arm failed");
        let profile = degree_arm.cost_profile.clone().expect("profile collected");
        cluster.clear_caches();
        cluster.set_cost_profile(Some(profile));
        let cost_arm = cluster.run(&plan).expect("cost arm failed");
        assert_eq!(
            cost_arm.total_matches, degree_arm.total_matches,
            "splitting policy must not change counts"
        );
        let (dw, cw) = (degree_arm.work_imbalance(), cost_arm.work_imbalance());
        assert!(
            cw <= dw * 1.05 + 1e-9,
            "observed-cost splitting worsened work imbalance on {} {}: {dw:.3} -> {cw:.3}",
            dataset.abbrev(),
            qname
        );
        let mut rows = Vec::new();
        for (arm, o) in [("degree_tau", &degree_arm), ("observed_cost", &cost_arm)] {
            rows.push(vec![
                arm.to_string(),
                o.total_tasks.to_string(),
                o.effective_tau.to_string(),
                format!("{:.3}", o.work_imbalance()),
                format!("{:.3}", o.load_imbalance()),
            ]);
            balance_records.push(BalanceRecord {
                dataset: dataset.abbrev().to_string(),
                query: qname.to_string(),
                arm: arm.to_string(),
                workers: balance_workers,
                total_tasks: o.total_tasks,
                threshold: o.effective_tau,
                work_imbalance: o.work_imbalance(),
                load_imbalance: o.load_imbalance(),
            });
        }
        println!(
            "\nload-balancing A/B — {qname} on {} ({balance_workers} workers):",
            dataset.abbrev()
        );
        print_table(
            &[
                "arm",
                "tasks",
                "tau/theta",
                "work_imbalance",
                "load_imbalance",
            ],
            &rows,
        );
    }

    if let Some(path) = args.get_str("json") {
        let mut report = benu_bench::report::BenchReport::new("fig10_scal");
        report
            .param("scale", scale)
            .param("threads", threads as u64)
            .param("tau", tau as u64)
            .param("max_workers", max_workers as u64);
        for r in &records {
            report.push_row(r);
        }
        for r in &balance_records {
            report.push_row(r);
        }
        report.write(path).expect("write json");
    }
}
