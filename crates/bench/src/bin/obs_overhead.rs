//! Observability-overhead A/B — enumeration throughput with an
//! `ObsHub` attached vs a bare cluster, on the fig9 workload.
//!
//! The acceptance bar for `benu-obs` is < 3% throughput regression on
//! this workload. Two arms run the identical plan on identical clusters;
//! the only difference is whether an `ObsHub` (phase spans, the store's
//! two histograms) is attached.
//!
//! ```text
//! cargo run --release -p benu-bench --bin obs_overhead -- \
//!     [--scale 0.08] [--query q5] [--dataset ok] [--iters 3] [--json out.json]
//! ```

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::report::BenchReport;
use benu_bench::{load_dataset, print_table};
use benu_cluster::{Cluster, ClusterConfig};
use benu_graph::datasets::Dataset;
use benu_obs::ObsHub;
use benu_pattern::queries;
use benu_plan::{ExecutionPlan, PlanBuilder};
use std::sync::Arc;
use std::time::Instant;

struct Arm {
    arm: String,
    matches: u64,
    best_wall_s: f64,
    matches_per_sec: f64,
}

impl_to_json!(Arm {
    arm,
    matches,
    best_wall_s,
    matches_per_sec
});

/// Best-of-`iters` wall time for one cluster (fresh caches per
/// iteration so both arms do the same store traffic).
fn measure(cluster: &Cluster, plan: &ExecutionPlan, iters: usize) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut matches = 0;
    for _ in 0..iters {
        cluster.clear_caches();
        let start = Instant::now();
        let outcome = cluster.run(plan).expect("cluster run failed");
        best = best.min(start.elapsed().as_secs_f64());
        matches = outcome.total_matches;
    }
    (matches, best)
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.08);
    let iters: usize = args.get("iters", 3);
    let qname = args.get_str("query").unwrap_or("q5").to_string();
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("ok")).expect("unknown dataset");
    let pattern = queries::by_name(&qname).expect("unknown query");
    let g = load_dataset(dataset, scale);
    let plan = PlanBuilder::new(&pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(true)
        .best_plan();
    let config = || {
        ClusterConfig::builder()
            .workers(4)
            .threads_per_worker(2)
            .cache_capacity_bytes(64 << 20)
            .build()
    };

    let bare = Cluster::new(&g, config());
    let hub = Arc::new(ObsHub::new());
    let observed = Cluster::new_observed(&g, config(), Arc::clone(&hub));

    // Interleave a warm-up of each arm before timing (first-touch page
    // faults would otherwise bias whichever arm runs first).
    measure(&bare, &plan, 1);
    measure(&observed, &plan, 1);
    let (bare_matches, bare_s) = measure(&bare, &plan, iters);
    let (obs_matches, obs_s) = measure(&observed, &plan, iters);
    assert_eq!(bare_matches, obs_matches, "observation changed the count");

    let arms = [
        Arm {
            arm: "bare".to_string(),
            matches: bare_matches,
            best_wall_s: bare_s,
            matches_per_sec: benu_obs::safe_ratio(bare_matches as f64, bare_s),
        },
        Arm {
            arm: "observed".to_string(),
            matches: obs_matches,
            best_wall_s: obs_s,
            matches_per_sec: benu_obs::safe_ratio(obs_matches as f64, obs_s),
        },
    ];
    let overhead_pct = 100.0 * (benu_obs::safe_ratio(obs_s, bare_s) - 1.0);

    println!(
        "\nObservability overhead — {qname} on {} (scale {scale}, best of {iters}):",
        dataset.abbrev()
    );
    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|a| {
            vec![
                a.arm.clone(),
                format!("{:.4}s", a.best_wall_s),
                format!("{:.0}", a.matches_per_sec),
            ]
        })
        .collect();
    print_table(&["arm", "best wall", "matches/s"], &rows);
    println!("overhead: {overhead_pct:+.2}% wall time (bar: < 3%)");

    if let Some(path) = args.get_str("json") {
        let mut report = BenchReport::new("obs_overhead");
        report
            .param("dataset", dataset.abbrev())
            .param("scale", scale)
            .param("query", qname.as_str())
            .param("iters", iters as u64)
            .param("overhead_pct", overhead_pct);
        for a in &arms {
            report.push_row(a);
        }
        report.write(path).expect("write json");
    }
}
