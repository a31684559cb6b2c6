//! Exp-2 / Fig. 7 — effect of the execution-plan optimization techniques.
//!
//! Three representative cases are executed with cumulatively more
//! optimizations (Raw → +Opt1 CSE → +Opt2 reorder → +Opt3 triangle
//! cache): (a) uncompressed q2 and (b) uncompressed q4 — where the paper
//! disables compression because it would negate some optimizations — and
//! (c) compressed q1.
//!
//! ```text
//! cargo run --release -p benu-bench --bin fig7_exp2 -- [--scale 0.1] [--dataset lj]
//! ```

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::{load_dataset, print_table, secs};
use benu_cluster::{Cluster, ClusterConfig};
use benu_graph::datasets::Dataset;
use benu_pattern::queries;
use benu_plan::optimize::OptLevel;
use benu_plan::PlanBuilder;

struct Row {
    case: String,
    stage: String,
    time_s: f64,
    matches: u64,
}

impl_to_json!(Row {
    case,
    stage,
    time_s,
    matches
});

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.15);
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("lj")).expect("unknown dataset");
    let g = load_dataset(dataset, scale);
    // A single worker thread isolates plan quality from scheduling noise
    // (the ablation measures pure computation, as in the paper's Fig. 7).
    let cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(1)
            .cache_capacity_bytes(64 << 20)
            .build(),
    );

    let cases = [
        ("(a) q2 uncompressed", queries::q2(), false),
        ("(b) q4 uncompressed", queries::q4(), false),
        ("(c) demo uncompressed", queries::demo_pattern(), false),
        ("(d) q1 compressed", queries::q1(), true),
    ];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (case, pattern, compressed) in &cases {
        // The matching order is fixed (the paper's running order for the
        // demo pattern, the best order otherwise) so stages differ only
        // in the optimizations applied to it.
        let best_order = if pattern.num_vertices() == 6 && pattern.num_edges() == 9 {
            vec![0, 2, 4, 1, 5, 3]
        } else {
            PlanBuilder::new(pattern)
                .graph_stats(g.num_vertices(), g.num_edges())
                .best_plan()
                .matching_order
        };
        let mut row = vec![case.to_string()];
        let mut reference_count = None;
        for level in OptLevel::LADDER {
            let stage = level.label();
            let plan = PlanBuilder::new(pattern)
                .matching_order(best_order.clone())
                .optimizations(level)
                .compressed(*compressed)
                .build();
            // Fresh cache per stage: the fixture compares plan quality,
            // not run-to-run cache warmth.
            cluster.clear_caches();
            let outcome = cluster.run(&plan).expect("cluster run failed");
            match reference_count {
                None => reference_count = Some(outcome.total_matches),
                Some(c) => assert_eq!(c, outcome.total_matches, "{case}/{stage}: count changed"),
            }
            records.push(Row {
                case: case.to_string(),
                stage: stage.to_string(),
                time_s: outcome.makespan().as_secs_f64(),
                matches: outcome.total_matches,
            });
            row.push(secs(outcome.makespan()));
        }
        rows.push(row);
    }

    println!(
        "\nFig. 7 — execution time with cumulative plan optimizations ({}, scale {scale}):",
        dataset.abbrev()
    );
    let mut header = vec!["case"];
    header.extend(OptLevel::LADDER.map(OptLevel::label));
    print_table(&header, &rows);
    println!(
        "\npaper shape: Opt2 (reordering) helps everywhere; Opt1 helps where a\n\
         common subexpression exists (q4-like cases); Opt3 helps where\n\
         triangles are repeatedly enumerated."
    );
    if let Some(path) = args.get_str("json") {
        let mut report = benu_bench::report::BenchReport::new("fig7_exp2");
        report
            .param("dataset", dataset.abbrev())
            .param("scale", scale);
        for r in &records {
            report.push_row(r);
        }
        report.write(path).expect("write json");
    }
}
