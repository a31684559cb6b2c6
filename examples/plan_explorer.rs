//! Execution-plan explorer — walks the paper's Fig. 3 pipeline on the
//! running-example pattern: raw plan, Optimization 1 (CSE), Optimization 2
//! (reordering), Optimization 3 (triangle caching), and VCBC compression,
//! printing each stage in the paper's notation together with its modeled
//! costs.
//!
//! ```text
//! cargo run --release --example plan_explorer [pattern]
//! ```
//! where `pattern` is `demo` (default), `q1` … `q9`, `triangle`,
//! `clique4`, `clique5`.

use benu::pattern::{queries, SymmetryBreaking};
use benu::plan::cost::{estimate_communication_cost, estimate_computation_cost};
use benu::plan::optimize::OptLevel;
use benu::plan::vcbc;
use benu::plan::{GraphStatsEstimator, PlanBuilder};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "demo".into());
    let pattern = match name.as_str() {
        "demo" => queries::demo_pattern(),
        "triangle" => queries::triangle(),
        "clique4" => queries::clique(4),
        "clique5" => queries::clique(5),
        other => queries::by_name(other).unwrap_or_else(|| panic!("unknown pattern {other:?}")),
    };
    let est = GraphStatsEstimator::new(1_000_000, 10_000_000);
    let sb = SymmetryBreaking::compute(&pattern);
    println!(
        "pattern {name}: {} vertices, {} edges; symmetry-breaking constraints: {:?}",
        pattern.num_vertices(),
        pattern.num_edges(),
        sb.constraints()
            .iter()
            .map(|&(a, b)| format!("u{} < u{}", a + 1, b + 1))
            .collect::<Vec<_>>()
    );

    // The demo pattern uses the paper's running matching order; others use
    // the best order found by Algorithm 3.
    let order = if name == "demo" {
        vec![0, 2, 4, 1, 5, 3]
    } else {
        PlanBuilder::new(&pattern).best_plan().matching_order
    };
    println!(
        "matching order: {:?}\n",
        order.iter().map(|v| v + 1).collect::<Vec<_>>()
    );

    let figures = [
        "raw plan (Fig. 3b)",
        "+ Opt1: common subexpression elimination (Fig. 3c)",
        "+ Opt2: instruction reordering (Fig. 3d)",
        "+ Opt3: triangle caching (Fig. 3e)",
    ];
    for (label, level) in figures.into_iter().zip(OptLevel::LADDER) {
        let plan = PlanBuilder::new(&pattern)
            .matching_order(order.clone())
            .optimizations(level)
            .build();
        println!("=== {label}");
        println!("{plan}");
        println!(
            "modeled costs: communication {:.3e}, computation {:.3e}\n",
            estimate_communication_cost(&plan, &est),
            estimate_computation_cost(&plan, &est)
        );
    }

    let mut compressed = PlanBuilder::new(&pattern)
        .matching_order(order.clone())
        .build();
    let k = vcbc::compress(&mut compressed);
    println!("=== + VCBC compression (Fig. 3f), vertex-cover prefix = {k}");
    println!("{compressed}");

    let result = PlanBuilder::new(&pattern).best_plan_result();
    println!("=== best-plan search (Algorithm 3)");
    println!(
        "alpha = {} (bound {:.0}), beta = {} (bound {:.0}), search time {:.2?}",
        result.stats.alpha,
        benu::plan::SearchStats::alpha_upper_bound(pattern.num_vertices()),
        result.stats.beta,
        benu::plan::SearchStats::beta_upper_bound(pattern.num_vertices()),
        result.stats.elapsed
    );
}
