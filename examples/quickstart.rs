//! Quickstart: enumerate a pattern in a data graph on a simulated BENU
//! cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use benu::prelude::*;
use benu::{graph::gen, pattern::queries};

fn main() {
    // 1. A data graph: a clustered power-law graph standing in for a
    //    SNAP dataset.
    let g = gen::chung_lu_power_law(gen::PowerLawConfig {
        n: 2_000,
        m: 12_000,
        gamma: 2.4,
        clustering: 0.3,
        seed: 42,
    });
    println!(
        "data graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // 2. A pattern graph: q4 from the paper (4-clique plus a vertex
    //    adjacent to two clique vertices).
    let pattern = queries::q4();

    // 3. Compile the best execution plan (Algorithm 3) calibrated with
    //    the data graph's statistics, with VCBC-compressed output.
    let plan = PlanBuilder::new(&pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(true)
        .best_plan();
    println!(
        "\nbest execution plan (matching order {:?}):",
        plan.matching_order
    );
    println!("{plan}");

    // 4. Run it on a simulated 4-machine cluster, 2 threads each.
    let config = ClusterConfig::builder()
        .workers(4)
        .threads_per_worker(2)
        .cache_capacity_bytes(16 << 20)
        .tau(500)
        .build();
    let cluster = Cluster::new(&g, config);
    let outcome = cluster.run(&plan).expect("cluster run failed");

    println!("matches     : {}", outcome.total_matches);
    println!("VCBC codes  : {}", outcome.metrics.codes);
    println!("tasks       : {}", outcome.total_tasks);
    println!("elapsed     : {:.2?}", outcome.elapsed);
    println!(
        "communication: {} bytes over {} store requests",
        outcome.communication_bytes(),
        outcome.kv.requests
    );
    println!("cache hit rate: {:.1}%", 100.0 * outcome.cache_hit_rate());
}
