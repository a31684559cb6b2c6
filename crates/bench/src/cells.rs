//! Measurement cells: run one system on one (query, graph) pair and
//! return the quantities the paper's tables report.

use crate::impl_to_json;
use benu_baselines::{starjoin, wcoj, BaselineOutcome};
use benu_cluster::{Cluster, RunOutcome};
use benu_graph::Graph;
use benu_pattern::Pattern;
use benu_plan::PlanBuilder;

/// One table cell: execution time and cumulative communication.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Simulated parallel makespan in seconds.
    pub time_s: f64,
    /// Communication bytes.
    pub comm_bytes: u64,
    /// Matches found.
    pub matches: u64,
    /// False for CRASH/OOM cells.
    pub completed: bool,
    /// True when a work budget (not memory) stopped the run.
    pub budget_exceeded: bool,
}

impl_to_json!(Cell {
    time_s,
    comm_bytes,
    matches,
    completed,
    budget_exceeded
});

impl Cell {
    /// Paper-style rendering: `12.3s/45.6M` or `CRASH`.
    pub fn render(&self) -> String {
        if self.completed {
            format!(
                "{:.2}s/{}",
                self.time_s,
                benu_baselines::human_bytes(self.comm_bytes)
            )
        } else {
            "CRASH".to_string()
        }
    }
}

/// Runs BENU (compressed plan, cluster) and reduces the outcome to a
/// cell. Uses the simulated makespan as the time (see
/// `RunOutcome::makespan`); on a multi-core host it coincides with wall
/// time whenever cores ≥ simulated threads.
pub fn benu_cell(cluster: &Cluster, g: &Graph, pattern: &Pattern, compressed: bool) -> Cell {
    let plan = PlanBuilder::new(pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(compressed)
        .best_plan();
    let outcome = cluster.run(&plan).expect("cluster run failed");
    outcome_cell(&outcome)
}

/// Reduces a cluster outcome to a cell.
pub fn outcome_cell(outcome: &RunOutcome) -> Cell {
    Cell {
        time_s: outcome.makespan().as_secs_f64(),
        comm_bytes: outcome.communication_bytes(),
        matches: outcome.total_matches,
        completed: true,
        budget_exceeded: false,
    }
}

/// Reduces a baseline outcome to a cell (shuffled bytes are its
/// communication).
pub fn baseline_cell(outcome: &BaselineOutcome) -> Cell {
    Cell {
        time_s: outcome.elapsed.as_secs_f64(),
        comm_bytes: outcome.shuffled_bytes,
        matches: outcome.matches,
        completed: outcome.completed,
        budget_exceeded: outcome.budget_exceeded,
    }
}

/// Runs the join-based (CBF-style) baseline with an optional time budget:
/// when the budget is exceeded the run is reported as incomplete (the
/// paper's `>7200s` cells).
pub fn starjoin_cell(g: &Graph, pattern: &Pattern, memory_cap: u64) -> Cell {
    let outcome = starjoin::run(
        g,
        pattern,
        &starjoin::StarJoinConfig {
            memory_cap_bytes: memory_cap,
        },
    );
    baseline_cell(&outcome)
}

/// Runs the WCOJ (BiGJoin-style) baseline in the given mode.
pub fn wcoj_cell(g: &Graph, pattern: &Pattern, mode: wcoj::WcojMode, memory_cap: u64) -> Cell {
    let outcome = wcoj::run(
        g,
        pattern,
        &wcoj::WcojConfig {
            mode,
            batch_size: 100_000,
            memory_cap_bytes: memory_cap,
            work_budget: 300_000_000,
        },
    );
    baseline_cell(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_cluster::ClusterConfig;
    use benu_graph::gen;
    use benu_pattern::queries;

    #[test]
    fn benu_cell_counts_triangles() {
        let g = gen::complete(6);
        let cluster = Cluster::new(&g, ClusterConfig::builder().workers(2).build());
        let cell = benu_cell(&cluster, &g, &queries::triangle(), true);
        assert_eq!(cell.matches, 20);
        assert!(cell.completed);
        assert!(cell.render().contains("s/"));
    }

    #[test]
    fn crash_cell_renders() {
        let c = Cell {
            time_s: 1.0,
            comm_bytes: 0,
            matches: 0,
            completed: false,
            budget_exceeded: false,
        };
        assert_eq!(c.render(), "CRASH");
    }
}
