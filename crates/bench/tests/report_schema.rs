//! Golden-file snapshot of the unified report schema.
//!
//! A tiny fully-deterministic run — complete graph, triangle query, one
//! worker, one thread, static scheduler, fixed fault seed — is rendered
//! through the whole reporting stack (`RunOutcome::report` in
//! deterministic mode, wrapped in the `BenchReport` envelope) and byte-compared against `tests/golden/report_schema.json`.
//! Any schema change — a renamed key, a reordered field, a new metric in
//! the deterministic view — fails this test and forces a conscious
//! golden update (run with `UPDATE_GOLDEN=1` to regenerate, then review
//! the diff).

use benu_bench::report::BenchReport;
use benu_cluster::{Cluster, ClusterConfig, SchedulerKind};
use benu_fault::FaultPlan;
use benu_graph::gen;
use benu_obs::{Report, ReportMode};
use benu_pattern::queries;
use benu_plan::PlanBuilder;

/// One deterministic faulted run as the report row the snapshot holds.
fn snapshot_row() -> Report {
    let g = gen::complete(6);
    let pattern = queries::triangle();
    let plan = PlanBuilder::new(&pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(true)
        .best_plan();
    let mut cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(1)
            .scheduler(SchedulerKind::Static)
            .build(),
    );
    cluster.set_fault_plan(Some(FaultPlan::builder(42).transient_rate(0.03).build()));
    let outcome = cluster.run(&plan).expect("deterministic run failed");
    outcome.report(ReportMode::Deterministic)
}

/// That row in the `BenchReport` envelope, as canonical JSON text.
fn render_snapshot() -> String {
    let mut report = BenchReport::new("report_schema");
    report
        .param("graph", "complete6")
        .param("query", "triangle")
        .param("fault_seed", 42u64)
        .param("transient_rate", 0.03);
    report.push_row(&snapshot_row());
    report.to_json().render_json()
}

#[test]
fn unified_report_matches_golden_file() {
    let rendered = render_snapshot();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report_schema.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run once with UPDATE_GOLDEN=1 to seed it");
    assert_eq!(
        rendered, golden,
        "unified report schema drifted from the golden file; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

#[test]
fn snapshot_is_byte_identical_across_executions() {
    assert_eq!(render_snapshot(), render_snapshot());
}

#[test]
fn snapshot_carries_every_layers_subtree() {
    let rendered = render_snapshot();
    for needle in [
        "\"schema\": \"benu/report-v2\"",
        "\"engine\"",
        "\"store\"",
        "\"workers\"",
        "\"recovery\"",
        "\"cache\"",
        "\"exec_mode\"",
        "\"pool\"",
        "\"frontier\"",
        "\"deduped_keys\"",
        "\"shards\"",
    ] {
        assert!(rendered.contains(needle), "missing {needle}");
    }
}
