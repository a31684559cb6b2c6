//! The paper's relative claims (§VII), and the extensions' guarantees,
//! hold on the evaluation's own rows.
//!
//! Each test runs one experiment of `benu_bench::paper` at a scale a
//! debug build finishes in seconds and asserts every claim
//! `paper::claims` makes about its rows, except the few named as not
//! holding at that scale (each with the reason). The `paper` bin judges
//! the same claims at the default scales; EXPERIMENTS.md records both.
//!
//! Scales and caps, chosen so the whole file runs in under a minute in
//! a debug build (53–55 s on a 2-core host):
//! - Table I: every stand-in × 0.03.
//! - Table IV: no data graph; 5 random patterns per size.
//! - Fig. 7: lj × 0.015. Fig. 8: ok × 0.01. Fig. 9: ok × 0.03.
//! - Table V: as × 0.02, join memory cap 16 MB; the cold-cell check
//!   runs as × 0.02 with a 1 MB cap.
//! - Table VI: ok and fs × 0.01 without q5, WCOJ memory cap 96 MB and
//!   work budget 8 × 10⁶ extension steps (the bin's 512 MB / 3 × 10⁸
//!   take 22–49 s of release time per dense cell at × 0.03).
//! - Fig. 10: q5 on ok and fs × 0.01 and on a 312-vertex BA graph.
//! - Budget: ok × 0.01. Faults: as × 0.05. Estimators: as and lj × 0.01
//!   (fs adds a minute and a half).

use benu_bench::paper::{self, Experiment, Setup, Table};
use benu_graph::datasets::Dataset;

fn at(scale: f64) -> Setup {
    Setup {
        scale: Some(scale),
        ..Setup::default()
    }
}

/// Asserts every claim about `table` holds, except those named in
/// `not_at_this_scale` (which must still be claims of the table).
fn assert_claims(table: &Table, not_at_this_scale: &[&str]) {
    let claims = paper::claims(table);
    for name in not_at_this_scale {
        assert!(
            claims.iter().any(|c| c.name == *name),
            "no claim named {name:?}"
        );
    }
    let failing: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds && !not_at_this_scale.contains(&c.name.as_str()))
        .map(|c| format!("{} — {}", c.name, c.evidence))
        .collect();
    assert!(
        failing.is_empty(),
        "{} × {}:\n{}",
        table.experiment.name(),
        table.scale,
        failing.join("\n")
    );
}

#[test]
fn table1_motif_counts() {
    let table = paper::run(Experiment::Table1, &at(0.03));
    // The sparse as and lj stand-ins hold fewer 4-cliques than edges at
    // this size (1 023 vs 1 170 and 2 649 vs 3 240).
    assert_claims(&table, &["every motif count exceeds |E|"]);
}

#[test]
fn table4_plan_search_effort() {
    let setup = Setup {
        random_patterns: 5,
        ..Setup::default()
    };
    assert_claims(&paper::run(Experiment::Table4, &setup), &[]);
}

#[test]
fn fig7_each_optimization_pays_where_it_applies() {
    assert_claims(&paper::run(Experiment::Fig7, &at(0.015)), &[]);
}

#[test]
fn fig8_cache_capacity_trades_memory_for_communication() {
    let table = paper::run(Experiment::Fig8, &at(0.01));
    // At 40 vertices q5's few hubs fit the cache before q4's working set
    // does; q4 overtakes q5 from 40 % capacity at × 0.03.
    assert_claims(&table, &["q4's hit rate beats q5's from 40 % capacity on"]);
}

#[test]
fn fig9_splitting_cuts_the_largest_task() {
    assert_claims(&paper::run(Experiment::Fig9, &at(0.03)), &[]);
}

#[test]
fn table5_benu_sends_a_fraction_of_the_joins_shuffle() {
    let setup = Setup {
        datasets: Some(vec![Dataset::AsSkitter]),
        join_cap_bytes: 16 << 20,
        ..at(0.02)
    };
    assert_claims(&paper::run(Experiment::Table5, &setup), &[]);
}

/// Table V's cells are cold: a cell's communication is the same whether
/// or not another query ran on the cluster before it.
#[test]
fn a_cells_communication_does_not_depend_on_the_query_before_it() {
    let comm = |queries: &[&str]| {
        let setup = Setup {
            datasets: Some(vec![Dataset::AsSkitter]),
            queries: Some(queries.iter().map(|q| q.to_string()).collect()),
            join_cap_bytes: 1 << 20,
            ..at(0.02)
        };
        let table = paper::run(Experiment::Table5, &setup);
        let last = table.rows.last().expect("a cell");
        last.get_u64("benu_comm_bytes").expect("communication")
    };
    for (before, query) in [("q1", "q2"), ("q2", "q4"), ("q8", "q9")] {
        assert_eq!(
            comm(&[before, query]),
            comm(&[query]),
            "{query} after {before}"
        );
    }
}

#[test]
fn table6_wcoj_fails_on_dense_graphs_only() {
    // q5 is left out: on fs it alone costs as much as the rest.
    let queries = ["triangle", "clique4", "clique5", "q4"];
    let setup = Setup {
        queries: Some(queries.map(String::from).to_vec()),
        wcoj_cap_bytes: 96 << 20,
        wcoj_work_budget: 8_000_000,
        ..at(0.01)
    };
    assert_claims(&paper::run(Experiment::Table6, &setup), &[]);
}

#[test]
fn fig10_replayed_speedup_grows_and_lpt_and_stealing_never_lose() {
    let setup = Setup {
        datasets: Some(vec![Dataset::Orkut, Dataset::FriendSter]),
        queries: Some(vec!["q5".to_string()]),
        ..at(0.01)
    };
    assert_claims(&paper::run(Experiment::Fig10, &setup), &[]);
}

#[test]
fn budget_hybrid_batches_reads_and_spills_without_losing_a_match() {
    assert_claims(&paper::run(Experiment::Budget, &at(0.01)), &[]);
}

#[test]
fn faults_crashes_and_dark_shards_leave_the_count_exact() {
    assert_claims(&paper::run(Experiment::Faults, &at(0.05)), &[]);
}

#[test]
fn estimators_feedback_beats_chung_lu_beats_erdos_renyi() {
    let setup = Setup {
        datasets: Some(vec![Dataset::AsSkitter, Dataset::LiveJournal]),
        ..at(0.01)
    };
    assert_claims(&paper::run(Experiment::Estimators, &setup), &[]);
}
