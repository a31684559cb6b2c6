//! Feedback-driven re-planning at the serving layer.
//!
//! With `feedback_replanning` on, an exhaustively completed query
//! records its observed per-instruction cardinalities in its pattern
//! class's record; the next submission of the same pattern class
//! is recompiled with the feedback estimator. These tests pin the
//! contract: counts never change, re-planning happens exactly once per
//! class, and a sequential submit–wait–submit sequence is
//! byte-deterministic.

use benu_graph::gen;
use benu_obs::ReportMode;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryResult, QueryService, ResultMode, ServiceConfig, Terminal};

fn config(feedback: bool) -> ServiceConfig {
    ServiceConfig::builder()
        .workers(2)
        .chunk_tasks(16)
        .feedback_replanning(feedback)
        .build()
}

/// The deterministic surface of a result (wall time and completion
/// order excluded).
fn surface(r: &QueryResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.terminal.clone(),
        r.matches_found,
        r.matches.clone(),
        r.chunks_committed,
        r.exhaustive,
    )
}

#[test]
fn repeat_queries_replan_once_and_preserve_counts() {
    let g = gen::barabasi_albert(200, 4, 11);
    let service = QueryService::new(&g, config(true));
    let opts = || QueryOptions::new().mode(ResultMode::Collect);

    let cold = service.wait(service.submit(&queries::q1(), opts()));
    assert_eq!(cold.terminal, Terminal::Completed);
    assert!(cold.exhaustive);
    assert_eq!(service.feedback_replans(), 0, "nothing to learn from yet");

    // The repeat submission is re-planned from the cold run's stats.
    let warm = service.wait(service.submit(&queries::q1(), opts()));
    assert_eq!(service.feedback_replans(), 1);
    assert_eq!(warm.terminal, Terminal::Completed);
    assert_eq!(warm.matches_found, cold.matches_found);
    // The re-planned matching order may enumerate in a different stream
    // order; the embedding *set* must be identical.
    let (mut c, mut w) = (cold.matches.clone(), warm.matches.clone());
    c.sort();
    w.sort();
    assert_eq!(w, c, "same embeddings, order aside");

    // A relabeled pattern of the same class rides the replanned entry —
    // no second recompilation.
    let relabeled = benu_pattern::Pattern::from_edges(4, &[(3, 2), (2, 0), (0, 1), (1, 3), (3, 0)]);
    let iso = queries::q1().canonical_form().pattern == relabeled.canonical_form().pattern;
    if iso {
        let again = service.wait(service.submit(&relabeled, opts()));
        assert_eq!(service.feedback_replans(), 1, "one re-plan per class");
        assert_eq!(again.matches_found, cold.matches_found);
    }

    // An unrelated class learns independently.
    let tri = service.wait(service.submit(&queries::triangle(), opts()));
    assert_eq!(tri.terminal, Terminal::Completed);
    let tri2 = service.wait(service.submit(&queries::triangle(), opts()));
    assert_eq!(service.feedback_replans(), 2);
    assert_eq!(tri2.matches_found, tri.matches_found);
}

#[test]
fn sequential_replanning_is_byte_deterministic() {
    let g = gen::barabasi_albert(180, 4, 3);
    let run = || {
        let service = QueryService::new(&g, config(true));
        let mut results = Vec::new();
        for _ in 0..3 {
            let id = service.submit(
                &queries::triangle(),
                QueryOptions::new().mode(ResultMode::Collect),
            );
            results.push(service.wait(id));
        }
        let replans = service.feedback_replans();
        let report = service.report(ReportMode::Deterministic);
        (results, replans, report)
    };
    let (a, ra, report_a) = run();
    let (b, rb, report_b) = run();
    assert_eq!(ra, rb);
    assert_eq!(ra, 1, "first repeat re-plans, later repeats reuse");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(surface(x), surface(y));
    }
    assert_eq!(report_a, report_b, "deterministic reports must match");
}

#[test]
fn replanning_off_by_default_records_nothing() {
    let g = gen::barabasi_albert(120, 3, 5);
    let service = QueryService::new(&g, config(false));
    for _ in 0..3 {
        let id = service.submit(&queries::triangle(), QueryOptions::new());
        let r = service.wait(id);
        assert_eq!(r.terminal, Terminal::Completed);
    }
    assert_eq!(service.feedback_replans(), 0);
}

#[test]
fn truncated_queries_do_not_pollute_the_stats_store() {
    // A deadline-truncated run observes only a prefix of the work; it
    // must not feed the estimator. Submit truncated runs first, then a
    // complete one, then a repeat: exactly one re-plan, driven by the
    // complete observation alone.
    let g = gen::barabasi_albert(200, 4, 19);
    let service = QueryService::new(&g, config(true));
    let cut = service.wait(service.submit(&queries::q1(), QueryOptions::new().deadline_vticks(50)));
    assert_ne!(cut.terminal, Terminal::Completed, "deadline must bite");
    let full = service.wait(service.submit(&queries::q1(), QueryOptions::new()));
    assert_eq!(full.terminal, Terminal::Completed);
    assert_eq!(
        service.feedback_replans(),
        0,
        "the full run after truncations compiles from the cold cache"
    );
    let repeat = service.wait(service.submit(&queries::q1(), QueryOptions::new()));
    assert_eq!(service.feedback_replans(), 1);
    assert_eq!(repeat.matches_found, full.matches_found);
}

#[test]
fn a_satisfied_topk_does_not_feed_the_stats_store() {
    // A satisfied `TopK` is `Completed` but not exhaustive: it observed a
    // prefix of the work, so it must not feed the estimator either. The
    // full run after it compiles from the cold cache; its repeat is the
    // class's one re-plan.
    let g = gen::barabasi_albert(200, 4, 19);
    let service = QueryService::new(&g, config(true));
    let top = service.wait(service.submit(
        &queries::q1(),
        QueryOptions::new().mode(ResultMode::TopK(1)),
    ));
    assert_eq!(top.terminal, Terminal::Completed);
    assert!(!top.exhaustive, "TopK(1) must stop before the last chunk");
    let full = service.wait(service.submit(&queries::q1(), QueryOptions::new()));
    assert!(full.exhaustive);
    assert_eq!(service.feedback_replans(), 0, "the TopK run fed the class");
    let repeat = service.wait(service.submit(&queries::q1(), QueryOptions::new()));
    assert_eq!(service.feedback_replans(), 1);
    assert_eq!(repeat.matches_found, full.matches_found);
}
