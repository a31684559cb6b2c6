//! Satellite: cancellation and deadline soundness.
//!
//! Terminating a query early — by `cancel`, a virtual-time deadline, or
//! a match cap — must release its queued chunks promptly, leave sibling
//! queries bit-exact, and always land on a structured terminal status:
//! a partial count is only ever reported *as* partial.

use benu_graph::gen;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ServiceConfig, Terminal};

fn heavy_graph() -> benu_graph::Graph {
    gen::barabasi_albert(400, 6, 21)
}

fn service(workers: usize) -> QueryService {
    QueryService::new(
        &heavy_graph(),
        ServiceConfig::builder()
            .workers(workers)
            .chunk_tasks(8)
            .build(),
    )
}

#[test]
fn zero_deadline_commits_nothing() {
    // Deadline 0 is already expired at the first (pre-commit) boundary
    // check, so not one chunk commits — deterministically, at any
    // concurrency.
    for workers in [1, 4] {
        let service = service(workers);
        let id = service.submit(&queries::clique(4), QueryOptions::new().deadline_vticks(0));
        let r = service.wait(id);
        assert_eq!(r.terminal, Terminal::DeadlineExceeded);
        assert!(r.is_partial());
        assert_eq!(r.matches_found, 0);
        assert_eq!(r.vticks, 0);
        assert_eq!(r.chunks_committed, 0);
        assert!(r.chunks_discarded > 0, "all chunks released");
        assert!(!r.exhaustive);
    }
}

#[test]
fn deadline_partial_leaves_sibling_exact() {
    let g = heavy_graph();
    let plan = benu_plan::PlanBuilder::new(&queries::triangle()).best_plan();
    let expected = benu_engine::count_embeddings(&plan, &g);

    let service = QueryService::new(
        &g,
        ServiceConfig::builder().workers(4).chunk_tasks(8).build(),
    );
    let budgeted = service.submit(
        &queries::clique(4),
        QueryOptions::new().deadline_vticks(5_000),
    );
    let sibling = service.submit(&queries::triangle(), QueryOptions::new());

    let b = service.wait(budgeted);
    assert_eq!(b.terminal, Terminal::DeadlineExceeded);
    assert!(b.is_partial(), "deadline partials must say so");
    assert!(b.chunks_discarded > 0, "the deadline released queued work");

    let s = service.wait(sibling);
    assert_eq!(s.terminal, Terminal::Completed);
    assert!(s.exhaustive);
    assert_eq!(
        s.matches_found, expected,
        "a sibling's count must not be corrupted by the budgeted query's termination"
    );
}

#[test]
fn cancel_releases_queued_chunks() {
    // One worker and a tiny chunk size: the clique query holds many
    // queued chunks when cancel lands, so the drain path must release
    // them and account every one as discarded.
    let service = service(1);
    let id = service.submit(&queries::clique(4), QueryOptions::new());
    assert!(service.cancel(id), "first cancel wins");
    let r = service.wait(id);
    assert_eq!(r.terminal, Terminal::Cancelled);
    assert!(r.is_partial());
    assert!(r.chunks_discarded > 0, "queued chunks were released");
    assert!(!r.exhaustive);
    assert!(
        !service.cancel(id),
        "cancelling a finished query is a no-op"
    );
    // The released capacity is actually usable: a follow-up query runs
    // to completion on the same workers.
    let follow = service.submit(&queries::triangle(), QueryOptions::new());
    let f = service.wait(follow);
    assert_eq!(f.terminal, Terminal::Completed);
    assert!(f.exhaustive);
}

#[test]
fn max_matches_clamps_and_reports_partial() {
    let service = service(2);
    let id = service.submit(&queries::triangle(), QueryOptions::new().max_matches(50));
    let r = service.wait(id);
    assert_eq!(r.terminal, Terminal::MaxMatchesReached);
    assert_eq!(r.matches_found, 50, "the count clamps exactly at the cap");
    assert!(r.is_partial());
    assert!(!r.exhaustive);
}

#[test]
fn cancel_unknown_query_is_refused() {
    let service = service(1);
    assert!(!service.cancel(999));
}

#[test]
fn every_admission_reaches_a_terminal_under_churn() {
    // Cancellation storms must never wedge the service: submit a wave,
    // cancel every other query immediately, and require a structured
    // terminal for all of them.
    let service = service(3);
    let ids: Vec<_> = (0..10)
        .map(|i| {
            let id = service.submit(&queries::triangle(), QueryOptions::new());
            if i % 2 == 0 {
                service.cancel(id);
            }
            id
        })
        .collect();
    for id in ids {
        let r = service.wait(id);
        match r.terminal {
            Terminal::Completed => assert!(r.exhaustive),
            Terminal::Cancelled => assert!(r.is_partial()),
            other => panic!("unexpected terminal {other:?}"),
        }
        assert!(
            r.chunks_committed + r.chunks_discarded > 0,
            "every chunk must be accounted for"
        );
    }
}

#[test]
#[should_panic(expected = "unknown or already consumed query id")]
fn a_result_is_delivered_once() {
    // `wait` hands the result over and the service forgets the query:
    // it is then as unknown as an id never issued.
    let service = service(1);
    let id = service.submit(&queries::triangle(), QueryOptions::new());
    assert_eq!(service.wait(id).terminal, Terminal::Completed);
    assert_eq!(service.status(id), None);
    assert!(!service.cancel(id));
    service.wait(id);
}
