//! Satellite: the service soak test.
//!
//! A service holds a query only while someone can still ask for it:
//! `wait` hands the result over and the service lets the query go, and
//! what it reports of served queries is one fixed-size record per
//! pattern class. So live heap is bounded by the queries in flight, not
//! by the queries served. This test serves a long closed-loop mix and
//! reads live heap — counted by this binary's global allocator, the
//! workspace's `CountingAllocator` — at a quarter, half and all of the
//! way through.

use benu_graph::gen;
use benu_obs::alloc::CountingAllocator;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ResultMode, ServiceConfig, Terminal};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Queries served in all, by [`CLIENTS`] closed-loop clients.
const QUERIES: usize = 2_000;
const CLIENTS: usize = 2;

#[test]
fn live_heap_does_not_grow_with_the_queries_served() {
    let g = gen::barabasi_albert(150, 4, 3);
    // The ledger's `serve_mix` classes: three light, one wide, one heavy.
    let classes = [
        queries::triangle(),
        queries::clique(4),
        queries::chordal_square(),
        queries::path(3),
        queries::square(),
    ];
    let expected = classes.clone().map(|p| {
        let plan = benu_plan::PlanBuilder::new(&p).best_plan();
        benu_engine::count_embeddings(&plan, &g)
    });
    let service = QueryService::new(&g, ServiceConfig::builder().workers(2).build());
    let per_client = QUERIES / 4 / CLIENTS;
    // Live heap after each quarter, every client idle.
    let mut live = Vec::new();
    for quarter in 0..4 {
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (service, classes, expected) = (&service, &classes, &expected);
                scope.spawn(move || {
                    for i in 0..per_client {
                        let n = (quarter * CLIENTS + client) * per_client + i;
                        let class = n % classes.len();
                        // Every fourth round of the five classes collects.
                        let mode = match (n / classes.len()) % 4 {
                            0 => ResultMode::Collect,
                            _ => ResultMode::CountOnly,
                        };
                        let collect = mode == ResultMode::Collect;
                        let id = service.submit(&classes[class], QueryOptions::new().mode(mode));
                        let r = service.wait(id);
                        assert_eq!(r.terminal, Terminal::Completed, "query {n}");
                        assert_eq!(r.matches_found, expected[class], "query {n}");
                        if collect {
                            assert_eq!(r.matches.len() as u64, r.matches_found, "query {n}");
                        }
                    }
                });
            }
        });
        live.push(ALLOC.live_bytes());
    }
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let (quarter, half, end) = (live[0], live[1], live[3]);
    eprintln!(
        "live heap after 1/4, 1/2, all of {QUERIES} queries: {:.3} / {:.3} / {:.3} MB",
        mb(quarter),
        mb(half),
        mb(end)
    );
    assert!(
        end.saturating_sub(quarter) < 1 << 20,
        "live heap grew {:.3} MB over the last three quarters of the mix",
        mb(end.saturating_sub(quarter))
    );
}
