//! Satellite: the service soak test.
//!
//! A service holds a query only while someone can still ask for it:
//! `wait` hands the result over and the service lets the query go, and
//! what it reports of served queries is one fixed-size record per
//! pattern class. So live heap is bounded by the queries in flight, not
//! by the queries served. This test serves a long closed-loop mix and
//! reads live heap — counted by this binary's own global allocator — at
//! a quarter, half and all of the way through.

use benu_graph::gen;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ResultMode, ServiceConfig, Terminal};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live heap bytes. Statistics only, so every access is `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] over [`System`] that keeps [`LIVE`].
struct LiveAlloc;

// SAFETY: every call is forwarded verbatim to `System`; the counter
// updates never touch the returned memory or the layout.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

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
        live.push(LIVE.load(Ordering::Relaxed));
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
