//! The engine's steady-state allocation contract, observed through a
//! counting `#[global_allocator]`: once the buffer pool and the triangle
//! cache are warm, running tasks allocates nothing, and a triangle-cache
//! miss allocates its cached value and nothing else; collecting the
//! embeddings of a compressed plan adds the growth of the one buffer its
//! codes are kept in and the one exact buffer they expand into, not an
//! allocation per embedding or per code. A single `#[test]` so no
//! sibling test allocates concurrently under the same counter.

use benu_engine::{
    CollectingConsumer, CompiledPlan, CountingConsumer, InMemorySource, LocalEngine,
};
use benu_graph::{gen, TotalOrder};
use benu_obs::alloc::CountingAllocator;
use benu_pattern::queries;
use benu_plan::PlanBuilder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_allocations() {
    warm_q5_tasks_allocate_nothing_and_every_take_hits_the_pool();
    clique5_allocates_once_per_triangle_cache_miss();
    collecting_a_compressed_plan_allocates_for_buffer_growth_only();
}

fn warm_q5_tasks_allocate_nothing_and_every_take_hits_the_pool() {
    let g = gen::barabasi_albert(150, 4, 3);
    let plan = PlanBuilder::new(&queries::q5()).best_plan();
    let compiled = CompiledPlan::compile(&plan);
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let tasks = benu_engine::task::generate_tasks(&g, 20, compiled.second_adjacent);
    // Triangle cache far larger than the workload: an eviction would
    // re-run a compute closure, which allocates the cached set.
    let mut engine = LocalEngine::with_triangle_cache(&compiled, &source, &order, 1 << 18);
    let mut consumer = CountingConsumer::default();
    let mut run_pass = |engine: &mut LocalEngine<'_, InMemorySource>| -> u64 {
        tasks
            .iter()
            .map(|&task| engine.run_task(task, &mut consumer).matches)
            .sum()
    };

    let warm_matches = run_pass(&mut engine);
    assert!(warm_matches > 0, "the workload must find q5 matches");
    // Buffers come back to the pool in a different order than they were
    // taken, so a recycled buffer can land where more capacity is needed
    // than it has; each such growth is one allocation, and capacities
    // settle within a few passes. Warm up until a pass grows nothing.
    let settled = (0..8).any(|_| {
        let before = ALLOC.snapshot();
        run_pass(&mut engine);
        ALLOC.snapshot().delta_since(&before).allocs == 0
    });
    assert!(settled, "buffer capacities never settled");
    let warm_pool = engine.pool_stats();

    let before = ALLOC.snapshot();
    let steady_matches = run_pass(&mut engine);
    let delta = ALLOC.snapshot().delta_since(&before);
    let steady_pool = engine.pool_stats();

    assert_eq!(steady_matches, warm_matches);
    assert_eq!(
        delta.allocs, 0,
        "steady-state pass allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(
        steady_pool.misses, warm_pool.misses,
        "every steady-state take must be a pool hit"
    );
    assert!(steady_pool.hits > warm_pool.hits);
}

/// clique5 on a dense graph with the triangle cache switched off, so
/// every TRC of every pass is a miss: the one thing a settled pass may
/// allocate is each miss's exact-size set (it used to grow a fresh `Vec`
/// by pushes and box it — about five allocations a miss).
fn clique5_allocates_once_per_triangle_cache_miss() {
    let g = gen::erdos_renyi_gnm(60, 900, 7);
    let plan = PlanBuilder::new(&queries::clique(5)).best_plan();
    let compiled = CompiledPlan::compile(&plan);
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let tasks = benu_engine::task::generate_tasks(&g, 20, compiled.second_adjacent);
    let mut engine = LocalEngine::with_triangle_cache(&compiled, &source, &order, 0);
    let mut consumer = CountingConsumer::default();
    let mut run_pass = |engine: &mut LocalEngine<'_, InMemorySource>| -> (u64, u64, u64) {
        let misses_before = engine.triangle_cache_stats().misses;
        let before = ALLOC.snapshot();
        let matches: u64 = tasks
            .iter()
            .map(|&task| engine.run_task(task, &mut consumer).matches)
            .sum();
        let allocs = ALLOC.snapshot().delta_since(&before).allocs;
        let misses = engine.triangle_cache_stats().misses - misses_before;
        (matches, allocs, misses)
    };

    let (warm_matches, _, _) = run_pass(&mut engine);
    assert!(warm_matches > 0, "the workload must find 5-cliques");
    let settled = (0..8)
        .map(|_| run_pass(&mut engine))
        .find(|&(_, allocs, misses)| allocs <= misses);
    let (matches, allocs, misses) = settled.expect("buffer capacities never settled");
    assert_eq!(matches, warm_matches);
    assert!(misses > 100, "the plan must be TRC-backed: {misses} misses");
    assert_eq!(
        allocs, misses,
        "a settled pass allocates exactly its triangle-cache misses' values"
    );
}

/// chordal_square under a VCBC-compressed plan, collected by a fresh
/// `CollectingConsumer` per pass and expanded by `take_matches`: a
/// settled pass allocates only as the consumer's one code buffer doubles
/// (its codes take fewer words than the rows they expand to), then the
/// exact row buffer and two scratch vectors — ⌈log₂ rows⌉ and a small
/// constant, however many codes and embeddings went by.
fn collecting_a_compressed_plan_allocates_for_buffer_growth_only() {
    let g = gen::barabasi_albert(1000, 8, 3);
    let plan = PlanBuilder::new(&queries::chordal_square())
        .compressed(true)
        .best_plan();
    let compiled = CompiledPlan::compile(&plan);
    assert!(compiled.expansion.is_some(), "the plan must emit codes");
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let tasks = benu_engine::task::generate_tasks(&g, 20, compiled.second_adjacent);
    let mut engine = LocalEngine::with_triangle_cache(&compiled, &source, &order, 1 << 18);
    let run_pass = |engine: &mut LocalEngine<'_, InMemorySource>| -> (u64, usize, u64) {
        let before = ALLOC.snapshot();
        let mut consumer = CollectingConsumer::new(&compiled, &order);
        let codes: u64 = tasks
            .iter()
            .map(|&task| engine.run_task(task, &mut consumer).codes)
            .sum();
        let held = consumer.embeddings();
        let rows = consumer.take_matches().len();
        let allocs = ALLOC.snapshot().delta_since(&before).allocs;
        assert_eq!(held, rows as u64, "the codes expand to what they count");
        (codes, rows, allocs)
    };

    let (codes, rows, _) = run_pass(&mut engine);
    assert!(
        codes > 1_000 && rows as u64 > 4 * codes,
        "{codes} codes, {rows} rows"
    );
    let growth = u64::from(rows.next_power_of_two().trailing_zeros());
    let (again_codes, again_rows, allocs) = run_pass(&mut engine);
    assert_eq!((again_codes, again_rows), (codes, rows));
    assert!(
        allocs <= growth + 4,
        "second pass: {allocs} allocations for {rows} rows out of {codes} codes"
    );
}
