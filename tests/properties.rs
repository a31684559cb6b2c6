//! Property-style tests over random graphs and random patterns.
//!
//! The central invariants of the whole system:
//!
//! * every plan (any order, any optimization level, compressed or not)
//!   enumerates exactly the brute-force match set;
//! * symmetry breaking reports each subgraph exactly once
//!   (`raw matches = subgraphs × |Aut(P)|`);
//! * the intersection kernels agree with naive set semantics;
//! * task splitting partitions, never duplicates.
//!
//! Each property runs over a fixed fan of seeds (deterministic, offline —
//! no proptest shrinking, so failures print the seed that produced them).

use benu::engine::reference;
use benu::graph::{gen, ops, Graph};
use benu::pattern::automorphism::automorphism_count;
use benu::pattern::{queries, Pattern, SymmetryBreaking};
use benu::plan::optimize::OptLevel;
use benu::plan::PlanBuilder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 64;

/// A random connected pattern with 3–6 vertices.
fn sample_pattern(rng: &mut ChaCha8Rng) -> Pattern {
    let n = rng.gen_range(3usize..=6);
    let extra = rng.gen_range(0usize..=4);
    let seed = rng.gen_range(0u64..1000);
    let g = gen::random_connected(n, extra, seed);
    let edges: Vec<(usize, usize)> = g.edges().map(|(a, b)| (a as usize, b as usize)).collect();
    Pattern::from_edges(n, &edges)
}

/// A small random data graph.
fn sample_graph(rng: &mut ChaCha8Rng) -> Graph {
    let n = rng.gen_range(10usize..40);
    let seed = rng.gen_range(0u64..1000);
    let density = rng.gen_range(1usize..4);
    let max_m = n * (n - 1) / 2;
    let m = (n * density * 2).min(max_m);
    gen::erdos_renyi_gnm(n, m, seed)
}

#[test]
fn engine_equals_reference_on_random_inputs() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE0 + case);
        let p = sample_pattern(&mut rng);
        let g = sample_graph(&mut rng);
        let compressed = rng.gen::<bool>();
        let expected = reference::count_subgraphs(&g, &p);
        let plan = PlanBuilder::new(&p).compressed(compressed).best_plan();
        let got = benu::engine::count_embeddings(&plan, &g);
        assert_eq!(got, expected, "case {case} (compressed={compressed})");
    }
}

#[test]
fn optimizations_never_change_the_match_multiset() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0F + case);
        let p = sample_pattern(&mut rng);
        let g = sample_graph(&mut rng);
        let seed = rng.gen_range(0u64..100);
        // A pseudo-random (but valid) matching order derived from the seed.
        let n = p.num_vertices();
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let raw = PlanBuilder::new(&p)
            .matching_order(order.clone())
            .optimizations(OptLevel::Raw)
            .build();
        let opt = PlanBuilder::new(&p)
            .matching_order(order)
            .optimizations(OptLevel::Opt3)
            .build();
        assert_eq!(
            benu::engine::collect_embeddings(&raw, &g),
            benu::engine::collect_embeddings(&opt, &g),
            "case {case}"
        );
    }
}

#[test]
fn symmetry_breaking_deduplicates_exactly() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B + case);
        let p = sample_pattern(&mut rng);
        let g = sample_graph(&mut rng);
        let with = reference::count(&g, &p, &SymmetryBreaking::compute(&p));
        let without = reference::count(&g, &p, &SymmetryBreaking::none());
        assert_eq!(without, with * automorphism_count(&p) as u64, "case {case}");
    }
}

#[test]
fn intersection_kernels_match_naive() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x17 + case);
        let sample_set = |rng: &mut ChaCha8Rng| -> Vec<u32> {
            let len = rng.gen_range(0usize..60);
            let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..200)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = sample_set(&mut rng);
        let b = sample_set(&mut rng);
        let naive: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
        let mut out = Vec::new();
        ops::merge_intersect_into(&a, &b, &mut out);
        assert_eq!(&out, &naive, "merge, case {case}");
        ops::gallop_intersect_into(&a, &b, &mut out);
        assert_eq!(&out, &naive, "gallop, case {case}");
        ops::intersect_into(&a, &b, &mut out);
        assert_eq!(&out, &naive, "adaptive, case {case}");
        assert_eq!(
            ops::intersect_count(&a, &b),
            naive.len(),
            "count, case {case}"
        );
    }
}

#[test]
fn split_tasks_partition_matches() {
    use benu::engine::{
        task, CompiledPlan, CountingConsumer, InMemorySource, LocalEngine, SearchTask,
    };
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x59 + case);
        let g = sample_graph(&mut rng);
        let tau = rng.gen_range(1usize..8);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu::graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer::default();

        let mut whole = 0u64;
        for v in g.vertices() {
            whole += engine.run_task(SearchTask::whole(v), &mut c).matches;
        }
        let mut split = 0u64;
        for t in task::generate_tasks(&g, tau, compiled.second_adjacent) {
            split += engine.run_task(t, &mut c).matches;
        }
        assert_eq!(whole, split, "case {case} (tau={tau})");
    }
}

#[test]
fn lru_cache_respects_budget_always() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x14 + case);
        let capacity = rng.gen_range(1u64..100);
        let num_ops = rng.gen_range(1usize..200);
        let mut lru: benu::cache::lru::Lru<u32, u32> = benu::cache::lru::Lru::new(capacity);
        for _ in 0..num_ops {
            let key = rng.gen_range(0u32..50);
            let cost = rng.gen_range(1u64..20);
            lru.insert(key, key, cost);
            assert!(lru.used_cost() <= capacity, "case {case}");
        }
    }
}

#[test]
fn schedulers_agree_on_counts_and_communication() {
    // The scheduling policy may move tasks between workers but must never
    // change what is computed: identical match counts and — with the
    // database cache disabled, so placement cannot affect hit patterns —
    // identical total communication bytes on ER, BA and star graphs.
    use benu::cluster::{Cluster, ClusterConfig, SchedulerKind};

    let graphs: Vec<(&str, Graph)> = vec![
        ("er", gen::erdos_renyi_gnm(60, 240, 7)),
        ("ba", gen::barabasi_albert(60, 4, 7)),
        ("star", gen::star(60)),
    ];
    for (gname, g) in &graphs {
        for (qname, pattern) in [("triangle", queries::triangle()), ("q1", queries::q1())] {
            let plan = PlanBuilder::new(&pattern).best_plan();
            let run = |kind: SchedulerKind| {
                let cluster = Cluster::new(
                    g,
                    ClusterConfig::builder()
                        .workers(3)
                        .threads_per_worker(2)
                        .cache_capacity_bytes(0)
                        .tau(8)
                        .scheduler(kind)
                        .build(),
                );
                cluster.run(&plan).unwrap()
            };
            let stat = run(SchedulerKind::Static);
            let ws = run(SchedulerKind::WorkStealing);
            assert_eq!(
                stat.total_matches, ws.total_matches,
                "{gname}/{qname}: schedulers disagree on the count"
            );
            assert_eq!(
                stat.communication_bytes(),
                ws.communication_bytes(),
                "{gname}/{qname}: schedulers disagree on total bytes"
            );
            let executed: usize = ws.workers.iter().map(|w| w.tasks_executed).sum();
            assert_eq!(executed, ws.total_tasks, "{gname}/{qname}: tasks lost");
        }
    }
}
