//! Differential fan for the interpreter's fused forms (DESIGN.md §4f).
//!
//! The rank window runs on every filtered instruction; the counted
//! `ENU ; RES` tail (with the `INT` feeding it) engages only when the
//! consumer takes no matches. So the same plan over the same tasks is run
//! counting and collecting, depth-first and through the frontier at a
//! budget that spills at once and at one that never does, and every run
//! must agree with the brute-force reference on the match set and with
//! every other run on every `TaskMetrics` counter and observation slot —
//! a fused form that miscounts differs from the loop it replaces.
//!
//! Hand-rolled and seeded (no proptest: `compat/` is offline): random
//! connected patterns on 3–6 vertices, a third of them labeled, random
//! matching orders, ER / BA / star / near-clique data graphs, every rung
//! of the optimisation ladder, compressed and not, unsplit and τ = 2.

use benu_engine::compile::CInstr;
use benu_engine::task::generate_tasks;
use benu_engine::{
    reference, CollectingConsumer, CompiledPlan, CountingConsumer, FrontierEngine, InMemorySource,
    LocalEngine, MatchConsumer, MemoryBudget, SearchTask, TaskMetrics,
};
use benu_graph::{gen, Graph, TotalOrder, VertexId};
use benu_pattern::Pattern;
use benu_plan::optimize::OptLevel;
use benu_plan::{ExecutionPlan, PlanBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 24;

/// A random connected pattern on 3–6 vertices, labeled one time in three.
fn sample_pattern(rng: &mut ChaCha8Rng) -> Pattern {
    let n = rng.gen_range(3usize..=6);
    let shape = gen::random_connected(n, rng.gen_range(0usize..=4), rng.gen_range(0u64..1000));
    let edges: Vec<(usize, usize)> = shape
        .edges()
        .map(|(a, b)| (a as usize, b as usize))
        .collect();
    let pattern = Pattern::from_edges(n, &edges);
    match rng.gen_range(0..3) {
        0 => pattern.with_labels((0..n).map(|_| rng.gen_range(0u32..2)).collect()),
        _ => pattern,
    }
}

/// A data graph of at most 60 vertices, sized down with the pattern so
/// the densest shapes stay cheap in a debug build.
fn sample_graph(rng: &mut ChaCha8Rng, pattern_vertices: usize) -> Graph {
    let seed = rng.gen_range(0u64..1000);
    let big = pattern_vertices >= 5;
    match rng.gen_range(0..4) {
        0 => {
            let n = rng.gen_range(20usize..=if big { 36 } else { 60 });
            gen::erdos_renyi_gnm(n, n * rng.gen_range(2usize..=3), seed)
        }
        1 => gen::barabasi_albert(rng.gen_range(20usize..=if big { 40 } else { 60 }), 3, seed),
        2 => gen::star(rng.gen_range(5usize..=59)),
        _ => {
            // A clique with a few edges knocked out.
            let n = rng.gen_range(6u32..=if big { 9 } else { 13 });
            let mut edges: Vec<(VertexId, VertexId)> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .collect();
            for _ in 0..rng.gen_range(1usize..=4) {
                edges.swap_remove(rng.gen_range(0..edges.len()));
            }
            Graph::from_edges(edges)
        }
    }
}

fn shuffled(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Whether the compiled plan carries the counted tail, and whether the
/// INT before it is counted with it.
fn tail_marks(compiled: &CompiledPlan) -> (bool, bool) {
    let enu = compiled
        .instrs
        .iter()
        .any(|i| matches!(i, CInstr::Foreach { tail: true, .. }));
    let int = compiled
        .instrs
        .iter()
        .any(|i| matches!(i, CInstr::Intersect { tail: true, .. }));
    (enu, int)
}

struct Inputs<'a> {
    compiled: &'a CompiledPlan,
    source: &'a InMemorySource,
    order: &'a TotalOrder,
    data_labels: &'a [u32],
    tasks: &'a [SearchTask],
}

impl Inputs<'_> {
    fn engine(&self) -> LocalEngine<'_, InMemorySource> {
        LocalEngine::new(self.compiled, self.source, self.order).with_data_labels(self.data_labels)
    }

    fn dfs(&self, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        let mut engine = self.engine();
        let mut total = TaskMetrics::default();
        for &task in self.tasks {
            total += engine.run_task(task, consumer);
        }
        total
    }

    fn frontier(&self, budget: MemoryBudget, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        FrontierEngine::new(self.engine(), budget).run_batch(self.tasks, consumer)
    }
}

/// Runs one plan over one task list every way the interpreter can and
/// holds every run to the reference and to the collecting DFS run.
fn check(what: &str, plan: &ExecutionPlan, g: &Graph, data_labels: &[u32], tau: usize) {
    let compiled = CompiledPlan::compile(plan);
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    // A plan that never enumerates its second vertex (compressed down to
    // a one-vertex cover) has no split point: its tasks stay whole.
    let tau = compiled.second_vertex.map_or(0, |_| tau);
    let tasks = generate_tasks(g, tau, compiled.second_adjacent);
    let inputs = Inputs {
        compiled: &compiled,
        source: &source,
        order: &order,
        data_labels,
        tasks: &tasks,
    };
    let expected =
        reference::enumerate_labeled(g, &plan.pattern, &plan.symmetry, Some(data_labels));

    let mut collected = CollectingConsumer::new(&compiled, &order);
    let general = inputs.dfs(&mut collected);
    let mut matches = collected.take_matches();
    matches.sort();
    assert_eq!(
        matches.to_vecs(),
        expected,
        "{what}: DFS collecting vs reference"
    );
    assert_eq!(general.matches, expected.len() as u64, "{what}: count");

    let counted = inputs.dfs(&mut CountingConsumer::default());
    assert_eq!(counted, general, "{what}: DFS counting vs collecting");

    for (label, budget) in [
        ("1 B", MemoryBudget::bytes(1)),
        ("unbounded", MemoryBudget::unbounded()),
    ] {
        let counted = inputs.frontier(budget, &mut CountingConsumer::default());
        assert_eq!(counted, general, "{what}: frontier counting at {label}");
        let mut collected = CollectingConsumer::new(&compiled, &order);
        let metrics = inputs.frontier(budget, &mut collected);
        assert_eq!(metrics, general, "{what}: frontier collecting at {label}");
        let mut matches = collected.take_matches();
        matches.sort();
        assert_eq!(
            matches.to_vecs(),
            expected,
            "{what}: frontier matches at {label}"
        );
    }
}

#[test]
fn fused_forms_read_what_the_loops_read() {
    let (mut tails, mut counted_ints, mut general_only) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF17 + case);
        let pattern = sample_pattern(&mut rng);
        let g = sample_graph(&mut rng, pattern.num_vertices());
        let data_labels: Vec<u32> = (0..g.num_vertices())
            .map(|_| rng.gen_range(0u32..2))
            .collect();
        // The searched order and a random one: the latter reaches the
        // `V(G)` operand and a second vertex not adjacent to the first.
        let orders = [
            PlanBuilder::new(&pattern).best_plan().matching_order,
            shuffled(&mut rng, pattern.num_vertices()),
        ];
        let order = &orders[(case % 2) as usize];
        for level in OptLevel::LADDER {
            for compressed in [false, true] {
                let plan = PlanBuilder::new(&pattern)
                    .matching_order(order.clone())
                    .optimizations(level)
                    .compressed(compressed)
                    .build();
                let (enu, int) = tail_marks(&CompiledPlan::compile(&plan));
                // Compressed plans and labeled last vertices take the
                // general arm.
                assert_eq!(enu, !compressed && !pattern.is_labeled(), "case {case}");
                tails += usize::from(enu);
                counted_ints += usize::from(int);
                general_only += usize::from(!enu);
                for tau in [0, 2] {
                    let what = format!(
                        "case {case} {level:?} compressed={compressed} tau={tau} order={order:?}"
                    );
                    check(&what, &plan, &g, &data_labels, tau);
                }
            }
        }
    }
    assert!(
        tails >= 20 && counted_ints >= 10 && general_only >= 20,
        "the fan must land on both sides of every form: {tails} counted tails, \
         {counted_ints} counted INTs, {general_only} general-only plans"
    );
}

#[test]
fn split_second_vertex_tail_counts_its_own_slice_only() {
    // A single edge: the second vertex's loop is the last one, so the
    // counted tail is also the split point and must advance by the
    // task's slice of the candidates, not by all of them.
    let pattern = Pattern::from_edges(2, &[(0, 1)]);
    let g = gen::barabasi_albert(50, 4, 11);
    let no_labels = vec![0; g.num_vertices()];
    for level in OptLevel::LADDER {
        let plan = PlanBuilder::new(&pattern).optimizations(level).build();
        let compiled = CompiledPlan::compile(&plan);
        assert!(compiled.instrs.iter().any(|i| matches!(
            i,
            CInstr::Foreach {
                is_second: true,
                tail: true,
                ..
            }
        )));
        assert_eq!(tail_marks(&compiled), (true, true), "{level:?}");
        let split = generate_tasks(&g, 2, compiled.second_adjacent);
        assert!(split.len() > g.num_vertices(), "τ = 2 must split");
        check(&format!("edge {level:?}"), &plan, &g, &no_labels, 2);
    }
}

#[test]
fn labeled_last_vertex_keeps_the_loop() {
    // The label check sits in the ENU loop; a labeled last vertex is not
    // marked, and both consumers run the same general arm.
    let pattern = Pattern::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).with_labels(vec![0, 1, 1]);
    let g = gen::erdos_renyi_gnm(40, 200, 5);
    let data_labels: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
    let plan = PlanBuilder::new(&pattern).best_plan();
    assert_eq!(
        tail_marks(&CompiledPlan::compile(&plan)),
        (false, false),
        "a labeled last vertex must not be counted"
    );
    check("labeled triangle", &plan, &g, &data_labels, 2);
}
