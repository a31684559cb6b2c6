//! Retained VCBC codes expand to exactly the embeddings the uncompressed
//! plan enumerates. A collecting lane keeps a compressed plan's codes
//! and expands them only when it hands rows over — per chunk through
//! `LaneExecutor::take_rows`, at the end through `LaneExecutor::finish`
//! — so both hand-overs are checked, under DFS and hybrid execution,
//! for every compressed catalogue plan, a code with more non-cover
//! vertices than `report` holds inline (a star of nine leaves), and a
//! labeled plan (through the engine's collector: lanes run unlabeled).

use benu_cluster::worker::LaneExecutor;
use benu_cluster::ExecMode;
use benu_engine::task::generate_tasks;
use benu_engine::{
    collect_embeddings, CollectingConsumer, CompiledPlan, FrontierEngine, InMemorySource,
    LocalEngine, MatchSet, MemoryBudget, SearchTask,
};
use benu_graph::{gen, Graph, TotalOrder};
use benu_pattern::{queries, Pattern};
use benu_plan::{ExecutionPlan, PlanBuilder};

const MODES: [ExecMode; 2] = [ExecMode::Dfs, ExecMode::Hybrid];
/// Tasks per chunk: several chunks per run, several tasks per batch.
const CHUNK: usize = 7;

/// Every catalogue pattern's compressed best plan on a graph dense
/// enough to host 5-cliques, plus the nine-leaf star — whose plan,
/// centre first, leaves nine image sets per code — on a sparser one.
fn compressed_plans() -> Vec<(&'static str, Pattern, ExecutionPlan, Graph)> {
    let mut plans: Vec<_> = queries::catalogue()
        .into_iter()
        .map(|(name, pattern)| {
            let plan = PlanBuilder::new(&pattern).compressed(true).best_plan();
            (name, pattern, plan, gen::erdos_renyi_gnm(30, 180, 5))
        })
        .collect();
    let star = queries::star(9);
    let plan = PlanBuilder::new(&star)
        .matching_order((0..10).collect())
        .compressed(true)
        .build();
    plans.push(("star9", star, plan, gen::erdos_renyi_gnm(40, 150, 5)));
    plans
}

fn sorted(mut rows: MatchSet) -> MatchSet {
    rows.sort();
    rows
}

#[test]
fn lane_hand_overs_equal_the_uncompressed_rows() {
    let mut spilled = false;
    for (name, pattern, plan, g) in compressed_plans() {
        let source = InMemorySource::from_graph(&g);
        let order = TotalOrder::new(&g);
        let compiled = CompiledPlan::compile(&plan);
        let info = compiled.expansion.as_ref().expect("a compressed plan");
        spilled |= info.non_cover.len() > 8;
        let expected = collect_embeddings(&PlanBuilder::new(&pattern).best_plan(), &g);
        assert!(!expected.is_empty(), "{name}: the graph must host matches");
        let tasks = generate_tasks(&g, 20, compiled.second_adjacent);
        let lane = |mode| {
            LaneExecutor::new(
                &compiled,
                &source,
                &order,
                1 << 10,
                mode,
                MemoryBudget::unbounded(),
                true,
            )
        };
        for mode in MODES {
            // At the end: one exact buffer, sorted on the lane.
            let mut whole = lane(mode);
            for chunk in tasks.chunks(CHUNK) {
                whole.run(chunk).expect("no panic");
            }
            let finished = whole.finish().1.expect("a collecting lane");
            assert_eq!(finished, expected, "{name}/{mode:?}: finish");
            assert_eq!(finished.len(), expected.len());

            // Per chunk: what each chunk produced, and nothing twice.
            let mut chunked = lane(mode);
            let mut rows = MatchSet::default();
            for chunk in tasks.chunks(CHUNK) {
                let (metrics, _) = chunked.run(chunk).expect("no panic");
                let taken = chunked.take_rows();
                assert_eq!(taken.len() as u64, metrics.matches, "{name}/{mode:?}");
                rows.extend_prefix(&taken, taken.len());
            }
            assert_eq!(sorted(rows), expected, "{name}/{mode:?}: take_rows");
            let left = chunked.finish().1.expect("a collecting lane");
            assert!(left.is_empty(), "{name}/{mode:?}: every row was taken");

            // A discarded chunk is never handed over.
            let mut dropping = lane(mode);
            dropping.run(&tasks).expect("no panic");
            dropping.discard();
            assert!(dropping.take_rows().is_empty(), "{name}/{mode:?}: discard");
        }
    }
    assert!(spilled, "one plan must spill its image sets off the stack");
}

/// Runs `compiled` over `tasks` with data labels, taking the collected
/// rows every [`CHUNK`] tasks.
fn labeled_rows(
    compiled: &CompiledPlan,
    g: &Graph,
    labels: &[u32],
    tasks: &[SearchTask],
    mode: ExecMode,
) -> MatchSet {
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let engine = LocalEngine::new(compiled, &source, &order).with_data_labels(labels);
    let mut frontier = FrontierEngine::new(engine, MemoryBudget::unbounded());
    let mut collecting = CollectingConsumer::new(compiled, &order);
    let mut rows = MatchSet::default();
    for chunk in tasks.chunks(CHUNK) {
        let matches = match mode {
            ExecMode::Dfs => chunk
                .iter()
                .map(|&task| frontier.run_task(task, &mut collecting).matches)
                .sum(),
            ExecMode::Hybrid => frontier.run_batch(chunk, &mut collecting).matches,
        };
        assert_eq!(collecting.embeddings(), matches, "{mode:?}: held = counted");
        let taken = collecting.take_matches();
        rows.extend_prefix(&taken, taken.len());
    }
    sorted(rows)
}

#[test]
fn a_labeled_plans_codes_expand_to_its_uncompressed_rows() {
    let g = gen::erdos_renyi_gnm(40, 160, 3);
    let labels: Vec<u32> = (0..g.num_vertices() as u32)
        .map(|v| (v % 3 == 0).into())
        .collect();
    for (name, base) in [("q1", queries::q1()), ("star9", queries::star(9))] {
        // The last pattern vertex, a non-cover one, is the odd label out.
        let n = base.num_vertices();
        let pattern = base.with_labels((0..n).map(|u| (u == n - 1).into()).collect());
        let order: Vec<usize> = (0..n).collect();
        let build = |compressed| {
            CompiledPlan::compile(
                &PlanBuilder::new(&pattern)
                    .matching_order(order.clone())
                    .compressed(compressed)
                    .build(),
            )
        };
        let (compressed, uncompressed) = (build(true), build(false));
        assert!(compressed.labels.iter().any(Option::is_some));
        let tasks = generate_tasks(&g, 20, compressed.second_adjacent);
        let expected = labeled_rows(&uncompressed, &g, &labels, &tasks, ExecMode::Dfs);
        assert!(!expected.is_empty(), "{name}: the graph must host matches");
        for mode in MODES {
            let got = labeled_rows(&compressed, &g, &labels, &tasks, mode);
            assert_eq!(got, expected, "{name}/{mode:?}");
        }
    }
}
