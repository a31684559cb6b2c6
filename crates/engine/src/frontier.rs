//! Memory-bounded BFS/DFS hybrid execution (HUGE-style, see PAPERS.md).
//!
//! The DFS interpreter in [`exec`](crate::exec) touches the store one
//! `GetAdj` at a time, so no round trip ever serves more than one
//! lookup. The [`FrontierEngine`] instead expands a
//! whole batch of tasks level-synchronously: it keeps a *frontier* of
//! partial embeddings per pattern depth, gathers every adjacency set the
//! next straight-line segment will query across the entire frontier, and
//! issues **one deduplicated [`DataSource::get_adj_batch`] per expansion
//! level** — sibling tasks share hub-vertex fetches. The fetched sets are
//! injected into the engine's adjacency override, so the per-instruction
//! execution (and therefore every [`TaskMetrics`] counter and every
//! reported match) is byte-identical to DFS; only the *order* of subtree
//! exploration and the grouping of store reads change.
//!
//! Frontier state is charged against a [`MemoryBudget`]. When the charge
//! exceeds the budget the engine *spills*: it stops materialising new
//! levels and drains every outstanding entry with the ordinary recursive
//! DFS step machinery. A spill therefore degrades throughput to
//! the DFS baseline but can never abort, and — crucially for crash
//! recovery — a batch always runs to completion before any of its tasks
//! is handed over, so spills land on task boundaries and re-executing
//! whole chunks stays sound.
//!
//! Frozen intermediate buffers are pool-backed: level snapshots freeze
//! the engine's owned `Slot::Buf` registers into shared `Arc`s, and at
//! batch end every buffer that is no longer shared thaws back into the
//! engine's buffer pool.

use crate::compile::{CInstr, CompiledPlan};
use crate::consumer::MatchConsumer;
use crate::exec::{LocalEngine, PoolStats, Slot, StraightEnd, TaskMetrics, UNSET};
use crate::source::DataSource;
use crate::task::SearchTask;
use benu_graph::VertexId;
use std::sync::Arc;

/// Fixed byte charge per frontier entry (the entry struct, its `Arc`
/// and allocator slack), on top of the mapping array's payload.
const ENTRY_OVERHEAD: usize = 48;
/// Fixed byte charge per level snapshot plus a per-slot share for the
/// slot vector itself.
const SNAPSHOT_OVERHEAD: usize = 48;
const SLOT_OVERHEAD: usize = 16;

/// A byte budget for frontier state. `0` means unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBudget {
    limit: usize,
}

impl MemoryBudget {
    /// A budget of `limit` bytes; `0` means unbounded.
    pub fn bytes(limit: usize) -> Self {
        MemoryBudget { limit }
    }

    /// No limit: the frontier never spills.
    pub fn unbounded() -> Self {
        MemoryBudget { limit: 0 }
    }

    /// The configured limit in bytes (`0` = unbounded).
    pub fn limit_bytes(&self) -> usize {
        self.limit
    }

    /// True when `used` bytes exceed the budget.
    pub fn exceeded(&self, used: usize) -> bool {
        self.limit != 0 && used > self.limit
    }
}

/// What the hybrid engine did with its memory: how often it expanded a
/// frontier level with a batched read, how often the budget forced a
/// spill back to DFS, and the largest frontier it ever held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Frontier levels expanded with one deduplicated batched fetch.
    pub expansions: u64,
    /// Task batches that exceeded the budget and drained via DFS.
    pub spill_events: u64,
    /// High-water mark of charged frontier bytes.
    pub peak_bytes: u64,
}

impl std::ops::AddAssign for FrontierStats {
    fn add_assign(&mut self, rhs: Self) {
        self.expansions += rhs.expansions;
        self.spill_events += rhs.spill_events;
        self.peak_bytes = self.peak_bytes.max(rhs.peak_bytes);
    }
}

/// The register file of one frontier level, shared by every child entry
/// forked from the same parent: the interpreter's own [`Slot`]s with
/// every owned buffer frozen into a shared `Slot::Frozen` (charged, and
/// thawed back into the pool at batch end). Adjacency and triangle sets
/// pass through as the `Arc`s they already are.
#[derive(Debug)]
struct Snapshot {
    slots: Vec<Slot>,
}

/// One partial embedding awaiting expansion: a full mapping array plus
/// the shared registers it resumes from. Its depth is implicit — all
/// entries of a level share the same resume pc.
#[derive(Debug)]
struct Entry {
    task_idx: u32,
    f: Vec<VertexId>,
    snap: Arc<Snapshot>,
}

/// Breadth-first driver over a [`LocalEngine`]: executes batches of
/// search tasks level-synchronously with one deduplicated batched store
/// read per expansion level, spilling to plain DFS when the
/// [`MemoryBudget`] is exceeded. Produces byte-identical matches and
/// [`TaskMetrics`] to running each task through [`LocalEngine::run_task`].
pub struct FrontierEngine<'a, S: DataSource + ?Sized> {
    engine: LocalEngine<'a, S>,
    budget: MemoryBudget,
    stats: FrontierStats,
}

impl<'a, S: DataSource + ?Sized> FrontierEngine<'a, S> {
    /// Wraps a configured engine (labels and cache capacities are
    /// inherited) with a frontier byte budget.
    pub fn new(engine: LocalEngine<'a, S>, budget: MemoryBudget) -> Self {
        FrontierEngine {
            engine,
            budget,
            stats: FrontierStats::default(),
        }
    }

    /// Cumulative frontier counters of this engine.
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// Buffer-pool counters of the wrapped engine.
    pub fn pool_stats(&self) -> PoolStats {
        self.engine.pool_stats()
    }

    /// Triangle-cache statistics of the wrapped engine.
    pub fn triangle_cache_stats(&self) -> benu_cache::CacheStats {
        self.engine.triangle_cache_stats()
    }

    /// DBQs the wrapped engine answered from its own adjacency table.
    pub fn adj_table_hits(&self) -> u64 {
        self.engine.adj_table_hits()
    }

    /// Runs one task depth-first on the wrapped interpreter, as
    /// [`LocalEngine::run_task`] does: a task-scoped adjacency table,
    /// point gets, no frontier.
    pub fn run_task(&mut self, task: SearchTask, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        self.engine.run_task(task, consumer)
    }

    /// Runs a batch of tasks breadth-first and reports into `consumer`.
    ///
    /// The batch always runs to completion (spilling to DFS under memory
    /// pressure rather than failing), so callers may book every task as
    /// done afterwards — the spill boundary is always a task boundary.
    pub fn run_batch(
        &mut self,
        tasks: &[SearchTask],
        consumer: &mut dyn MatchConsumer,
    ) -> TaskMetrics {
        let mut metrics = TaskMetrics::default();
        if tasks.is_empty() {
            return metrics;
        }
        // The batch is the unit the engine's adjacency table is scoped to
        // here: `run_task` never runs. It sits behind the override map,
        // so it only ever answers the point gets of a spill drain.
        self.engine.clear_adj_table();
        let plan = self.engine.plan;
        let root_snap = Arc::new(Snapshot {
            slots: (0..plan.num_slots).map(|_| Slot::Empty).collect(),
        });
        // Snapshots stay alive until the batch completes so child levels
        // can share ancestor registers; thawed back into the pool below.
        let mut arena: Vec<Arc<Snapshot>> = vec![Arc::clone(&root_snap)];
        let entry_cost =
            plan.num_pattern_vertices * std::mem::size_of::<VertexId>() + ENTRY_OVERHEAD;
        let snap_cost = SNAPSHOT_OVERHEAD + plan.num_slots * SLOT_OVERHEAD;
        let mut used_bytes = 0usize;
        let mut spilled = false;

        let mut entries: Vec<Entry> = tasks
            .iter()
            .enumerate()
            .map(|(i, _)| Entry {
                task_idx: i as u32,
                f: vec![UNSET; plan.num_pattern_vertices],
                snap: Arc::clone(&root_snap),
            })
            .collect();
        used_bytes += entries.len() * entry_cost;
        let mut pc = 0usize;

        while !entries.is_empty() {
            // One deduplicated batched fetch for everything the segment
            // at `pc` will ask the store for, across the whole frontier.
            let seg_gets = segment_getadj(plan, pc);
            if !seg_gets.is_empty() {
                let mut wanted: Vec<VertexId> = Vec::new();
                for e in &entries {
                    let start = tasks[e.task_idx as usize].start;
                    for &pv in &seg_gets {
                        if e.f[pv] != UNSET {
                            wanted.push(e.f[pv]);
                        } else if pv == plan.start_vertex && self.engine.label_ok(pv, start) {
                            // Root level: `Init` will map the start vertex
                            // before the segment's `GetAdj` reads it.
                            wanted.push(start);
                        }
                    }
                }
                wanted.sort_unstable();
                wanted.dedup();
                if !wanted.is_empty() {
                    self.stats.expansions += 1;
                    let sets = self.engine.source.get_adj_batch(&wanted);
                    self.engine.adj_override.map.clear();
                    self.engine
                        .adj_override
                        .map
                        .extend(wanted.into_iter().zip(sets));
                    self.engine.adj_override.enabled = true;
                }
            }

            let mut next: Vec<Entry> = Vec::new();
            let mut next_pc = pc;
            for e in std::mem::take(&mut entries) {
                let task = tasks[e.task_idx as usize];
                self.load(&e);
                if spilled {
                    // Over budget: drain this entry's whole subtree with
                    // the recursive DFS engine. The batched fetch above
                    // still served this level's reads.
                    self.engine.step(pc, &task, consumer, &mut metrics);
                    continue;
                }
                match self.engine.exec_straight(pc, &task, consumer, &mut metrics) {
                    StraightEnd::Pruned | StraightEnd::Done => {}
                    StraightEnd::Foreach(fpc) => {
                        if !expand_worthwhile(plan, fpc) {
                            // The loop body is fetch-free (typically just
                            // `Report`): iterate it in place instead of
                            // materialising one entry per final candidate.
                            self.engine.step(fpc, &task, consumer, &mut metrics);
                            continue;
                        }
                        let (snap, owned) = self.freeze();
                        used_bytes += owned + snap_cost;
                        let snap = Arc::new(snap);
                        arena.push(Arc::clone(&snap));
                        let CInstr::Foreach { source, .. } = plan.instrs[fpc] else {
                            unreachable!("exec_straight stops only at Foreach")
                        };
                        let items = snap.slots[source].as_slice();
                        self.engine.for_each_candidate(
                            fpc,
                            items,
                            &task,
                            &mut metrics,
                            |engine, _| {
                                used_bytes += entry_cost;
                                next.push(Entry {
                                    task_idx: e.task_idx,
                                    f: engine.f.clone(),
                                    snap: Arc::clone(&snap),
                                });
                            },
                        );
                        next_pc = fpc + 1;
                        if !spilled && self.budget.exceeded(used_bytes) {
                            spilled = true;
                            self.stats.spill_events += 1;
                        }
                    }
                }
            }
            self.stats.peak_bytes = self.stats.peak_bytes.max(used_bytes as u64);
            entries = next;
            pc = next_pc;
        }

        self.engine.adj_override.enabled = false;
        self.engine.adj_override.map.clear();
        // Thaw: every frozen buffer nobody shares any more goes back to
        // the engine's pool. Child snapshots hold clones of ancestor
        // arcs, so popping newest-first releases them in one sweep.
        while let Some(snap) = arena.pop() {
            if let Ok(snap) = Arc::try_unwrap(snap) {
                for slot in snap.slots {
                    if let Slot::Frozen(buf) = slot {
                        if let Ok(buf) = Arc::try_unwrap(buf) {
                            self.engine.pool_put(buf);
                        }
                    }
                }
            }
        }
        metrics
    }

    /// Restores an entry's execution state into the engine.
    fn load(&mut self, e: &Entry) {
        self.engine.f.copy_from_slice(&e.f);
        for (i, slot) in e.snap.slots.iter().enumerate() {
            // `set_slot` recycles any displaced owned buffer.
            self.engine.set_slot(i, slot.share());
        }
    }

    /// Freezes the engine's register file into a shareable snapshot,
    /// returning it with the bytes newly charged for promoted buffers.
    fn freeze(&mut self) -> (Snapshot, usize) {
        let mut owned = 0usize;
        let slots = self
            .engine
            .slots
            .iter_mut()
            .map(|s| match std::mem::take(s) {
                Slot::Buf(v) => {
                    owned += v.len() * std::mem::size_of::<VertexId>();
                    Slot::Frozen(Arc::new(v))
                }
                shared => shared,
            })
            .collect();
        (Snapshot { slots }, owned)
    }
}

/// Pattern vertices whose adjacency the straight-line segment starting
/// at `pc` fetches.
fn segment_getadj(plan: &CompiledPlan, pc: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for instr in &plan.instrs[pc..] {
        match instr {
            CInstr::GetAdj { vertex, .. } => out.push(*vertex),
            CInstr::Foreach { .. } => break,
            _ => {}
        }
    }
    out
}

/// True when materialising the candidates of the `Foreach` at `fpc` as a
/// frontier level can save store traffic: the loop body either fetches
/// adjacency itself or opens a deeper loop that will. A fetch-free body
/// (the innermost level of uncompressed plans — just `Report`) is
/// cheaper to run in place.
fn expand_worthwhile(plan: &CompiledPlan, fpc: usize) -> bool {
    plan.instrs[fpc + 1..]
        .iter()
        .any(|i| matches!(i, CInstr::Foreach { .. } | CInstr::GetAdj { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledPlan;
    use crate::consumer::{CollectingConsumer, CountingConsumer};
    use crate::matches::MatchSet;
    use crate::source::{InMemorySource, KvSource};
    use benu_cache::DbCache;
    use benu_graph::{gen, Graph, TotalOrder};
    use benu_kvstore::KvStore;
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    fn catalogue_plans() -> Vec<(&'static str, benu_plan::ExecutionPlan)> {
        // Fig. 3e: the one catalogue plan whose TCache sits under another
        // loop and carries filters.
        let demo = PlanBuilder::new(&queries::demo_pattern())
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        assert_eq!(demo.count_kind(benu_plan::ir::InstrKind::Trc), 2);
        vec![
            ("q5", PlanBuilder::new(&queries::q5()).best_plan()),
            (
                "triangle/compressed",
                PlanBuilder::new(&queries::triangle())
                    .compressed(true)
                    .best_plan(),
            ),
            ("demo/trc", demo),
        ]
    }

    fn dfs_run(
        compiled: &CompiledPlan,
        g: &Graph,
        tasks: &[SearchTask],
    ) -> (TaskMetrics, MatchSet) {
        let source = InMemorySource::from_graph(g);
        let order = TotalOrder::new(g);
        let mut engine = LocalEngine::new(compiled, &source, &order);
        let mut c = CollectingConsumer::new(compiled, &order);
        let mut total = TaskMetrics::default();
        for &t in tasks {
            total += engine.run_task(t, &mut c);
        }
        let mut m = c.take_matches();
        m.sort();
        (total, m)
    }

    fn frontier_run(
        compiled: &CompiledPlan,
        g: &Graph,
        tasks: &[SearchTask],
        budget: MemoryBudget,
    ) -> (TaskMetrics, MatchSet, FrontierStats) {
        let source = InMemorySource::from_graph(g);
        let order = TotalOrder::new(g);
        let engine = LocalEngine::new(compiled, &source, &order);
        let mut fe = FrontierEngine::new(engine, budget);
        let mut c = CollectingConsumer::new(compiled, &order);
        let metrics = fe.run_batch(tasks, &mut c);
        let mut m = c.take_matches();
        m.sort();
        (metrics, m, fe.stats())
    }

    #[test]
    fn frontier_is_byte_identical_to_dfs_across_budgets() {
        let g = gen::erdos_renyi_gnm(50, 200, 7);
        for (name, plan) in catalogue_plans() {
            let compiled = CompiledPlan::compile(&plan);
            let tasks = crate::task::generate_tasks(&g, 5, compiled.second_adjacent);
            let (dm, dmatches) = dfs_run(&compiled, &g, &tasks);
            for (label, budget) in [
                ("unbounded", MemoryBudget::unbounded()),
                ("medium", MemoryBudget::bytes(64 << 10)),
                ("tiny", MemoryBudget::bytes(256)),
            ] {
                let (fm, fmatches, stats) = frontier_run(&compiled, &g, &tasks, budget);
                assert_eq!(fm, dm, "{name}/{label}: metrics diverge from DFS");
                assert_eq!(fmatches, dmatches, "{name}/{label}: match sets diverge");
                if budget.limit_bytes() == 0 {
                    assert_eq!(stats.spill_events, 0, "{name}: unbounded must not spill");
                }
            }
        }
    }

    #[test]
    fn tiny_budget_spills_but_completes() {
        let g = gen::barabasi_albert(120, 4, 5);
        let plan = PlanBuilder::new(&queries::q5()).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let tasks = crate::task::generate_tasks(&g, 5, compiled.second_adjacent);
        let (dm, dmatches) = dfs_run(&compiled, &g, &tasks);
        let (fm, fmatches, stats) = frontier_run(&compiled, &g, &tasks, MemoryBudget::bytes(512));
        assert!(stats.spill_events > 0, "512 B must force a spill");
        assert!(stats.peak_bytes > 0);
        assert_eq!(fm, dm);
        assert_eq!(fmatches, dmatches);
    }

    #[test]
    fn frontier_replay_is_deterministic() {
        let g = gen::barabasi_albert(100, 3, 9);
        let plan = PlanBuilder::new(&queries::q5()).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let tasks = crate::task::generate_tasks(&g, 5, compiled.second_adjacent);
        let budget = MemoryBudget::bytes(8 << 10);
        let (m1, x1, s1) = frontier_run(&compiled, &g, &tasks, budget);
        let (m2, x2, s2) = frontier_run(&compiled, &g, &tasks, budget);
        assert_eq!(m1, m2);
        assert_eq!(x1, x2);
        assert_eq!(s1, s2, "frontier/spill report must replay identically");
    }

    #[test]
    fn labeled_plans_agree_with_dfs() {
        let g = gen::erdos_renyi_gnm(40, 160, 11);
        let data_labels: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let p = queries::triangle().with_labels(vec![0, 1, 2]);
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let tasks = crate::task::generate_tasks(&g, 0, compiled.second_adjacent);

        let source = InMemorySource::from_graph(&g);
        let order = TotalOrder::new(&g);
        let mut dfs = LocalEngine::new(&compiled, &source, &order).with_data_labels(&data_labels);
        let mut cd = CountingConsumer::default();
        let mut dm = TaskMetrics::default();
        for &t in &tasks {
            dm += dfs.run_task(t, &mut cd);
        }

        let engine = LocalEngine::new(&compiled, &source, &order).with_data_labels(&data_labels);
        let mut fe = FrontierEngine::new(engine, MemoryBudget::unbounded());
        let mut cf = CountingConsumer::default();
        let fm = fe.run_batch(&tasks, &mut cf);
        assert_eq!(fm, dm, "labeled metrics diverge");
    }

    #[test]
    fn frontier_batches_cut_store_round_trips() {
        let g = gen::barabasi_albert(150, 4, 3);
        let plan = PlanBuilder::new(&queries::q5()).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let order = TotalOrder::new(&g);
        let tasks = crate::task::generate_tasks(&g, 0, compiled.second_adjacent);

        let dfs_store = Arc::new(KvStore::from_graph(&g, 4));
        let dfs_src = KvSource::new(Arc::clone(&dfs_store), Arc::new(DbCache::new(0, 1)));
        let mut dfs = LocalEngine::new(&compiled, &dfs_src, &order);
        let mut cd = CountingConsumer::default();
        let mut dm = TaskMetrics::default();
        for &t in &tasks {
            dm += dfs.run_task(t, &mut cd);
        }

        let fr_store = Arc::new(KvStore::from_graph(&g, 4));
        let fr_src = KvSource::new(Arc::clone(&fr_store), Arc::new(DbCache::new(0, 1)));
        let engine = LocalEngine::new(&compiled, &fr_src, &order);
        let mut fe = FrontierEngine::new(engine, MemoryBudget::unbounded());
        let mut cf = CountingConsumer::default();
        let fm = fe.run_batch(&tasks, &mut cf);

        assert_eq!(fm, dm, "kv-backed frontier diverges from DFS");
        let (d, f) = (dfs_store.stats(), fr_store.stats());
        assert!(
            f.requests < d.requests / 4,
            "batching should collapse round trips: dfs {} vs frontier {}",
            d.requests,
            f.requests
        );
        assert!(
            f.keys <= d.keys,
            "deduplicated levels fetch no more keys than DFS"
        );
    }

    #[test]
    fn pool_backed_buffers_thaw_at_batch_end() {
        let g = gen::erdos_renyi_gnm(60, 250, 3);
        let plan = PlanBuilder::new(&queries::q5()).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = TotalOrder::new(&g);
        let engine = LocalEngine::new(&compiled, &source, &order);
        let mut fe = FrontierEngine::new(engine, MemoryBudget::unbounded());
        let tasks = crate::task::generate_tasks(&g, 0, compiled.second_adjacent);
        let mut c = CountingConsumer::default();
        fe.run_batch(&tasks, &mut c);
        let warm = fe.pool_stats();
        assert!(warm.returns > 0, "thaw must return buffers: {warm:?}");
        // A second batch reuses the thawed capacity instead of allocating.
        fe.run_batch(&tasks, &mut c);
        let steady = fe.pool_stats();
        assert!(steady.hits > warm.hits, "thawed buffers must be reused");
    }
}
