//! The backtracking interpreter (paper Algorithm 1/2 with BENU plans).
//!
//! Execution walks the compiled instruction list; every `Foreach` opens a
//! nested loop realised as recursion. Two properties keep the hot path
//! allocation-free and faithful to the paper:
//!
//! * intersection targets write into per-register scratch buffers that are
//!   reused across executions (take/put-back around recursion);
//! * an empty intersection result aborts the current branch immediately —
//!   the "doomed-to-fail partial match" pruning that motivates on-demand
//!   shuffling.
//!
//! Three things keep the loop down to the paper's own work (DESIGN.md
//! §4f). Filters run as one rank `Window` folded per execution, not as
//! a condition list walked per element. The `tail` forms marked by
//! [`crate::compile`] are counted instead of looped whenever the
//! consumer takes no matches — every [`TaskMetrics`] counter reads what
//! the loop would have written. And a DBQ for a vertex the running task
//! already fetched is answered from the engine's own `AdjTable`
//! without touching the shared database cache.

use crate::compile::{CFilters, CInstr, COperand, CompiledPlan};
use crate::consumer::{Code, MatchConsumer};
use crate::expand;
use crate::source::DataSource;
use crate::task::SearchTask;
use benu_cache::TriangleCache;
use benu_graph::view;
use benu_graph::{AdjSet, AdjView, TotalOrder, VertexId};
use std::ops::Range;
use std::sync::Arc;

/// Marker for an unmapped pattern vertex.
pub(crate) const UNSET: VertexId = VertexId::MAX;

/// Default capacity of the per-thread triangle cache (entries).
pub const DEFAULT_TRIANGLE_CACHE_ENTRIES: usize = 1 << 14;

/// Image sets of a compressed code whose slices `report` holds on the
/// stack. Only a plan with more non-cover vertices — a pattern of ten or
/// more — pays a vector per code for them.
const INLINE_IMAGES: usize = 8;

/// Per-run metrics accumulated by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Embeddings found (expanded count for compressed plans).
    pub matches: u64,
    /// Compressed codes emitted (zero for uncompressed plans).
    pub codes: u64,
    /// Bytes of compressed output (helve vertices + image-set entries,
    /// 4 bytes each); the "output size" lever of VCBC.
    pub code_bytes: u64,
    /// DBQ instruction executions (cache hits included).
    pub dbq_executions: u64,
    /// INT instruction executions.
    pub int_executions: u64,
    /// TRC instruction executions.
    pub trc_executions: u64,
    /// Candidate vertices iterated by ENU (`Foreach`) loops — the raw
    /// backtracking branch count before label filtering.
    pub enu_candidates: u64,
    /// Per-instruction observed cardinalities, indexed by the compiled
    /// plan's instruction slot (`CInstr` and `Instruction` indices align
    /// one-to-one). Deterministic and cache/pooling-independent: cache
    /// hits record the same output sizes a cold execution would. Feeds
    /// [`benu_plan::FeedbackEstimator`].
    pub obs: benu_plan::PlanObs,
}

impl std::ops::AddAssign for TaskMetrics {
    fn add_assign(&mut self, rhs: Self) {
        self.matches += rhs.matches;
        self.codes += rhs.codes;
        self.code_bytes += rhs.code_bytes;
        self.dbq_executions += rhs.dbq_executions;
        self.int_executions += rhs.int_executions;
        self.trc_executions += rhs.trc_executions;
        self.enu_candidates += rhs.enu_candidates;
        self.obs += rhs.obs;
    }
}

/// Effectiveness counters of the per-engine execution buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served by a recycled buffer (no allocation).
    pub hits: u64,
    /// `take` calls that allocated a fresh buffer (pool empty).
    pub misses: u64,
    /// Buffers handed back for reuse.
    pub returns: u64,
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.returns += rhs.returns;
    }
}

/// A free-list of `Vec<VertexId>` buffers recycled across instructions
/// and tasks, so the steady-state hot loop performs no allocation: every
/// displaced `Slot::Buf` returns here instead of being dropped, and
/// every take reuses a previous buffer's capacity.
#[derive(Debug, Default)]
struct BufferPool {
    free: Vec<Vec<VertexId>>,
    stats: PoolStats,
}

impl BufferPool {
    fn take(&mut self) -> Vec<VertexId> {
        if let Some(mut buf) = self.free.pop() {
            self.stats.hits += 1;
            buf.clear();
            return buf;
        }
        self.stats.misses += 1;
        Vec::new()
    }

    fn put(&mut self, buf: Vec<VertexId>) {
        if buf.capacity() > 0 {
            self.stats.returns += 1;
            self.free.push(buf);
        }
    }
}

/// One execution's fold of an instruction's [`CFilters`] under the
/// current partial mapping: `x` passes iff `lo ≤ rank(x) < hi` and it
/// differs from every `not_equal` mapping — one rank load and two
/// compares per element however many order conditions the plan carries.
/// Built over the borrowed pieces it reads (`order`, `f`), so callers can
/// run it while other engine fields — a cache, the slot file — are
/// mutably borrowed.
struct Window<'a> {
    order: &'a TotalOrder,
    f: &'a [VertexId],
    not_equal: &'a [usize],
    lo: u32,
    hi: u32,
}

impl<'a> Window<'a> {
    fn fold(order: &'a TotalOrder, f: &'a [VertexId], filters: &'a CFilters) -> Self {
        // Ranks are distinct and below `u32::MAX` (`VertexId::MAX` is
        // `UNSET`), so `rank + 1` cannot overflow and the open upper end
        // admits every vertex.
        let rank = |&v: &usize| order.rank(f[v]);
        Window {
            order,
            f,
            not_equal: filters.not_equal(),
            lo: (filters.greater().iter())
                .map(|v| rank(v) + 1)
                .max()
                .unwrap_or(0),
            hi: filters.less().iter().map(rank).min().unwrap_or(u32::MAX),
        }
    }

    #[inline]
    fn admits(&self, x: VertexId) -> bool {
        let r = self.order.rank(x);
        self.lo <= r && r < self.hi && self.not_equal.iter().all(|&v| self.f[v] != x)
    }
}

/// The candidates an ENU iterates out of `len`: the task's slice of them
/// at the split point, all of them everywhere else.
#[inline]
fn enu_range(is_second: bool, task: &SearchTask, len: usize) -> Range<usize> {
    match (is_second, task.split) {
        (true, Some(split)) => split.range(len),
        _ => 0..len,
    }
}

/// Entries of the [`AdjTable`], sized on the ledger's `clique_dense`
/// (280 hot vertices, 98.7 % of DBQs repeat one the task holds):
/// halving it costs a tenth of a repetition's time, doubling it buys 2 %.
const ADJ_TABLE_ENTRIES: usize = 32;

/// The adjacency sets the running task already holds: a direct-mapped
/// table of `Arc` handles in front of the data source, owned by the
/// engine and emptied at every task start. Backtracking re-issues a DBQ
/// for the same data vertex once per enclosing branch; answering the
/// repeat here costs no shard lock, no LRU splice and no write to memory
/// another thread reads.
///
/// A repeat is answered only under the [`DataSource::residency_epoch`]
/// its handle was fetched under: once the source's cache evicts (or
/// declines to keep) anything, the table is dropped and the lookups go
/// back to the cache. So a table hit is always a lookup the database
/// cache would have hit — `hits` is added to that tier's count when the
/// lane finishes — and the table never stands in for capacity the cache
/// does not have: what is fetched from the store is what would be
/// without it.
#[derive(Debug, Default)]
struct AdjTable {
    entries: [Option<(VertexId, Arc<AdjSet>)>; ADJ_TABLE_ENTRIES],
    epoch: u64,
    hits: u64,
}

impl AdjTable {
    fn clear(&mut self) {
        self.entries.fill(None);
    }

    #[inline]
    fn get_or_fetch<S: DataSource + ?Sized>(&mut self, v: VertexId, source: &S) -> Arc<AdjSet> {
        let epoch = source.residency_epoch();
        if epoch != self.epoch {
            self.clear();
            self.epoch = epoch;
        }
        // Indexed by the low id bits: a neighbourhood's ids spread evenly
        // over them (a multiplicative hash left 29 % more of
        // `clique_dense`'s repeats to the shared cache).
        let entry = &mut self.entries[v as usize % ADJ_TABLE_ENTRIES];
        match entry {
            Some((held, adj)) if *held == v => {
                self.hits += 1;
                Arc::clone(adj)
            }
            _ => {
                // Kept under the stamp read above: if this very fetch
                // evicts, the next lookup sees the newer stamp.
                let adj = source.get_adj(v);
                *entry = Some((v, Arc::clone(&adj)));
                adj
            }
        }
    }
}

/// A register slot holding a set value.
#[derive(Debug, Default)]
pub(crate) enum Slot {
    /// Not yet computed on this path.
    #[default]
    Empty,
    /// Owned intersection result (reusable buffer).
    Buf(Vec<VertexId>),
    /// Shared adjacency set from the data source.
    Adj(Arc<AdjSet>),
    /// Shared triangle set from the triangle cache.
    Tri(Arc<[VertexId]>),
    /// A frontier level's frozen intersection result, shared by the
    /// level's entries (see [`crate::frontier`]).
    Frozen(Arc<Vec<VertexId>>),
}

impl Slot {
    /// A second handle on a shared value, for loading a frontier
    /// snapshot back into the slot file.
    ///
    /// # Panics
    ///
    /// On `Buf`: an owned buffer has one holder, and snapshots freeze
    /// every one of them.
    pub(crate) fn share(&self) -> Slot {
        match self {
            Slot::Empty => Slot::Empty,
            Slot::Buf(_) => panic!("snapshots hold no owned buffer"),
            Slot::Adj(a) => Slot::Adj(Arc::clone(a)),
            Slot::Tri(t) => Slot::Tri(Arc::clone(t)),
            Slot::Frozen(v) => Slot::Frozen(Arc::clone(v)),
        }
    }

    pub(crate) fn as_slice(&self) -> &[VertexId] {
        match self {
            Slot::Empty => panic!("read of undefined register (plan validated, so this is a bug)"),
            Slot::Buf(v) => v,
            Slot::Adj(a) => a.as_slice(),
            Slot::Tri(t) => t,
            Slot::Frozen(v) => v,
        }
    }

    /// The dual-representation borrow: adjacency slots expose their
    /// block sidecar (when the store built one) so intersections can
    /// dispatch to the block-wise kernels; owned buffers and triangle
    /// sets are slice-only.
    pub(crate) fn as_view(&self) -> AdjView<'_> {
        match self {
            Slot::Adj(a) => a.view(),
            other => AdjView::from_slice(other.as_slice()),
        }
    }
}

/// Batched adjacency answers injected ahead of the data source by the
/// frontier driver ([`crate::frontier::FrontierEngine`]): while enabled,
/// a `GetAdj` whose data vertex is present in the map is served from it
/// instead of issuing a per-vertex source lookup. Disabled (the DFS
/// default), the hot path pays one predictable branch and nothing else.
///
/// It stays a map beside the [`AdjTable`] rather than one structure with
/// it because it must be lossless: a level's vertex that a direct-mapped
/// table had dropped would fall through to a point get, and the store
/// round trips of a hybrid run would no longer be the batched reads'.
#[derive(Debug, Default)]
pub(crate) struct AdjOverride {
    pub(crate) map: std::collections::HashMap<VertexId, Arc<AdjSet>>,
    pub(crate) enabled: bool,
}

/// How a straight-line segment of the plan ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StraightEnd {
    /// An intersection came up empty or the start vertex failed its
    /// label: the partial match is doomed, backtrack.
    Pruned,
    /// The segment ran to the end of the plan (any `Report` executed).
    Done,
    /// Execution stopped *at* a `Foreach` (not executed); the pc of that
    /// instruction is returned so the caller decides how to iterate it —
    /// recursively (DFS) or by materialising the candidates into a
    /// frontier level (BFS).
    Foreach(usize),
}

/// A single-threaded executor bound to one compiled plan, one data source
/// and one total order. One engine per worker thread; the triangle cache
/// it owns is exactly the paper's per-thread TRC cache.
pub struct LocalEngine<'a, S: DataSource + ?Sized> {
    pub(crate) plan: &'a CompiledPlan,
    pub(crate) source: &'a S,
    order: &'a TotalOrder,
    tcache: TriangleCache,
    data_labels: Option<&'a [u32]>,
    label_scratch: Vec<Vec<VertexId>>,
    count_scratch: expand::CountScratch,
    pub(crate) f: Vec<VertexId>,
    pub(crate) slots: Vec<Slot>,
    scratch: Vec<VertexId>,
    scratch2: Vec<VertexId>,
    expand_f: Vec<VertexId>,
    pool: BufferPool,
    pub(crate) adj_override: AdjOverride,
    adj_table: AdjTable,
    /// Reusable operand-register index buffer (`Intersect`).
    operand_regs: Vec<usize>,
    /// Reusable smallest-first ordering buffer for `intersect_many_by`.
    order_buf: Vec<usize>,
}

impl<'a, S: DataSource + ?Sized> LocalEngine<'a, S> {
    /// Creates an engine with the default triangle-cache capacity.
    pub fn new(plan: &'a CompiledPlan, source: &'a S, order: &'a TotalOrder) -> Self {
        Self::with_triangle_cache(plan, source, order, DEFAULT_TRIANGLE_CACHE_ENTRIES)
    }

    /// Creates an engine with an explicit triangle-cache capacity
    /// (0 disables caching but TRC instructions still compute correctly).
    pub fn with_triangle_cache(
        plan: &'a CompiledPlan,
        source: &'a S,
        order: &'a TotalOrder,
        tcache_entries: usize,
    ) -> Self {
        // Pre-size the small index buffers from plan metadata so even
        // their first use allocates nothing mid-task.
        let max_arity = plan
            .instrs
            .iter()
            .map(|instr| match instr {
                CInstr::Intersect { operands, .. } => operands.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        LocalEngine {
            plan,
            source,
            order,
            tcache: TriangleCache::new(tcache_entries),
            data_labels: None,
            label_scratch: Vec::new(),
            count_scratch: expand::CountScratch::default(),
            f: vec![UNSET; plan.num_pattern_vertices],
            slots: (0..plan.num_slots).map(|_| Slot::Empty).collect(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
            expand_f: vec![UNSET; plan.num_pattern_vertices],
            pool: BufferPool::default(),
            adj_override: AdjOverride::default(),
            adj_table: AdjTable::default(),
            operand_regs: Vec::with_capacity(max_arity),
            order_buf: Vec::with_capacity(max_arity),
        }
    }

    /// Buffer-pool effectiveness counters for this engine.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats
    }

    /// Attaches per-data-vertex labels (property-graph extension): a
    /// labeled pattern vertex only matches data vertices carrying the
    /// same label.
    ///
    /// # Panics
    ///
    /// Panics later at task execution if the plan is labeled and no data
    /// labels were provided.
    pub fn with_data_labels(mut self, labels: &'a [u32]) -> Self {
        self.data_labels = Some(labels);
        self
    }

    /// True when data vertex `x` is an admissible image of pattern vertex
    /// `u` under the label constraints.
    #[inline]
    pub(crate) fn label_ok(&self, u: usize, x: VertexId) -> bool {
        match self.plan.labels[u] {
            None => true,
            Some(need) => {
                let labels = self
                    .data_labels
                    .expect("labeled plan requires data labels (with_data_labels)");
                labels[x as usize] == need
            }
        }
    }

    /// DBQs this engine answered from its task-scoped `AdjTable`
    /// instead of the data source: hits of the database-cache tier that
    /// the shared cache never saw.
    pub fn adj_table_hits(&self) -> u64 {
        self.adj_table.hits
    }

    /// Forgets the adjacency sets held for the previous task (or, under
    /// the frontier driver, batch).
    pub(crate) fn clear_adj_table(&mut self) {
        self.adj_table.clear();
    }

    /// Runs one local search task, reporting into `consumer`.
    pub fn run_task(&mut self, task: SearchTask, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        let mut metrics = TaskMetrics::default();
        self.f.fill(UNSET);
        self.adj_table.clear();
        // Return the previous task's owned buffers to the pool: every
        // plan writes a register before reading it, so the slot file
        // carries no live state across tasks — only reusable capacity,
        // which the pool hands back to this task's first takes.
        self.recycle_slots();
        self.step(0, &task, consumer, &mut metrics);
        metrics
    }

    fn recycle_slots(&mut self) {
        for slot in &mut self.slots {
            if matches!(slot, Slot::Buf(_)) {
                if let Slot::Buf(b) = std::mem::take(slot) {
                    self.pool.put(b);
                }
            }
        }
    }

    /// Hands a no-longer-shared buffer back to the pool (the frontier
    /// driver recycles thawed level buffers through here, keeping the
    /// BFS expansion pool-backed like the DFS slot file).
    pub(crate) fn pool_put(&mut self, buf: Vec<VertexId>) {
        self.pool.put(buf);
    }

    /// Runs an unsplit task for every data vertex (the sequential version
    /// of Algorithm 2's parallel loop).
    pub fn run_all_vertices(&mut self, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        let mut total = TaskMetrics::default();
        for v in 0..self.source.num_vertices() as VertexId {
            total += self.run_task(SearchTask::whole(v), consumer);
        }
        total
    }

    /// Triangle-cache statistics of this engine's thread.
    pub fn triangle_cache_stats(&self) -> benu_cache::CacheStats {
        self.tcache.stats()
    }

    /// Stores `value` into the slot file, recycling any displaced owned
    /// buffer through the pool instead of dropping it.
    #[inline]
    pub(crate) fn set_slot(&mut self, target: usize, value: Slot) {
        if let Slot::Buf(b) = std::mem::replace(&mut self.slots[target], value) {
            self.pool.put(b);
        }
    }

    /// Executes instructions from `pc` to the end (recursing at each
    /// `Foreach`). Returns early when an intersection comes up empty.
    pub(crate) fn step(
        &mut self,
        pc: usize,
        task: &SearchTask,
        consumer: &mut dyn MatchConsumer,
        metrics: &mut TaskMetrics,
    ) {
        match self.exec_straight(pc, task, consumer, metrics) {
            StraightEnd::Pruned | StraightEnd::Done => {}
            StraightEnd::Foreach(fpc) => {
                let CInstr::Foreach {
                    source,
                    is_second,
                    tail,
                    ..
                } = self.plan.instrs[fpc]
                else {
                    unreachable!("exec_straight stops only at Foreach")
                };
                if tail && !consumer.needs_matches() {
                    let len = self.slots[source].as_slice().len();
                    count_tail_enu(fpc, is_second, task, len, metrics);
                    return;
                }
                // Take the candidate set out of its slot for the
                // duration of the loop; nothing below reads it (its
                // only other possible reader is RES in compressed
                // plans, where this vertex has no Foreach at all).
                let slot = std::mem::take(&mut self.slots[source]);
                self.for_each_candidate(fpc, slot.as_slice(), task, metrics, |engine, metrics| {
                    engine.step(fpc + 1, task, consumer, metrics)
                });
                self.slots[source] = slot;
            }
        }
    }

    /// Iterates the `Foreach` at `fpc` over `items`: the task's range of
    /// them, label-checked, each survivor mapped into `f` before `body`
    /// runs — the recursion under DFS, a new frontier entry under the
    /// hybrid driver. The ENU's counters are kept here for both.
    #[inline]
    pub(crate) fn for_each_candidate(
        &mut self,
        fpc: usize,
        items: &[VertexId],
        task: &SearchTask,
        metrics: &mut TaskMetrics,
        mut body: impl FnMut(&mut Self, &mut TaskMetrics),
    ) {
        let CInstr::Foreach {
            vertex, is_second, ..
        } = self.plan.instrs[fpc]
        else {
            unreachable!("candidates are iterated at a Foreach")
        };
        let items = &items[enu_range(is_second, task, items.len())];
        let considered = items.len() as u64;
        metrics.enu_candidates += considered;
        let mut survivors = 0u64;
        for &x in items {
            if !self.label_ok(vertex, x) {
                continue;
            }
            survivors += 1;
            self.f[vertex] = x;
            body(self, metrics);
        }
        self.f[vertex] = UNSET;
        metrics.obs.record(fpc, considered, survivors);
    }

    /// Executes the straight-line segment starting at `pc`: every
    /// instruction up to (but not including) the next `Foreach`, or to
    /// the end of the plan. This is the resumable core both execution
    /// strategies share — [`LocalEngine::step`] recurses at the returned
    /// `Foreach`, the frontier engine materialises its candidates
    /// breadth-first instead.
    pub(crate) fn exec_straight(
        &mut self,
        mut pc: usize,
        task: &SearchTask,
        consumer: &mut dyn MatchConsumer,
        metrics: &mut TaskMetrics,
    ) -> StraightEnd {
        // Copy the plan reference out of `self` so matching on
        // instructions does not hold a borrow of the whole engine.
        let plan = self.plan;
        while pc < plan.instrs.len() {
            match &plan.instrs[pc] {
                CInstr::Init { vertex } => {
                    if !self.label_ok(*vertex, task.start) {
                        return StraightEnd::Pruned; // the start vertex cannot host this task
                    }
                    self.f[*vertex] = task.start;
                }
                CInstr::GetAdj { vertex, target } => {
                    metrics.dbq_executions += 1;
                    let v = self.f[*vertex];
                    debug_assert_ne!(v, UNSET);
                    let batched = match self.adj_override.enabled {
                        true => self.adj_override.map.get(&v),
                        false => None,
                    };
                    let adj = match batched {
                        Some(adj) => Arc::clone(adj),
                        None => self.adj_table.get_or_fetch(v, self.source),
                    };
                    metrics.obs.record(pc, 1, adj.as_slice().len() as u64);
                    self.set_slot(*target, Slot::Adj(adj));
                }
                CInstr::Intersect {
                    target,
                    operands,
                    filters,
                    tail,
                } => {
                    metrics.int_executions += 1;
                    if *tail && !consumer.needs_matches() {
                        // `C := INT(T)[filters] ; ENU(C) ; RES`: count
                        // the passing elements, write nothing.
                        let COperand::Reg(t) = operands[0] else {
                            unreachable!("tail INT has one register operand")
                        };
                        let window = Window::fold(self.order, &self.f, filters);
                        let items = self.slots[t].as_slice();
                        let passing = items.iter().filter(|&&x| window.admits(x)).count();
                        metrics.obs.record(pc, 1, passing as u64);
                        if passing == 0 {
                            return StraightEnd::Pruned;
                        }
                        let CInstr::Foreach { is_second, .. } = &plan.instrs[pc + 1] else {
                            unreachable!("tail INT feeds the tail ENU")
                        };
                        count_tail_enu(pc + 1, *is_second, task, passing, metrics);
                        return StraightEnd::Done;
                    }
                    let target = *target;
                    let mut buf = match std::mem::take(&mut self.slots[target]) {
                        Slot::Buf(b) => b,
                        _ => self.pool.take(),
                    };
                    self.compute_intersection(operands, filters, &mut buf);
                    let empty = buf.is_empty();
                    metrics.obs.record(pc, 1, buf.len() as u64);
                    self.slots[target] = Slot::Buf(buf);
                    if empty {
                        return StraightEnd::Pruned; // failed partial match: backtrack
                    }
                }
                CInstr::TCache {
                    a,
                    b,
                    a_reg,
                    b_reg,
                    target,
                    filters,
                } => {
                    metrics.trc_executions += 1;
                    let (va, vb) = (self.f[*a], self.f[*b]);
                    let target = *target;
                    // The cache stores the raw triangle set; filters are
                    // applied per use because they depend on other
                    // mappings. Misses intersect through the views
                    // (block kernels when a dense operand is present).
                    let empty = if filters.is_empty() {
                        let (a_view, b_view) =
                            (self.slots[*a_reg].as_view(), self.slots[*b_reg].as_view());
                        let tri = self.tcache.get_or_compute(va, vb, |out| {
                            view::intersect_into(a_view, b_view, out)
                        });
                        let empty = tri.is_empty();
                        metrics.obs.record(pc, 1, tri.len() as u64);
                        self.set_slot(target, Slot::Tri(tri));
                        empty
                    } else {
                        // The filtered copy only reads the triangle set,
                        // so borrow it from the cache instead of cloning
                        // the Arc. Target never aliases an operand
                        // register (the Intersect arm relies on the same
                        // compile invariant), so the buffer can be taken
                        // up front.
                        let mut buf = match std::mem::take(&mut self.slots[target]) {
                            Slot::Buf(b) => b,
                            _ => self.pool.take(),
                        };
                        let (a_view, b_view) =
                            (self.slots[*a_reg].as_view(), self.slots[*b_reg].as_view());
                        let window = Window::fold(self.order, &self.f, filters);
                        let empty = self.tcache.with_or_compute(
                            va,
                            vb,
                            |out| view::intersect_into(a_view, b_view, out),
                            |tri| {
                                buf.clear();
                                buf.extend(tri.iter().filter(|&&x| window.admits(x)));
                                buf.is_empty()
                            },
                        );
                        metrics.obs.record(pc, 1, buf.len() as u64);
                        self.slots[target] = Slot::Buf(buf);
                        empty
                    };
                    if empty {
                        return StraightEnd::Pruned;
                    }
                }
                CInstr::Foreach { .. } => {
                    // The caller owns loop strategy; everything from here
                    // on is the loop body.
                    return StraightEnd::Foreach(pc);
                }
                CInstr::Report => {
                    self.report(consumer, metrics);
                }
            }
            pc += 1;
        }
        StraightEnd::Done
    }

    fn compute_intersection(
        &mut self,
        operands: &[COperand],
        filters: &CFilters,
        buf: &mut Vec<VertexId>,
    ) {
        buf.clear();
        let window = Window::fold(self.order, &self.f, filters);
        // Operand registers go into a reusable index buffer
        // and the kernels address the slot file through it, so no
        // per-execution `Vec<&[VertexId]>` exists.
        self.operand_regs.clear();
        for op in operands {
            if let COperand::Reg(r) = op {
                self.operand_regs.push(*r);
            }
        }
        match self.operand_regs.len() {
            0 => {
                // Pure V(G) scan with filters.
                let all = 0..self.source.num_vertices() as VertexId;
                buf.extend(all.filter(|&x| window.admits(x)));
            }
            1 => {
                let items = self.slots[self.operand_regs[0]].as_slice();
                buf.extend(items.iter().filter(|&&x| window.admits(x)));
            }
            k => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut order_buf = std::mem::take(&mut self.order_buf);
                if filters.is_empty() {
                    let slots = &self.slots;
                    let oregs = &self.operand_regs;
                    view::intersect_many_by(
                        k,
                        |i| slots[oregs[i]].as_view(),
                        &mut order_buf,
                        buf,
                        &mut scratch,
                    );
                } else {
                    let mut scratch2 = std::mem::take(&mut self.scratch2);
                    {
                        let slots = &self.slots;
                        let oregs = &self.operand_regs;
                        view::intersect_many_by(
                            k,
                            |i| slots[oregs[i]].as_view(),
                            &mut order_buf,
                            &mut scratch,
                            &mut scratch2,
                        );
                    }
                    buf.extend(scratch.iter().filter(|&&x| window.admits(x)));
                    self.scratch2 = scratch2;
                }
                self.scratch = scratch;
                self.order_buf = order_buf;
            }
        }
    }

    fn report(&mut self, consumer: &mut dyn MatchConsumer, metrics: &mut TaskMetrics) {
        let plan = self.plan;
        match &plan.expansion {
            None => {
                metrics.matches += 1;
                if consumer.needs_matches() {
                    consumer.on_match(&self.f);
                }
            }
            Some(info) => {
                // Label-filter the image sets of labeled non-cover
                // vertices into scratch buffers.
                let mut label_scratch = std::mem::take(&mut self.label_scratch);
                let mut count_scratch = std::mem::take(&mut self.count_scratch);
                label_scratch.resize_with(info.non_cover.len(), Vec::new);
                for (t, &r) in info.image_reg.iter().enumerate() {
                    let raw = self.slots[r].as_slice();
                    let u = info.non_cover[t];
                    if plan.labels[u].is_some() {
                        let buf = &mut label_scratch[t];
                        buf.clear();
                        for &x in raw {
                            if self.label_ok(u, x) {
                                buf.push(x);
                            }
                        }
                    }
                }
                // The slices borrow the slot file, so they cannot be kept
                // in the engine between codes: they sit on the stack.
                let mut inline: [&[VertexId]; INLINE_IMAGES] = [&[]; INLINE_IMAGES];
                let mut spilled = Vec::new();
                let images: &mut [&[VertexId]] = match inline.get_mut(..info.image_reg.len()) {
                    Some(images) => images,
                    None => {
                        spilled.resize(info.image_reg.len(), &[][..]);
                        &mut spilled
                    }
                };
                for (t, &r) in info.image_reg.iter().enumerate() {
                    let u = info.non_cover[t];
                    images[t] = if plan.labels[u].is_some() {
                        &label_scratch[t]
                    } else {
                        self.slots[r].as_slice()
                    };
                }
                // Instruction-level pruning already rejects empty image
                // sets, so every emitted code encodes ≥ 0 embeddings.
                let count =
                    expand::count_code_embeddings(info, images, self.order, &mut count_scratch);
                if count > 0 {
                    metrics.codes += 1;
                    metrics.matches += count;
                    let helve_len = plan.num_pattern_vertices - info.non_cover.len();
                    let image_entries: usize = images.iter().map(|s| s.len()).sum();
                    metrics.code_bytes += (4 * (helve_len + image_entries)) as u64;
                    if consumer.needs_matches() {
                        self.expand_f.copy_from_slice(&self.f);
                        consumer.on_code(Code {
                            info,
                            order: self.order,
                            images,
                            count,
                            f: &mut self.expand_f,
                        });
                    }
                }
                self.label_scratch = label_scratch;
                self.count_scratch = count_scratch;
            }
        }
    }
}

/// The `ENU ; RES` tail counted instead of looped: over `len` candidates
/// of an unlabeled vertex every considered candidate survives and
/// reports exactly one match, so each counter advances by the
/// (split-respecting) range length — what the loop would have written.
fn count_tail_enu(
    fpc: usize,
    is_second: bool,
    task: &SearchTask,
    len: usize,
    metrics: &mut TaskMetrics,
) {
    let considered = enu_range(is_second, task, len).len() as u64;
    metrics.enu_candidates += considered;
    metrics.matches += considered;
    metrics.obs.record(fpc, considered, considered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledPlan;
    use crate::consumer::{CollectingConsumer, CountingConsumer};
    use crate::source::InMemorySource;
    use benu_graph::{gen, Graph};
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    fn count(pattern: &benu_pattern::Pattern, g: &Graph) -> u64 {
        let plan = PlanBuilder::new(pattern).best_plan();
        crate::count_embeddings(&plan, g)
    }

    #[test]
    fn triangles_in_k5() {
        assert_eq!(count(&queries::triangle(), &gen::complete(5)), 10);
    }

    #[test]
    fn k4_in_k6() {
        assert_eq!(count(&queries::clique(4), &gen::complete(6)), 15); // C(6,4)
    }

    #[test]
    fn squares_in_k4() {
        // K4 contains 3 distinct 4-cycles.
        assert_eq!(count(&queries::square(), &gen::complete(4)), 3);
    }

    #[test]
    fn cycle5_in_c5_is_unique() {
        assert_eq!(count(&queries::q5(), &gen::cycle(5)), 1);
    }

    #[test]
    fn no_triangles_in_bipartite_grid() {
        assert_eq!(count(&queries::triangle(), &gen::grid(4, 4)), 0);
    }

    #[test]
    fn demo_pattern_is_found_in_demo_graph() {
        let g = Graph::from_edges(queries::demo_data_edges());
        let p = queries::demo_pattern();
        let n = count(&p, &g);
        assert!(n >= 1, "the paper's f' match must be found");
    }

    #[test]
    fn compressed_and_uncompressed_counts_agree() {
        let g = gen::erdos_renyi_gnm(60, 250, 3);
        for (name, p) in queries::catalogue() {
            let plain = PlanBuilder::new(&p).best_plan();
            let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
            assert_eq!(
                crate::count_embeddings(&plain, &g),
                crate::count_embeddings(&compressed, &g),
                "{name}: VCBC changed the embedding count"
            );
        }
    }

    #[test]
    fn compressed_expansion_yields_same_match_set() {
        let g = gen::erdos_renyi_gnm(40, 140, 8);
        let p = queries::q1();
        let plain = PlanBuilder::new(&p).best_plan();
        let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
        assert_eq!(
            crate::collect_embeddings(&plain, &g),
            crate::collect_embeddings(&compressed, &g)
        );
    }

    #[test]
    fn split_tasks_partition_the_work() {
        let g = gen::barabasi_albert(120, 4, 5);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);

        // Whole-graph count via unsplit tasks.
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer::default();
        let whole = engine.run_all_vertices(&mut c).matches;

        // Same count via split tasks with τ = 5.
        let tasks = crate::task::generate_tasks(&g, 5, compiled.second_adjacent);
        assert!(tasks.len() > g.num_vertices(), "hubs actually split");
        let mut split_total = 0u64;
        for t in tasks {
            split_total += engine.run_task(t, &mut c).matches;
        }
        assert_eq!(whole, split_total);
    }

    #[test]
    fn metrics_count_instruction_executions() {
        let g = gen::complete(4);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p)
            .optimizations(benu_plan::optimize::OptLevel::Raw)
            .matching_order(vec![0, 1, 2])
            .build();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer::default();
        let m = engine.run_all_vertices(&mut c);
        assert_eq!(m.matches, 4); // 4 triangles in K4
        assert!(m.dbq_executions > 0);
        assert!(m.int_executions > 0);
        assert!(
            m.enu_candidates >= m.matches,
            "every match consumed at least one ENU candidate"
        );
    }

    #[test]
    fn triangle_cache_hits_across_tasks() {
        let g = gen::complete(8);
        // The demo pattern's plan nests TCache(f1, f5) inside the loop
        // over f3, so the same (f1, f5) key recurs across branches — the
        // intra-task reuse Optimization 3 exists for.
        let p = queries::demo_pattern();
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        let compiled = CompiledPlan::compile(&plan);
        assert!(
            compiled
                .kind_counts()
                .contains_key(&benu_plan::ir::InstrKind::Trc),
            "the demo plan uses the triangle cache"
        );
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer::default();
        engine.run_all_vertices(&mut c);
        assert!(engine.triangle_cache_stats().hits > 0);
    }

    #[test]
    fn collecting_consumer_sees_expanded_matches() {
        let g = gen::complete(5);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).compressed(true).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CollectingConsumer::new(&compiled, &order);
        let m = engine.run_all_vertices(&mut c);
        assert_eq!(m.matches, 10);
        assert_eq!(c.embeddings(), 10);
        assert!(m.codes > 0 && m.codes <= 10, "codes compress the output");
        for matched in c.take_matches().rows() {
            // Every reported triple really is a triangle.
            assert!(g.has_edge(matched[0], matched[1]));
            assert!(g.has_edge(matched[1], matched[2]));
            assert!(g.has_edge(matched[0], matched[2]));
        }
    }

    #[test]
    fn buffers_cycle_through_the_pool_across_tasks() {
        let g = gen::erdos_renyi_gnm(60, 250, 3);
        let p = queries::q5();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer::default();
        engine.run_all_vertices(&mut c);
        let warm = engine.pool_stats();
        assert!(
            warm.hits > 0,
            "buffers must cycle through the pool: {warm:?}"
        );
        assert!(warm.returns > 0, "task boundaries return buffers: {warm:?}");
        // Steady state: a second pass over the same tasks allocates no new
        // buffers — every take is a pool hit.
        engine.run_all_vertices(&mut c);
        let steady = engine.pool_stats();
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state takes must all be pool hits"
        );
        assert!(steady.hits > warm.hits);
    }

    #[test]
    fn cold_and_warm_pool_runs_match_the_reference_enumerator() {
        let g = gen::erdos_renyi_gnm(50, 200, 7);
        // Fig. 3e: the one catalogue plan whose TCache sits under another
        // loop and carries filters.
        let demo = PlanBuilder::new(&queries::demo_pattern())
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        assert_eq!(demo.count_kind(benu_plan::ir::InstrKind::Trc), 2);
        let plans = [
            (
                "q5",
                queries::q5(),
                PlanBuilder::new(&queries::q5()).best_plan(),
            ),
            (
                "triangle/compressed",
                queries::triangle(),
                PlanBuilder::new(&queries::triangle())
                    .compressed(true)
                    .best_plan(),
            ),
            ("demo/trc", queries::demo_pattern(), demo),
        ];
        for (name, pattern, plan) in plans {
            let compiled = CompiledPlan::compile(&plan);
            let source = InMemorySource::from_graph(&g);
            let order = benu_graph::TotalOrder::new(&g);
            let expected = crate::reference::enumerate(&g, &pattern, &plan.symmetry);

            // First pass: every buffer take misses an empty pool.
            let mut engine = LocalEngine::new(&compiled, &source, &order);
            let mut cold = CollectingConsumer::new(&compiled, &order);
            let m_cold = engine.run_all_vertices(&mut cold);
            // Second pass on the same engine: takes are served from the
            // recycled buffers; nothing observable may change.
            let mut warm = CollectingConsumer::new(&compiled, &order);
            let m_warm = engine.run_all_vertices(&mut warm);

            assert_eq!(m_cold, m_warm, "{name}: metrics diverge cold vs warm pool");
            for (pass, mut consumer) in [("cold", cold), ("warm", warm)] {
                let mut got = consumer.take_matches();
                got.sort();
                assert_eq!(
                    got.to_vecs(),
                    expected,
                    "{name}/{pass}: diverges from reference"
                );
            }
        }
    }

    /// The graph's adjacency as plain sorted runs: no block sidecar, so
    /// every intersection over it takes the scalar kernels.
    struct SliceOnlySource<'g>(&'g Graph);

    impl DataSource for SliceOnlySource<'_> {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }

        fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
            Arc::new(self.0.adj_set(v))
        }
    }

    #[test]
    fn block_kernels_engage_on_dense_graphs_and_stay_byte_identical() {
        // Hub degrees far past DENSE_BLOCK_THRESHOLD, so over the blocked
        // source the engine's intersections actually cross the
        // slice×bitset and bitset×bitset kernels, while the block-less
        // source keeps the same engine on the scalar merge — the
        // representation crossing must be invisible.
        let g = gen::barabasi_albert(120, 20, 17);
        let blocked = InMemorySource::from_graph(&g);
        let scalar = SliceOnlySource(&g);
        let dense = (0..g.num_vertices() as VertexId)
            .filter(|&v| blocked.get_adj(v).has_blocks())
            .count();
        assert!(dense > 0, "no vertex reached the block threshold");
        assert!((0..g.num_vertices() as VertexId).all(|v| !scalar.get_adj(v).has_blocks()));
        for (name, plan) in [
            (
                "triangle",
                PlanBuilder::new(&queries::triangle()).best_plan(),
            ),
            ("clique4", PlanBuilder::new(&queries::clique(4)).best_plan()),
        ] {
            let compiled = CompiledPlan::compile(&plan);
            let order = benu_graph::TotalOrder::new(&g);
            let mut on_blocks = LocalEngine::new(&compiled, &blocked, &order);
            let mut cb = CollectingConsumer::new(&compiled, &order);
            let mb = on_blocks.run_all_vertices(&mut cb);
            let mut on_slices = LocalEngine::new(&compiled, &scalar, &order);
            let mut cs = CollectingConsumer::new(&compiled, &order);
            let ms = on_slices.run_all_vertices(&mut cs);
            assert_eq!(mb, ms, "{name}: metrics diverge across kernels");
            let mut eb = cb.take_matches();
            let mut es = cs.take_matches();
            eb.sort();
            es.sort();
            assert_eq!(eb, es, "{name}: block kernels changed the match set");
        }
    }
}
