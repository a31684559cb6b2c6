//! The resident deployment: one loaded data graph, owned once.
//!
//! BENU has exactly one data plane (paper §III, Fig. 2): the data graph
//! sharded into an adjacency store, one database cache per worker
//! machine in front of it, and a task list split at τ (§V-B). A
//! [`Resident`] is that plane, loaded — the store, the total order and
//! degree array task generation and symmetry breaking read, and the
//! per-worker cache tier. Both fronts are clients of it: the batch
//! [`crate::Cluster`] turns a plan into one job on the lane pool
//! ([`crate::pool`]), `benu-service` admits one per query and adds
//! admission and a commit pipeline. Everything that touches what is
//! resident goes through here — loading ([`Resident::load`]), the chaos
//! hook ([`Resident::corrupt`]), fault gates ([`Resident::gate`]), the
//! §V-B task split ([`Resident::tasks`]) and lane construction
//! ([`Resident::executor`]) — so the two cannot drift apart on any of
//! it.

use crate::config::DataPath;
use crate::gate::FaultGate;
use crate::transport::Transport;
use crate::worker::LaneExecutor;
use benu_cache::DbCache;
use benu_engine::task::{auto_tau, generate_tasks_from_degrees};
use benu_engine::{CompiledPlan, DataSource, MemoryBudget, SearchTask};
use benu_fault::FaultPlan;
use benu_graph::{Graph, TotalOrder};
use benu_kvstore::KvStore;
use std::sync::Arc;

/// How [`Resident::tasks`] picks the §V-B split threshold.
#[derive(Clone, Copy, Debug)]
pub enum Split {
    /// Split at the static degree threshold τ (0 disables splitting).
    Fixed(usize),
    /// Pick τ adaptively from the start-vertex degree distribution for
    /// `lanes` execution lanes (`benu_engine::task::auto_tau`).
    Auto {
        /// Execution lanes the extra-subtask budget is sized for.
        lanes: usize,
    },
}

/// A loaded deployment (see the module docs). Caches are created once
/// and persist for the deployment's lifetime — the paper's long-lived
/// per-machine database cache.
pub struct Resident {
    store: Arc<KvStore>,
    order: TotalOrder,
    degrees: Vec<u32>,
    num_edges: usize,
    caches: Vec<Arc<DbCache>>,
    data: DataPath,
}

impl Resident {
    /// Loads `g` into a store of `shards` shards (Algorithm 2 line 1 —
    /// the pattern-independent preprocessing) laid out and encoded per
    /// `data`, and creates one database cache of `cache_shards` internal
    /// shards per worker. The store's and the caches' counts are read
    /// from [`KvStore::stats`] and [`DbCache::stats`].
    ///
    /// # Panics
    ///
    /// Panics (in the store's loader) on a replication factor outside
    /// `1..=shards`; both configs' `validate` reject it earlier.
    pub fn load(
        g: &Graph,
        shards: usize,
        workers: usize,
        data: &DataPath,
        cache_shards: usize,
    ) -> Self {
        let store = KvStore::from_graph_with(g, shards, data.replication, data.codec);
        let caches = (0..workers)
            .map(|_| Arc::new(DbCache::new(data.cache_capacity_bytes, cache_shards)))
            .collect();
        Resident {
            store: Arc::new(store),
            order: TotalOrder::new(g),
            degrees: g.vertices().map(|v| g.degree(v) as u32).collect(),
            num_edges: g.num_edges(),
            caches,
            data: *data,
        }
    }

    /// The sharded store (for layout, capacity and size queries).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// `degrees()[v]` is the degree of data vertex `v`.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Edge count of the loaded graph (plan-cost statistics).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The persistent per-worker database caches.
    pub fn caches(&self) -> &[Arc<DbCache>] {
        &self.caches
    }

    /// The data-plane configuration the deployment was loaded with.
    pub fn data(&self) -> &DataPath {
        &self.data
    }

    /// Chaos hook: applies `rot` to the loaded store while the degree
    /// array (and thus every task list) still describes the intact graph
    /// — the store-vs-graph disagreement the `FetchError::Missing` /
    /// `FetchError::Corrupt` causes of a [`crate::Failure`] exist to
    /// surface.
    ///
    /// # Panics
    ///
    /// Panics unless the store is exclusively owned: no transport or
    /// gate alive, i.e. between cluster runs or before a service starts.
    pub fn corrupt(&mut self, rot: impl FnOnce(&mut KvStore)) {
        rot(Arc::get_mut(&mut self.store)
            .expect("corrupting the store requires exclusive access (no run in flight)"));
    }

    /// Drops every cached adjacency set and resets the cache counters —
    /// the cold-cache starting point. Warmth is otherwise deliberate.
    pub fn clear_caches(&self) {
        for cache in &self.caches {
            cache.clear();
        }
    }

    /// A fresh, zeroed transport to the store.
    pub fn transport(&self) -> Transport {
        Transport::new(Arc::clone(&self.store))
    }

    /// A fault gate deciding `plan` over the store's layout, retrying
    /// per the plan's own policy.
    pub fn gate(&self, plan: Arc<FaultPlan>) -> FaultGate {
        FaultGate::new(Arc::clone(&self.store), plan)
    }

    /// Generates the (split) task list for a compiled plan through the
    /// engine's single §V-B implementation, returning the tasks and the
    /// threshold τ actually used. A plan without a second pattern vertex
    /// has no candidate set to divide and is never split (τ = 0). Pure
    /// function of `(degrees, plan shape, split)`.
    pub fn tasks(&self, compiled: &CompiledPlan, split: Split) -> (Vec<SearchTask>, usize) {
        let second_adjacent = compiled.second_adjacent;
        let tau = match split {
            _ if compiled.second_vertex.is_none() => 0,
            Split::Fixed(tau) => tau,
            Split::Auto { lanes } => auto_tau(&self.degrees, lanes, second_adjacent),
        };
        let tasks = generate_tasks_from_degrees(&self.degrees, tau, second_adjacent);
        (tasks, tau)
    }

    /// One execution lane over `source` in the deployment's
    /// [`DataPath::exec_mode`]. `sharers` is how many lanes share
    /// [`DataPath::memory_budget_bytes`] — a worker machine's threads in
    /// a batch run, the pool's workers in the service — and the lane
    /// gets an even share; `collect` switches from counting matches to
    /// materialising them.
    pub fn executor<'a, S: DataSource + ?Sized>(
        &'a self,
        compiled: &'a CompiledPlan,
        source: &'a S,
        triangle_cache_entries: usize,
        sharers: usize,
        collect: bool,
    ) -> LaneExecutor<'a, S> {
        LaneExecutor::new(
            compiled,
            source,
            &self.order,
            triangle_cache_entries,
            self.data.exec_mode,
            lane_budget(self.data.memory_budget_bytes, sharers),
            collect,
        )
    }
}

/// One lane's even share of a frontier byte budget split across `lanes`
/// concurrent executors. `0` stays `0` (unbounded); any other budget
/// keeps at least one byte per lane, because a share that
/// integer-divides to zero would read as *unbounded* — the tightest
/// budget must stay the tightest.
fn lane_budget(memory_budget_bytes: usize, lanes: usize) -> MemoryBudget {
    if memory_budget_bytes == 0 {
        return MemoryBudget::unbounded();
    }
    MemoryBudget::bytes((memory_budget_bytes / lanes.max(1)).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    fn load(g: &Graph, shards: usize, data: &DataPath) -> Resident {
        Resident::load(g, shards, 2, data, 2)
    }

    #[test]
    fn lane_budget_never_rounds_a_real_budget_down_to_unbounded() {
        assert_eq!(lane_budget(0, 4), MemoryBudget::unbounded());
        assert_eq!(lane_budget(1 << 20, 4).limit_bytes(), 1 << 18);
        assert_eq!(lane_budget(1, 2).limit_bytes(), 1);
        assert_eq!(lane_budget(3, 0).limit_bytes(), 3);
    }

    #[test]
    fn load_lays_the_store_out_per_the_data_path() {
        let g = gen::barabasi_albert(60, 3, 5);
        let data = DataPath {
            replication: 2,
            codec: benu_kvstore::CodecKind::DeltaVarint,
            ..DataPath::default()
        };
        let r = load(&g, 3, &data);
        assert_eq!(r.store().num_shards(), 3);
        assert_eq!(r.store().replication(), 2);
        assert_eq!(r.store().codec(), data.codec);
        assert_eq!(r.store().num_vertices(), g.num_vertices());
        assert_eq!(r.degrees().len(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.caches().len(), 2);
        assert_eq!(r.data(), &data);
    }

    #[test]
    fn split_policies_pick_the_threshold_the_engine_would() {
        let g = gen::star(200);
        let r = load(&g, 2, &DataPath::default());
        let triangle = CompiledPlan::compile(&PlanBuilder::new(&queries::triangle()).best_plan());
        let (unsplit, tau) = r.tasks(&triangle, Split::Fixed(0));
        assert_eq!((unsplit.len(), tau), (g.num_vertices(), 0));
        let (fixed, tau) = r.tasks(&triangle, Split::Fixed(10));
        assert_eq!(tau, 10);
        assert!(fixed.len() > unsplit.len(), "the hub must split");
        let (auto, tau) = r.tasks(&triangle, Split::Auto { lanes: 8 });
        assert_eq!(
            tau,
            benu_engine::task::auto_tau(r.degrees(), 8, triangle.second_adjacent)
        );
        assert!(auto.len() > unsplit.len());
    }

    #[test]
    fn corrupt_needs_exclusive_access_and_leaves_the_task_list_alone() {
        let g = gen::complete(5);
        let mut r = load(&g, 2, &DataPath::default());
        r.corrupt(|store| assert!(store.remove_vertex(3)));
        r.corrupt(|store| assert!(!store.remove_vertex(3), "already gone"));
        assert_eq!(r.degrees().len(), 5, "task list unchanged");
        assert!(r.store().get_unaccounted(3).is_none());
    }
}
