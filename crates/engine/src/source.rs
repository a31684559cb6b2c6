//! Adjacency-set data sources for the engine.
//!
//! A `GetAdj` (DBQ) instruction resolves through a [`DataSource`]. Two
//! implementations are provided:
//!
//! * [`InMemorySource`] — the whole graph pinned in memory, no accounting;
//!   used by tests, examples and the single-machine baselines.
//! * [`KvSource`] — the paper's architecture: a shared [`DbCache`] in
//!   front of the sharded [`KvStore`]; every cache miss is a counted
//!   database query (the communication-cost metric).

use benu_cache::DbCache;
use benu_graph::{AdjSet, Graph, VertexId};
use benu_kvstore::KvStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resolves adjacency sets for DBQ instructions. Implementations must be
/// shareable across worker threads.
pub trait DataSource: Sync {
    /// Number of vertices in the data graph (`V(G)` for `AllVertices`
    /// operands).
    fn num_vertices(&self) -> usize;

    /// The adjacency set of `v`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `v` is not a vertex of the data graph
    /// (plans only query mapped vertices, which always exist).
    fn get_adj(&self, v: VertexId) -> Arc<AdjSet>;

    /// The adjacency sets of `vs`, in order. The default resolves each
    /// vertex with [`DataSource::get_adj`]; batched backends override this
    /// to group the lookups into fewer round trips (e.g. one per store
    /// shard), which is how frontier prefetching stays cheap.
    fn get_adj_batch(&self, vs: &[VertexId]) -> Vec<Arc<AdjSet>> {
        vs.iter().map(|&v| self.get_adj(v)).collect()
    }

    /// A stamp that stands while every set this source handed out would
    /// still be answered without a store read (for a cache-fronted
    /// source, [`DbCache::residency_epoch`]). The engine answers a
    /// task's repeated DBQ from the handle it already holds only under
    /// the stamp the handle was fetched under, so its handles never
    /// stand in for cache capacity the source does not have. A source
    /// that evicts nothing — or a wrapper that only observes — keeps the
    /// default.
    fn residency_epoch(&self) -> u64 {
        0
    }
}

/// The whole data graph resident in memory as shared adjacency sets.
#[derive(Debug)]
pub struct InMemorySource {
    adj: Vec<Arc<AdjSet>>,
}

impl InMemorySource {
    /// Materialises every adjacency set of `g`, building the bitset-block
    /// sidecar for dense vertices (the same per-vertex representation
    /// decision the distributed store makes at decode time).
    pub fn from_graph(g: &Graph) -> Self {
        InMemorySource {
            adj: g
                .vertices()
                .map(|v| Arc::new(g.adj_set(v).with_blocks(benu_graph::DENSE_BLOCK_THRESHOLD)))
                .collect(),
        }
    }
}

impl DataSource for InMemorySource {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
        Arc::clone(&self.adj[v as usize])
    }
}

/// The distributed-database stack: per-machine cache over the sharded
/// store.
///
/// A vertex the store does not hold is *not* a panic: both the single-get
/// and the batched path record it in a first-missing slot (mirroring the
/// cluster worker's structured `MissingVertex` error path) and answer
/// with an empty adjacency set, so a corrupted load degrades into a
/// checkable error instead of aborting the process mid-batch. Callers
/// that care must check [`KvSource::first_missing`] after a run.
pub struct KvSource {
    store: Arc<KvStore>,
    cache: Arc<DbCache>,
    /// First vertex observed missing (`MISSING_NONE` when clean).
    first_missing: AtomicU64,
}

const MISSING_NONE: u64 = u64::MAX;

impl KvSource {
    /// Fronts `store` with `cache`.
    pub fn new(store: Arc<KvStore>, cache: Arc<DbCache>) -> Self {
        KvSource {
            store,
            cache,
            first_missing: AtomicU64::new(MISSING_NONE),
        }
    }

    /// The cache (for stats inspection).
    pub fn cache(&self) -> &DbCache {
        &self.cache
    }

    /// The store (for stats inspection).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The first vertex any lookup found missing from the store, if any.
    /// Single-get and batched lookups share this path, so prefetch-style
    /// batching cannot change how corruption surfaces.
    pub fn first_missing(&self) -> Option<VertexId> {
        match self.first_missing.load(Ordering::Acquire) {
            MISSING_NONE => None,
            v => Some(v as VertexId),
        }
    }

    /// Shared missing-vertex path: record the first offender, answer an
    /// empty set.
    fn missing(&self, v: VertexId) -> Arc<AdjSet> {
        let _ = self.first_missing.compare_exchange(
            MISSING_NONE,
            v as u64,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        Arc::new(AdjSet::new())
    }
}

impl DataSource for KvSource {
    fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
        let store = &self.store;
        match self.cache.get_or_fetch(v, || store.get(v).ok_or(())) {
            Ok(adj) => adj,
            Err(()) => self.missing(v),
        }
    }

    fn get_adj_batch(&self, vs: &[VertexId]) -> Vec<Arc<AdjSet>> {
        let mut out: Vec<Option<Arc<AdjSet>>> = vec![None; vs.len()];
        let mut missing_slots = Vec::new();
        let mut missing_keys = Vec::new();
        for (i, &v) in vs.iter().enumerate() {
            match self.cache.get(v) {
                Some(adj) => out[i] = Some(adj),
                None => {
                    missing_slots.push(i);
                    missing_keys.push(v);
                }
            }
        }
        if !missing_keys.is_empty() {
            let batch = self.store.get_many(&missing_keys);
            for (j, value) in batch.values.into_iter().enumerate() {
                out[missing_slots[j]] = Some(match value {
                    Some(adj) => {
                        self.cache.insert(missing_keys[j], Arc::clone(&adj));
                        adj
                    }
                    None => self.missing(missing_keys[j]),
                });
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every slot filled"))
            .collect()
    }

    fn residency_epoch(&self) -> u64 {
        self.cache.residency_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    #[test]
    fn in_memory_source_matches_graph() {
        let g = gen::cycle(6);
        let src = InMemorySource::from_graph(&g);
        assert_eq!(src.num_vertices(), 6);
        for v in g.vertices() {
            assert_eq!(src.get_adj(v).as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn kv_source_counts_misses_only() {
        let g = gen::complete(5);
        let store = Arc::new(KvStore::from_graph(&g, 2));
        let cache = Arc::new(DbCache::new(1 << 16, 2));
        let src = KvSource::new(Arc::clone(&store), Arc::clone(&cache));
        for _ in 0..3 {
            src.get_adj(0);
        }
        assert_eq!(store.stats().requests, 1, "two hits served by the cache");
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn kv_source_batch_groups_round_trips_and_warms_the_cache() {
        let g = gen::complete(6);
        let store = Arc::new(KvStore::from_graph(&g, 3));
        let cache = Arc::new(DbCache::new(1 << 16, 2));
        let src = KvSource::new(Arc::clone(&store), Arc::clone(&cache));
        let all: Vec<VertexId> = g.vertices().collect();
        let sets = src.get_adj_batch(&all);
        for (&v, adj) in all.iter().zip(&sets) {
            assert_eq!(adj.as_slice(), g.neighbors(v));
        }
        let cold = store.stats();
        assert_eq!(cold.requests, 3, "one round trip per touched shard");
        assert_eq!(cold.keys, 6);
        // A second batch is fully served by the cache.
        src.get_adj_batch(&all);
        assert_eq!(store.stats().requests, cold.requests);
    }

    #[test]
    fn kv_source_batch_with_repeated_ids_stays_aligned_and_dedups() {
        let g = gen::complete(6);
        let store = Arc::new(KvStore::from_graph(&g, 3));
        // Cache disabled: every occurrence reaches the store's batch path.
        let src = KvSource::new(Arc::clone(&store), Arc::new(DbCache::new(0, 1)));
        let keys = [5u32, 2, 5, 5, 2, 0];
        let sets = src.get_adj_batch(&keys);
        for (i, &v) in keys.iter().enumerate() {
            assert_eq!(
                sets[i].as_slice(),
                g.neighbors(v),
                "slot {i} must still hold vertex {v}"
            );
        }
        let stats = store.stats();
        assert_eq!(stats.keys, 3, "hub repeats are served once");
        assert_eq!(stats.deduped_keys, 3, "saved lookups are counted");
    }

    #[test]
    fn default_batch_matches_single_gets() {
        let g = gen::cycle(5);
        let src = InMemorySource::from_graph(&g);
        let sets = src.get_adj_batch(&[4, 0, 2]);
        assert_eq!(sets[0].as_slice(), g.neighbors(4));
        assert_eq!(sets[1].as_slice(), g.neighbors(0));
        assert_eq!(sets[2].as_slice(), g.neighbors(2));
    }

    #[test]
    fn missing_vertex_is_structured_not_a_panic_in_both_paths() {
        let g = gen::complete(6);
        let mut store = KvStore::from_graph(&g, 3);
        assert!(store.remove_vertex(4), "corrupt the store");
        let store = Arc::new(store);

        // Single-get path.
        let src = KvSource::new(Arc::clone(&store), Arc::new(DbCache::new(1 << 16, 2)));
        assert!(src.first_missing().is_none());
        let adj = src.get_adj(4);
        assert!(adj.is_empty(), "missing vertex answers the empty set");
        assert_eq!(src.first_missing(), Some(4));

        // Batched path: identical behaviour, same structured surface.
        let src2 = KvSource::new(Arc::clone(&store), Arc::new(DbCache::new(1 << 16, 2)));
        let sets = src2.get_adj_batch(&[0, 4, 5]);
        assert_eq!(sets[0].as_slice(), g.neighbors(0));
        assert!(sets[1].is_empty());
        assert_eq!(sets[2].as_slice(), g.neighbors(5));
        assert_eq!(src2.first_missing(), Some(4));

        // The first offender is kept, later ones don't overwrite it.
        src2.get_adj(4);
        assert_eq!(src2.first_missing(), Some(4));
    }

    #[test]
    fn kv_source_with_disabled_cache_hits_store_every_time() {
        let g = gen::complete(4);
        let store = Arc::new(KvStore::from_graph(&g, 1));
        let cache = Arc::new(DbCache::new(0, 1));
        let src = KvSource::new(Arc::clone(&store), cache);
        src.get_adj(1);
        src.get_adj(1);
        assert_eq!(store.stats().requests, 2);
    }
}
