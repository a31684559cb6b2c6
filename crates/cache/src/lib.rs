//! Caching layers of BENU's efficient implementation (paper §V-A).
//!
//! * [`DbCache`] — the per-machine in-memory *database cache* holding
//!   adjacency sets fetched from the distributed store. Shared by all
//!   worker threads of a machine, byte-budgeted, LRU-evicted; it exploits
//!   both intra-task locality (backtracking revisits the same
//!   neighbourhood) and inter-task locality (hot high-degree vertices are
//!   queried by many tasks) to trade memory for communication. The
//!   engine answers a task's repeats of its *own* fetches from a
//!   task-scoped table in front of this cache — only while
//!   [`DbCache::residency_epoch`] says nothing was evicted since — and
//!   reports them as this tier's hits (DESIGN.md §4f), so the probes
//!   that reach the shards are first touches and cross-task reuse; the
//!   hit / miss / eviction counters live in the shards, under the locks
//!   those probes hold.
//! * [`TriangleCache`] — the per-thread cache behind TRC instructions,
//!   keyed by a data edge `[f_i, f_j]` and holding the triangle set
//!   `Γ(f_i) ∩ Γ(f_j)`.
//! * [`lru::Lru`] — the shared LRU core, cost-budgeted with per-entry
//!   costs (bytes for adjacency sets, entry counts for triangles).

pub mod lru;

use benu_graph::{AdjSet, VertexId};
use benu_obs::safe_ratio;
use lru::Lru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fixed per-entry bookkeeping overhead charged against the byte budget
/// (key + pointers + map slot), so a cache full of tiny sets cannot hold
/// an unbounded number of entries.
pub const ENTRY_OVERHEAD_BYTES: usize = 48;

/// Snapshot of cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache was never queried (the
    /// workspace-wide [`safe_ratio`] convention — never NaN or ∞).
    pub fn hit_rate(&self) -> f64 {
        safe_ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
    }
}

/// One lock's worth of the database cache: its slice of the key space
/// and the probes that landed on it.
#[derive(Debug)]
struct Shard {
    lru: Lru<VertexId, Arc<AdjSet>>,
    stats: CacheStats,
}

/// The per-machine database cache: a sharded, byte-budgeted LRU over
/// adjacency sets, safe to share across worker threads.
///
/// The effectiveness counters are sharded with the keys and live under
/// the shard locks: a probe already owns its shard's lock and writes its
/// LRU links, so counting there is a plain add on memory the probe holds
/// anyway, and probes of different shards write no common cache line.
#[derive(Debug)]
pub struct DbCache {
    shards: Vec<Mutex<Shard>>,
    /// Bumped whenever a set handed to [`DbCache::insert`] stops being
    /// (or never becomes) resident; see [`DbCache::residency_epoch`].
    epoch: AtomicU64,
}

impl DbCache {
    /// Creates a cache with a total byte budget split evenly across
    /// `num_shards` internal shards (shard count only affects lock
    /// contention, not semantics). A zero budget disables caching: every
    /// lookup misses and nothing is retained.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(capacity_bytes: usize, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let per_shard = capacity_bytes / num_shards;
        DbCache {
            shards: (0..num_shards)
                .map(|_| {
                    Mutex::new(Shard {
                        lru: Lru::new(per_shard as u64),
                        stats: CacheStats::default(),
                    })
                })
                .collect(),
            epoch: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, v: VertexId) -> usize {
        // Multiplicative hash spreads consecutive ids across shards.
        (v.wrapping_mul(0x9E37_79B9) as usize >> 16) % self.shards.len()
    }

    /// Shard `i`, whatever a thread that unwound holding its lock left of
    /// it: entries are immutable `Arc`s and the counters plain adds, so
    /// the structure stays valid.
    fn shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn each_shard(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
        (0..self.shards.len()).map(|i| self.shard(i))
    }

    /// Looks up `v`, counting a hit or miss.
    pub fn get(&self, v: VertexId) -> Option<Arc<AdjSet>> {
        let mut shard = self.shard(self.shard_of(v));
        let found = shard.lru.get(&v).map(Arc::clone);
        match found {
            Some(_) => shard.stats.hits += 1,
            None => shard.stats.misses += 1,
        }
        found
    }

    /// True when `v` is currently cached. Unlike [`DbCache::get`] this
    /// does not count a hit or miss and does not touch recency — it is a
    /// pure peek that leaves the effectiveness statistics undistorted.
    pub fn contains(&self, v: VertexId) -> bool {
        self.shard(self.shard_of(v)).lru.peek(&v).is_some()
    }

    /// Inserts the adjacency set of `v`, evicting LRU entries as needed.
    pub fn insert(&self, v: VertexId, adj: Arc<AdjSet>) {
        let cost = (adj.size_bytes() + ENTRY_OVERHEAD_BYTES) as u64;
        let mut shard = self.shard(self.shard_of(v));
        let rejected = cost > shard.lru.capacity();
        let evicted = shard.lru.insert(v, adj, cost) as u64;
        shard.stats.evictions += evicted;
        drop(shard);
        if evicted > 0 || rejected {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fetches via the cache, calling `fetch` on a miss and caching its
    /// result. This is the DBQ fast path: `fetch` runs without holding
    /// the shard lock, so a slow store query does not serialise unrelated
    /// threads.
    pub fn get_or_fetch<E>(
        &self,
        v: VertexId,
        fetch: impl FnOnce() -> Result<Arc<AdjSet>, E>,
    ) -> Result<Arc<AdjSet>, E> {
        if let Some(adj) = self.get(v) {
            return Ok(adj);
        }
        let adj = fetch()?;
        self.insert(v, Arc::clone(&adj));
        Ok(adj)
    }

    /// A stamp that is unchanged exactly as long as every set inserted
    /// since it was read is still resident: it moves on each eviction,
    /// on each insert the budget rejects, and on [`DbCache::clear`]. A
    /// reader that kept a handle to a set it got through this cache may
    /// treat a repeat lookup as the hit it would have been while the
    /// stamp stands — and must come back here once it moves, so a handle
    /// never stands in for capacity the cache does not have. A plain
    /// relaxed counter: it orders nothing, a racing eviction is seen one
    /// lookup later at worst.
    pub fn residency_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Effectiveness counters, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        self.each_shard()
            .fold(CacheStats::default(), |mut total, shard| {
                total += shard.stats;
                total
            })
    }

    /// Bytes currently held (cost units including entry overhead).
    pub fn used_bytes(&self) -> u64 {
        self.each_shard().map(|s| s.lru.used_cost()).sum()
    }

    /// Number of cached adjacency sets.
    pub fn len(&self) -> usize {
        self.each_shard().map(|s| s.lru.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        for mut shard in self.each_shard() {
            shard.lru.clear();
            shard.stats = CacheStats::default();
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-thread triangle cache behind TRC instructions: maps a data
/// edge (endpoints normalised to `min, max`) to the shared triangle set
/// `Γ(a) ∩ Γ(b)`. Entry-count budgeted.
#[derive(Debug)]
pub struct TriangleCache {
    lru: Lru<(VertexId, VertexId), Arc<[VertexId]>>,
    /// Where a miss computes its set: the cached value is an exact-size
    /// copy (one allocation), the growth stays in this reused buffer.
    scratch: Vec<VertexId>,
    stats: CacheStats,
}

impl TriangleCache {
    /// Creates a cache holding at most `max_entries` triangle sets.
    pub fn new(max_entries: usize) -> Self {
        TriangleCache {
            lru: Lru::new(max_entries as u64),
            scratch: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up the triangle set of edge `(a, b)`, or has `compute` write
    /// it into the (cleared) buffer it is handed and caches a copy.
    pub fn get_or_compute(
        &mut self,
        a: VertexId,
        b: VertexId,
        compute: impl FnOnce(&mut Vec<VertexId>),
    ) -> Arc<[VertexId]> {
        let key = (a.min(b), a.max(b));
        if let Some(v) = self.lru.get(&key) {
            self.stats.hits += 1;
            return Arc::clone(v);
        }
        self.stats.misses += 1;
        self.scratch.clear();
        compute(&mut self.scratch);
        let value: Arc<[VertexId]> = Arc::from(self.scratch.as_slice());
        self.stats.evictions += self.lru.insert(key, Arc::clone(&value), 1) as u64;
        value
    }

    /// Like [`TriangleCache::get_or_compute`] but hands the triangle set
    /// to `use_set` by borrow instead of returning an `Arc` clone — the
    /// zero-refcount-traffic path for callers that only read the set
    /// (e.g. the engine's filtered TRC arm). Works at capacity 0 too:
    /// the computed set is used before the (rejected) insert.
    pub fn with_or_compute<R>(
        &mut self,
        a: VertexId,
        b: VertexId,
        compute: impl FnOnce(&mut Vec<VertexId>),
        use_set: impl FnOnce(&[VertexId]) -> R,
    ) -> R {
        let key = (a.min(b), a.max(b));
        if let Some(v) = self.lru.get(&key) {
            self.stats.hits += 1;
            return use_set(v);
        }
        self.stats.misses += 1;
        self.scratch.clear();
        compute(&mut self.scratch);
        let r = use_set(&self.scratch);
        self.stats.evictions += self.lru.insert(key, Arc::from(self.scratch.as_slice()), 1) as u64;
        r
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached triangle sets.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// Drops all entries (counters are kept; they are per-run metrics).
    pub fn clear(&mut self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(ids: &[u32]) -> Arc<AdjSet> {
        Arc::new(AdjSet::from_unsorted(ids.to_vec()))
    }

    #[test]
    fn db_cache_hits_after_insert() {
        let cache = DbCache::new(1 << 20, 4);
        assert!(cache.get(7).is_none());
        cache.insert(7, adj(&[1, 2, 3]));
        assert_eq!(cache.get(7).unwrap().as_slice(), &[1, 2, 3]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = DbCache::new(0, 2);
        cache.insert(1, adj(&[2]));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn byte_budget_is_respected_under_pressure() {
        let capacity = 4096;
        let cache = DbCache::new(capacity, 1);
        for v in 0..200u32 {
            cache.insert(v, adj(&[v, v + 1, v + 2, v + 3]));
        }
        assert!(cache.used_bytes() <= capacity as u64);
        assert!(cache.stats().evictions > 0);
        assert!(cache.len() < 200);
    }

    #[test]
    fn get_or_fetch_fetches_once() {
        let cache = DbCache::new(1 << 16, 2);
        let mut calls = 0;
        for _ in 0..3 {
            let got: Result<_, ()> = cache.get_or_fetch(9, || {
                calls += 1;
                Ok(adj(&[4, 5]))
            });
            assert_eq!(got.unwrap().as_slice(), &[4, 5]);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn get_or_fetch_propagates_errors_without_caching() {
        let cache = DbCache::new(1 << 16, 1);
        let got: Result<Arc<AdjSet>, &str> = cache.get_or_fetch(3, || Err("db down"));
        assert_eq!(got.unwrap_err(), "db down");
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let cache = DbCache::new(1 << 16, 2);
        cache.insert(1, adj(&[9]));
        cache.get(1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn triangle_cache_normalises_edge_order() {
        let mut tc = TriangleCache::new(16);
        let first = tc.get_or_compute(5, 2, |out| out.extend([10, 11]));
        let second = tc.get_or_compute(2, 5, |_| panic!("must hit"));
        assert_eq!(first, second);
        assert_eq!(tc.stats().hits, 1);
        assert_eq!(tc.len(), 1);
    }

    #[test]
    fn triangle_cache_evicts_at_capacity() {
        let mut tc = TriangleCache::new(2);
        tc.get_or_compute(0, 1, |out| out.push(1));
        tc.get_or_compute(0, 2, |out| out.push(2));
        tc.get_or_compute(0, 3, |out| out.push(3)); // evicts (0,1)
        assert_eq!(tc.len(), 2);
        assert_eq!(tc.stats().evictions, 1);
        let mut recomputed = false;
        tc.get_or_compute(0, 1, |out| {
            recomputed = true;
            out.push(1)
        });
        assert!(recomputed);
        // The borrow path evicts through the same add.
        tc.with_or_compute(0, 4, |out| out.push(4), |_| ());
        assert_eq!(tc.stats().evictions, 3);
        assert_eq!(tc.stats().misses, 5);
    }

    #[test]
    fn triangle_with_or_compute_borrows_without_arc_clone() {
        let mut tc = TriangleCache::new(4);
        let arc = tc.get_or_compute(1, 2, |out| out.extend([7, 8]));
        assert_eq!(Arc::strong_count(&arc), 2); // caller + cache
        let sum: u32 = tc.with_or_compute(2, 1, |_| panic!("must hit"), |s| s.iter().sum());
        assert_eq!(sum, 15);
        assert_eq!(Arc::strong_count(&arc), 2, "borrow path clones no Arc");
        assert_eq!(tc.stats().hits, 1);
    }

    #[test]
    fn triangle_with_or_compute_works_at_zero_capacity() {
        let mut tc = TriangleCache::new(0);
        let len = tc.with_or_compute(3, 4, |out| out.extend([1, 2, 3]), |s| s.len());
        assert_eq!(len, 3);
        assert!(tc.is_empty(), "oversized entry is not retained");
        // Second call recomputes (nothing was cached).
        let mut recomputed = false;
        tc.with_or_compute(
            3,
            4,
            |out| {
                recomputed = true;
                out.extend([1, 2, 3])
            },
            |_| (),
        );
        assert!(recomputed);
    }

    #[test]
    fn hit_rate_uses_safe_ratio_zero_on_idle_cache() {
        // Regression for the unified ratio convention: an unqueried cache
        // reports 0.0, never NaN.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert!(stats.hit_rate().is_finite());
    }

    #[test]
    fn residency_epoch_moves_exactly_when_an_inserted_set_is_not_resident() {
        let cache = DbCache::new(200, 1);
        let epoch = cache.residency_epoch();
        cache.insert(1, adj(&[1, 2, 3]));
        cache.get(1);
        cache.get(9);
        assert_eq!(
            cache.residency_epoch(),
            epoch,
            "hits and misses evict nothing"
        );
        cache.insert(2, adj(&(0..30).collect::<Vec<_>>())); // evicts 1
        assert!(!cache.contains(1));
        let after_eviction = cache.residency_epoch();
        assert_ne!(after_eviction, epoch);
        cache.insert(3, adj(&(0..100).collect::<Vec<_>>())); // over budget
        assert!(!cache.contains(3));
        let after_rejection = cache.residency_epoch();
        assert_ne!(after_rejection, after_eviction);
        cache.clear();
        assert_ne!(cache.residency_epoch(), after_rejection);
    }

    #[test]
    fn shard_counters_lose_no_probe_and_clear_to_zero() {
        // Counters live with the shards: summed, they must account for
        // every probe of every thread, and `clear` must reset them all.
        const THREADS: u32 = 4;
        const PROBES: u32 = 2_000;
        let cache = DbCache::new(1 << 20, 8);
        for v in 0..64 {
            cache.insert(v, adj(&[v]));
        }
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PROBES {
                        // Half the keys are cached, half are not.
                        cache.get((i * 7 + t) % 128);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * PROBES) as u64);
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn db_cache_is_shareable_across_threads() {
        let cache = Arc::new(DbCache::new(1 << 20, 8));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let v = (t * 500 + i) % 700;
                    if cache.get(v).is_none() {
                        cache.insert(v, Arc::new(AdjSet::from_sorted(vec![v])));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
    }
}
