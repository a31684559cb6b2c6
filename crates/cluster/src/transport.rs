//! The per-worker store transport.
//!
//! Every database access of a worker machine flows through one
//! [`Transport`], which owns the worker-side communication accounting:
//! bytes transferred, round trips issued, and how many of those round
//! trips were batched multi-gets. Centralising the counters here keeps
//! the rest of the runtime free of accounting code and guarantees the
//! per-worker sums reconcile with the store's own shard counters (the
//! `communication_accounting_is_consistent` test).
//!
//! The transport is faultless: it reads the replica it is told to and
//! knows no [`benu_fault::FaultPlan`]. Injected faults are decided one
//! layer up, by the lane source's [`crate::gate::FaultGate`], *before*
//! the cache is probed — a refused access never gets here, and a served
//! one arrives with the replica offset its verdict routed to.

use benu_cache::DbCache;
use benu_fault::FaultKind;
use benu_graph::{AdjSet, VertexId};
use benu_kvstore::{CorruptValue, KvStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A store access the fault gate gave up on: every retry the policy
/// allows was refused, or every replica is persistently dark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// The shard whose round trips kept failing.
    pub shard: usize,
    /// The vertex whose fetch (or whose shard-batch) failed.
    pub vertex: VertexId,
    /// How many attempts were spent before giving up.
    pub attempts: u32,
    /// The fault that refused the last attempt: [`FaultKind::Outage`]
    /// for a fail-fast (every replica dark, `attempts == 1`), otherwise
    /// the retryable kind that outlasted the retry policy.
    pub kind: FaultKind,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} unavailable for vertex {} after {} attempts",
            self.shard, self.vertex, self.attempts
        )
    }
}

impl std::error::Error for TransportError {}

/// Why a lane's adjacency access failed: [`FetchError::Unavailable`] is
/// the fault gate's retry-exhausted (or hopeless) availability failure;
/// [`FetchError::Corrupt`] means the bytes arrived but failed to decode
/// — permanent, since every replica mirrors the same value, so it is
/// never retried; [`FetchError::Missing`] means the store holds no
/// value for the vertex at all (only the cache-fronted fetches report
/// it — the raw [`Transport::fetch`] answers `Ok(None)`). Every variant
/// names the vertex and the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchError {
    /// The vertex does not exist in the store (permanent) — the data
    /// graph and the task list disagree.
    Missing {
        /// The unknown vertex.
        vertex: VertexId,
        /// The primary shard that would own it.
        shard: usize,
    },
    /// The shard kept refusing for longer than the retry policy allows.
    Unavailable(TransportError),
    /// The stored value decoded to garbage (see
    /// [`benu_kvstore::CorruptValue`]).
    Corrupt(CorruptValue),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Missing { vertex, shard } => {
                write!(f, "vertex {vertex} missing from shard {shard}")
            }
            FetchError::Unavailable(err) => err.fmt(f),
            FetchError::Corrupt(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for FetchError {}

impl From<TransportError> for FetchError {
    fn from(err: TransportError) -> Self {
        FetchError::Unavailable(err)
    }
}

impl From<CorruptValue> for FetchError {
    fn from(err: CorruptValue) -> Self {
        FetchError::Corrupt(err)
    }
}

/// One worker's channel to the sharded store.
pub struct Transport {
    store: Arc<KvStore>,
    bytes: AtomicU64,
    requests: AtomicU64,
    batch_round_trips: AtomicU64,
}

impl Transport {
    /// Attaches a worker to the store.
    pub fn new(store: Arc<KvStore>) -> Self {
        Transport {
            store,
            bytes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batch_round_trips: AtomicU64::new(0),
        }
    }

    /// The attached store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    fn missing(&self, vertex: VertexId) -> FetchError {
        FetchError::Missing {
            vertex,
            shard: self.store.shard_of(vertex),
        }
    }

    /// Fetches one adjacency set (one round trip) from the `replica`-th
    /// shard of its placement ring (0 = primary). `Ok(None)` for unknown
    /// vertices — a permanent condition, never charged. Accounted bytes
    /// are **wire** bytes: the encoded value as stored, which with a
    /// compressing codec is smaller than the decoded set.
    ///
    /// # Errors
    ///
    /// [`FetchError::Corrupt`] when the value fails to decode.
    pub fn fetch(&self, v: VertexId, replica: usize) -> Result<Option<Arc<AdjSet>>, FetchError> {
        let Some((adj, wire)) = self.store.try_get_replica(v, replica)? else {
            return Ok(None);
        };
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(wire, Ordering::Relaxed);
        Ok(Some(adj))
    }

    /// Fetches a batch in one round trip per serving shard; slots of
    /// unknown vertices come back `None`.
    fn fetch_many(
        &self,
        vs: &[VertexId],
        route: impl Fn(usize) -> usize,
    ) -> Result<Vec<Option<Arc<AdjSet>>>, FetchError> {
        let batch = self.store.try_get_many_routed(vs, route)?;
        self.requests
            .fetch_add(batch.round_trips, Ordering::Relaxed);
        self.batch_round_trips
            .fetch_add(batch.round_trips, Ordering::Relaxed);
        self.bytes.fetch_add(batch.bytes, Ordering::Relaxed);
        Ok(batch.values)
    }

    /// One adjacency set through `cache`: a hit costs nothing, a miss is
    /// one [`Transport::fetch`] from `replica` whose value is inserted
    /// before it is returned. The fetch runs outside the cache's shard
    /// lock.
    ///
    /// # Errors
    ///
    /// See [`Transport::fetch`], plus [`FetchError::Missing`] for a
    /// vertex the store does not hold. Nothing is cached on error.
    pub fn fetch_through(
        &self,
        cache: &DbCache,
        v: VertexId,
        replica: usize,
    ) -> Result<Arc<AdjSet>, FetchError> {
        cache.get_or_fetch(v, || self.fetch(v, replica)?.ok_or_else(|| self.missing(v)))
    }

    /// The adjacency sets of `vs`, in order, through `cache`: every key
    /// is probed (counting its hit or miss), the misses travel in one
    /// batch — one round trip per serving shard, `route` naming the
    /// replica offset that serves each primary shard's group (`|_| 0`
    /// reads every primary) — and what arrives is inserted.
    ///
    /// # Errors
    ///
    /// See [`Transport::fetch`]; a batch with an unknown vertex caches
    /// the values that did arrive and reports the first
    /// [`FetchError::Missing`] in key order.
    pub fn fetch_many_through(
        &self,
        cache: &DbCache,
        vs: &[VertexId],
        route: impl Fn(usize) -> usize,
    ) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        let probed: Vec<Option<Arc<AdjSet>>> = vs.iter().map(|&v| cache.get(v)).collect();
        let missing: Vec<VertexId> = vs
            .iter()
            .zip(&probed)
            .filter_map(|(&v, hit)| hit.is_none().then_some(v))
            .collect();
        let mut fetched = self.fill(cache, &missing, route)?.into_iter();
        Ok(probed
            .into_iter()
            .map(|hit| {
                hit.or_else(|| fetched.next())
                    .expect("one fetched set per miss")
            })
            .collect())
    }

    /// Fetches `keys` (none of them cached) in one batch and inserts
    /// every value that arrived.
    fn fill(
        &self,
        cache: &DbCache,
        keys: &[VertexId],
        route: impl Fn(usize) -> usize,
    ) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut first_missing = None;
        let mut out = Vec::with_capacity(keys.len());
        for (&v, value) in keys.iter().zip(self.fetch_many(keys, route)?) {
            match value {
                Some(adj) => {
                    cache.insert(v, Arc::clone(&adj));
                    out.push(adj);
                }
                None => {
                    first_missing.get_or_insert(v);
                }
            }
        }
        match first_missing {
            Some(v) => Err(self.missing(v)),
            None => Ok(out),
        }
    }

    /// Value bytes this worker has pulled over the wire.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Round trips this worker has issued (single gets plus one per shard
    /// touched by each batch).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The subset of [`Transport::requests`] issued by batched multi-gets.
    pub fn batch_round_trips(&self) -> u64 {
        self.batch_round_trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    #[test]
    fn fetch_accounts_bytes_and_requests() {
        let g = gen::star(9);
        let t = Transport::new(Arc::new(KvStore::from_graph(&g, 2)));
        let adj = t.fetch(0, 0).unwrap().unwrap();
        assert_eq!(adj.len(), 9);
        assert_eq!(t.requests(), 1);
        assert_eq!(t.bytes(), 37, "wire bytes: 1 tag + 9 × u32");
        assert_eq!(t.batch_round_trips(), 0);
        assert!(t.fetch(100, 0).unwrap().is_none());
        assert_eq!(t.requests(), 1, "misses are free");
    }

    #[test]
    fn fetch_many_batches_round_trips() {
        let g = gen::cycle(8);
        let t = Transport::new(Arc::new(KvStore::from_graph(&g, 4)));
        let values = t.fetch_many(&[0, 4, 1], |_| 0).unwrap();
        assert!(values.iter().all(Option::is_some));
        assert_eq!(t.requests(), 2, "vertices 0 and 4 share a shard");
        assert_eq!(t.batch_round_trips(), 2);
        assert_eq!(t.bytes(), 3 * 9, "three values, each 1 tag + 2 × u32");
    }

    #[test]
    fn worker_counters_reconcile_with_store_counters() {
        let g = gen::barabasi_albert(50, 3, 2);
        let store = Arc::new(KvStore::from_graph(&g, 3));
        let t = Transport::new(Arc::clone(&store));
        t.fetch(1, 0).unwrap();
        t.fetch_many(&[2, 3, 4, 5], |_| 0).unwrap();
        let kv = store.stats();
        assert_eq!(t.bytes(), kv.bytes);
        assert_eq!(t.requests(), kv.requests);
    }

    #[test]
    fn cache_fronted_fetches_fill_the_cache_and_name_missing_vertices() {
        let g = gen::cycle(8);
        let t = Transport::new(Arc::new(KvStore::from_graph(&g, 2)));
        let cache = DbCache::new(1 << 16, 2);
        assert_eq!(t.fetch_through(&cache, 0, 0).unwrap().len(), 2);
        assert_eq!(t.fetch_through(&cache, 0, 0).unwrap().len(), 2);
        assert_eq!(t.requests(), 1, "the second lookup is a cache hit");
        let missing = |vertex, shard| FetchError::Missing { vertex, shard };
        assert_eq!(t.fetch_through(&cache, 99, 0).unwrap_err(), missing(99, 1));
        assert!(!cache.contains(99), "nothing is cached on error");

        // A batch probes every key, fetches only the misses, and keeps
        // what arrived even when one key does not exist.
        let before = t.requests();
        let sets = t.fetch_many_through(&cache, &[0, 1, 2], |_| 0).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(t.requests() - before, 2, "1 and 2 sit on different shards");
        assert_eq!(
            t.fetch_many_through(&cache, &[3, 77, 4, 55], |_| 0)
                .unwrap_err(),
            missing(77, 1),
            "the first unknown vertex in key order is named, with its shard"
        );
        assert!(cache.contains(3) && cache.contains(4));
    }
}
