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
//! A transport built with [`Transport::with_faults`] additionally fronts
//! the store with a [`benu_fault::FaultingStore`] and a
//! [`benu_fault::RetryPolicy`]: injected transient faults and timeouts
//! are retried with capped exponential backoff and deterministic jitter,
//! and only surface as a [`TransportError`] once the policy's attempts
//! are exhausted. Backoff waits, timeout waits and slow-shard latency
//! are **virtual time** — never slept, only charged into a thread-local penalty that
//! the worker folds into its busy-time accounting after each task (the
//! plan stays deterministic because no fault decision reads a clock).

use benu_cache::DbCache;
use benu_fault::{FaultKind, FaultPlan, FaultingStore, RetryPolicy, StoreError};
use benu_graph::{AdjSet, VertexId};
use benu_kvstore::{CorruptValue, KvStore};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Virtual latency (backoff + slow shards) charged to the task the
    /// current thread is executing; drained by
    /// [`Transport::take_task_penalty`] at each task boundary.
    static TASK_PENALTY_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// A store request that kept failing after every retry the policy
/// allows — the transport's one unrecoverable condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// The shard whose round trips kept failing.
    pub shard: usize,
    /// The vertex whose fetch (or whose shard-batch) failed.
    pub vertex: VertexId,
    /// How many attempts were spent before giving up.
    pub attempts: u32,
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

/// Why a fetch failed, in the transport's error taxonomy:
/// [`FetchError::Unavailable`] is the retry-exhausted (or hopeless)
/// availability failure; [`FetchError::Corrupt`] means the bytes
/// arrived but failed to decode — permanent, since every replica
/// mirrors the same value, so it fails fast without touching the retry
/// budget; [`FetchError::Missing`] means the store holds no value for
/// the vertex at all (only the cache-fronted fetches report it — the raw
/// [`Transport::fetch`] answers `Ok(None)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchError {
    /// The vertex does not exist in the store (permanent).
    Missing(VertexId),
    /// The shard kept refusing for longer than the retry policy allows.
    Unavailable(TransportError),
    /// The stored value decoded to garbage (see
    /// [`benu_kvstore::CorruptValue`]).
    Corrupt(CorruptValue),
}

impl FetchError {
    /// The availability view of the error, if that is what it is.
    pub fn as_unavailable(&self) -> Option<&TransportError> {
        match self {
            FetchError::Unavailable(err) => Some(err),
            _ => None,
        }
    }

    /// The corruption view of the error, if that is what it is.
    pub fn as_corrupt(&self) -> Option<&CorruptValue> {
        match self {
            FetchError::Corrupt(err) => Some(err),
            _ => None,
        }
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Missing(v) => write!(f, "vertex {v} missing from the store"),
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

/// The fault-injection state of a chaos-enabled transport.
struct FaultState {
    store: FaultingStore,
    retry: RetryPolicy,
    transient: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    backoff_nanos: AtomicU64,
    timeout_nanos: AtomicU64,
    slow_nanos: AtomicU64,
}

impl FaultState {
    /// Books an injected fault and, unless attempts are exhausted, the
    /// backoff before the next try. Returns `false` when the caller must
    /// give up.
    fn book_fault(&self, kind: FaultKind, key: u64, attempt: u32) -> bool {
        match kind {
            FaultKind::Transient => {
                self.transient.fetch_add(1, Ordering::Relaxed);
            }
            // Outages are intercepted by the fetch paths before any
            // booking: they are not retryable, so they never consume
            // retry budget or charge backoff.
            FaultKind::Outage => unreachable!("outages fail fast, not through the retry path"),
            FaultKind::Timeout => {
                // A timed-out round trip blocks for the plan's full
                // (virtual) timeout before the loss is detected, so the
                // wait is charged per attempt — even the final one.
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                let wait = self.store.plan().timeout_wait().as_nanos() as u64;
                self.timeout_nanos.fetch_add(wait, Ordering::Relaxed);
                TASK_PENALTY_NANOS.with(|p| p.set(p.get() + wait));
            }
        }
        if attempt + 1 >= self.retry.max_attempts {
            return false;
        }
        self.retries.fetch_add(1, Ordering::Relaxed);
        let wait = self
            .retry
            .backoff(self.store.plan().seed(), key, attempt + 1);
        let nanos = wait.as_nanos() as u64;
        self.backoff_nanos.fetch_add(nanos, Ordering::Relaxed);
        TASK_PENALTY_NANOS.with(|p| p.set(p.get() + nanos));
        true
    }

    /// Runs `op` under the retry policy and returns its value with the
    /// attempt that produced it. Injected transient faults and timeouts
    /// are retried with booked backoff (`key` seeds the jitter) until
    /// the attempts run out; an outage — every replica persistently
    /// dark — and a corrupt value — every replica mirrors the same
    /// bytes — are hopeless, so they fail fast without touching the
    /// retry budget. `named` picks the vertex an availability error
    /// names, given the failing shard.
    fn retrying<T>(
        &self,
        key: u64,
        named: impl Fn(usize) -> VertexId,
        op: impl Fn(u32) -> Result<T, StoreError>,
    ) -> Result<(T, u32), FetchError> {
        for attempt in 0..self.retry.max_attempts {
            let fault = match op(attempt) {
                Ok(value) => return Ok((value, attempt)),
                Err(StoreError::Corrupt(err)) => return Err(FetchError::Corrupt(err)),
                Err(StoreError::Fault(fault)) => fault,
            };
            let attempts = if fault.kind == FaultKind::Outage {
                attempt + 1
            } else if self.book_fault(fault.kind, key, attempt) {
                continue;
            } else {
                self.retry.max_attempts
            };
            return Err(FetchError::Unavailable(TransportError {
                shard: fault.shard,
                vertex: named(fault.shard),
                attempts,
            }));
        }
        unreachable!("retry loop returns on success or exhausted attempts")
    }

    /// Charges the slow-shard penalty of a successful round trip.
    fn book_penalty(&self, penalty: Duration) {
        if penalty.is_zero() {
            return;
        }
        let nanos = penalty.as_nanos() as u64;
        self.slow_nanos.fetch_add(nanos, Ordering::Relaxed);
        TASK_PENALTY_NANOS.with(|p| p.set(p.get() + nanos));
    }
}

/// One worker's channel to the sharded store.
pub struct Transport {
    store: Arc<KvStore>,
    faults: Option<FaultState>,
    bytes: AtomicU64,
    requests: AtomicU64,
    batch_round_trips: AtomicU64,
}

impl Transport {
    /// Attaches a worker to the store (no fault injection).
    pub fn new(store: Arc<KvStore>) -> Self {
        Transport {
            store,
            faults: None,
            bytes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batch_round_trips: AtomicU64::new(0),
        }
    }

    /// Attaches a worker to the store behind `plan`, retrying injected
    /// faults with `retry`.
    pub fn with_faults(store: Arc<KvStore>, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        retry.validate();
        Transport {
            faults: Some(FaultState {
                store: FaultingStore::new(Arc::clone(&store), plan),
                retry,
                transient: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                backoff_nanos: AtomicU64::new(0),
                timeout_nanos: AtomicU64::new(0),
                slow_nanos: AtomicU64::new(0),
            }),
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

    /// Drains the virtual latency (backoff + slow shards) charged to the
    /// current thread since the last drain. Workers call this at each
    /// task boundary and fold the result into the task's duration.
    pub fn take_task_penalty() -> Duration {
        TASK_PENALTY_NANOS.with(|p| Duration::from_nanos(p.replace(0)))
    }

    /// Charges virtual latency to the current thread's task penalty.
    /// For layers that evaluate fault decisions themselves — e.g. a
    /// serving layer checking the plan's verdict in front of its own
    /// cache — but fold their backoff and timeout waits into the same
    /// virtual-time accounting the transport uses. Never slept.
    pub fn book_virtual(penalty: Duration) {
        if penalty.is_zero() {
            return;
        }
        TASK_PENALTY_NANOS.with(|p| p.set(p.get() + penalty.as_nanos() as u64));
    }

    fn account_single(&self, wire: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(wire, Ordering::Relaxed);
    }

    /// Fetches one adjacency set (one round trip). `Ok(None)` for unknown
    /// vertices — a permanent condition, never retried and never charged.
    /// Accounted bytes are **wire** bytes: the encoded value as stored,
    /// which with a compressing codec is smaller than the decoded set.
    ///
    /// # Errors
    ///
    /// [`FetchError::Unavailable`] when the shard's injected faults
    /// outlast the retry policy; [`FetchError::Corrupt`] when the value
    /// fails to decode (never retried — every replica mirrors the same
    /// bytes).
    pub fn fetch(&self, v: VertexId) -> Result<Option<Arc<AdjSet>>, FetchError> {
        let Some(faults) = &self.faults else {
            let Some((adj, wire)) = self.store.try_get_replica(v, 0)? else {
                return Ok(None);
            };
            self.account_single(wire);
            return Ok(Some(adj));
        };
        let (value, attempt) =
            faults.retrying(v as u64, |_| v, |attempt| faults.store.get(v, attempt))?;
        let Some((adj, wire)) = value else {
            return Ok(None);
        };
        self.account_single(wire);
        faults.book_penalty(faults.store.latency_penalty_routed(v, attempt));
        Ok(Some(adj))
    }

    /// Fetches a batch in one round trip per touched shard. Slots of
    /// unknown vertices come back `None`. A faulted batch fails as a
    /// unit and is retried as a unit.
    ///
    /// # Errors
    ///
    /// See [`Transport::fetch`]; the error names the first vertex routed
    /// to the failing shard.
    pub fn fetch_many(&self, vs: &[VertexId]) -> Result<Vec<Option<Arc<AdjSet>>>, FetchError> {
        let Some(faults) = &self.faults else {
            let batch = self.store.try_get_many_routed(vs, |_| 0)?;
            return Ok(self.account_batch(batch));
        };
        // The batch's deterministic retry key: the smallest vertex (the
        // same key the plan uses for its per-shard decisions).
        let key = vs.iter().copied().min().unwrap_or(0) as u64;
        let (batch, attempt) = faults.retrying(
            key,
            |shard| Self::batch_error_vertex(&self.store, vs, shard),
            |attempt| faults.store.get_many(vs, attempt),
        )?;
        faults.book_penalty(faults.store.batch_latency_penalty_routed(vs, attempt));
        Ok(self.account_batch(batch))
    }

    /// One adjacency set through `cache`: a hit costs nothing, a miss is
    /// one [`Transport::fetch`] whose value is inserted before it is
    /// returned. The fetch runs outside the cache's shard lock.
    ///
    /// # Errors
    ///
    /// See [`Transport::fetch`], plus [`FetchError::Missing`] for a
    /// vertex the store does not hold. Nothing is cached on error.
    pub fn fetch_through(&self, cache: &DbCache, v: VertexId) -> Result<Arc<AdjSet>, FetchError> {
        cache.get_or_fetch(v, || self.fetch(v)?.ok_or(FetchError::Missing(v)))
    }

    /// The adjacency sets of `vs`, in order, through `cache`: every key
    /// is probed (counting its hit or miss), the misses travel in one
    /// [`Transport::fetch_many`], and what arrives is inserted.
    ///
    /// # Errors
    ///
    /// See [`Transport::fetch_many`]; a batch with an unknown vertex
    /// caches the values that did arrive and reports the first
    /// [`FetchError::Missing`] in key order.
    pub fn fetch_many_through(
        &self,
        cache: &DbCache,
        vs: &[VertexId],
    ) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        let probed: Vec<Option<Arc<AdjSet>>> = vs.iter().map(|&v| cache.get(v)).collect();
        let missing: Vec<VertexId> = vs
            .iter()
            .zip(&probed)
            .filter_map(|(&v, hit)| hit.is_none().then_some(v))
            .collect();
        let mut fetched = self.fill(cache, &missing)?.into_iter();
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
    fn fill(&self, cache: &DbCache, keys: &[VertexId]) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut first_missing = None;
        let mut out = Vec::with_capacity(keys.len());
        for (&v, value) in keys.iter().zip(self.fetch_many(keys)?) {
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
            Some(v) => Err(FetchError::Missing(v)),
            None => Ok(out),
        }
    }

    /// The first vertex of `vs` whose placement involves `shard` — the
    /// representative vertex a batch failure names.
    pub fn batch_error_vertex(store: &KvStore, vs: &[VertexId], shard: usize) -> VertexId {
        vs.iter()
            .copied()
            .find(|&v| store.placement(v).any(|s| s == shard))
            .unwrap_or_default()
    }

    fn account_batch(&self, batch: benu_kvstore::BatchOutcome) -> Vec<Option<Arc<AdjSet>>> {
        self.requests
            .fetch_add(batch.round_trips, Ordering::Relaxed);
        self.batch_round_trips
            .fetch_add(batch.round_trips, Ordering::Relaxed);
        self.bytes.fetch_add(batch.bytes, Ordering::Relaxed);
        batch.values
    }

    /// Value bytes this worker has pulled over the wire.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Round trips this worker has issued (single gets plus one per shard
    /// touched by each batch). Faulted attempts transfer nothing and are
    /// not counted here — they appear in the fault counters instead.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The subset of [`Transport::requests`] issued by batched multi-gets.
    pub fn batch_round_trips(&self) -> u64 {
        self.batch_round_trips.load(Ordering::Relaxed)
    }

    fn fault_counter(&self, pick: impl Fn(&FaultState) -> &AtomicU64) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| pick(f).load(Ordering::Relaxed))
    }

    /// Injected transient errors this worker absorbed.
    pub fn transient_faults(&self) -> u64 {
        self.fault_counter(|f| &f.transient)
    }

    /// Injected timeouts this worker absorbed.
    pub fn timeouts(&self) -> u64 {
        self.fault_counter(|f| &f.timeouts)
    }

    /// Retries this worker issued (one fewer than attempts per fault
    /// survived).
    pub fn retries(&self) -> u64 {
        self.fault_counter(|f| &f.retries)
    }

    /// Total virtual backoff charged into busy time.
    pub fn backoff_virtual(&self) -> Duration {
        Duration::from_nanos(self.fault_counter(|f| &f.backoff_nanos))
    }

    /// Total virtual timeout wait charged into busy time (one full
    /// [`FaultPlan::timeout_wait`] per injected timeout).
    pub fn timeout_virtual(&self) -> Duration {
        Duration::from_nanos(self.fault_counter(|f| &f.timeout_nanos))
    }

    /// Total virtual slow-shard latency charged into busy time.
    pub fn slow_virtual(&self) -> Duration {
        Duration::from_nanos(self.fault_counter(|f| &f.slow_nanos))
    }

    /// Advances the execution pass shard-outage decisions are evaluated
    /// against (1-based). Called by the runtime at pass barriers; a
    /// no-op on fault-free transports.
    pub fn set_pass(&self, pass: u32) {
        if let Some(faults) = &self.faults {
            faults.store.set_pass(pass);
        }
    }

    /// Times this worker's router stepped past a dead or faulted replica
    /// to try the next one in ring order.
    pub fn failovers(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.store.failover_attempts())
    }

    /// Round trips this worker had served by a non-primary replica.
    pub fn failover_reads(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.store.failover_reads())
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
        let adj = t.fetch(0).unwrap().unwrap();
        assert_eq!(adj.len(), 9);
        assert_eq!(t.requests(), 1);
        assert_eq!(t.bytes(), 37, "wire bytes: 1 tag + 9 × u32");
        assert_eq!(t.batch_round_trips(), 0);
        assert!(t.fetch(100).unwrap().is_none());
        assert_eq!(t.requests(), 1, "misses are free");
    }

    #[test]
    fn fetch_many_batches_round_trips() {
        let g = gen::cycle(8);
        let t = Transport::new(Arc::new(KvStore::from_graph(&g, 4)));
        let values = t.fetch_many(&[0, 4, 1]).unwrap();
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
        t.fetch(1).unwrap();
        t.fetch_many(&[2, 3, 4, 5]).unwrap();
        let kv = store.stats();
        assert_eq!(t.bytes(), kv.bytes);
        assert_eq!(t.requests(), kv.requests);
    }

    #[test]
    fn cache_fronted_fetches_fill_the_cache_and_name_missing_vertices() {
        let g = gen::cycle(8);
        let t = Transport::new(Arc::new(KvStore::from_graph(&g, 2)));
        let cache = DbCache::new(1 << 16, 2);
        assert_eq!(t.fetch_through(&cache, 0).unwrap().len(), 2);
        assert_eq!(t.fetch_through(&cache, 0).unwrap().len(), 2);
        assert_eq!(t.requests(), 1, "the second lookup is a cache hit");
        assert_eq!(t.fetch_through(&cache, 99), Err(FetchError::Missing(99)));
        assert!(!cache.contains(99), "nothing is cached on error");

        // A batch probes every key, fetches only the misses, and keeps
        // what arrived even when one key does not exist.
        let before = t.requests();
        let sets = t.fetch_many_through(&cache, &[0, 1, 2]).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(t.requests() - before, 2, "1 and 2 sit on different shards");
        assert_eq!(
            t.fetch_many_through(&cache, &[3, 77, 4, 55]),
            Err(FetchError::Missing(77)),
            "the first unknown vertex in key order is named"
        );
        assert!(cache.contains(3) && cache.contains(4));
    }

    #[test]
    fn faulting_transport_retries_to_success() {
        let g = gen::complete(16);
        let store = Arc::new(KvStore::from_graph(&g, 4));
        let plan = Arc::new(FaultPlan::builder(12).transient_rate(0.4).build());
        let t = Transport::with_faults(Arc::clone(&store), plan, RetryPolicy::default());
        let _ = Transport::take_task_penalty();
        for v in 0..16u32 {
            assert_eq!(t.fetch(v).unwrap().unwrap().len(), 15);
        }
        assert!(t.transient_faults() > 0, "rate 0.4 over 16 gets must fault");
        assert_eq!(t.retries(), t.transient_faults());
        assert!(t.backoff_virtual() > Duration::ZERO);
        assert_eq!(
            Transport::take_task_penalty(),
            t.backoff_virtual(),
            "backoff is charged to the calling thread"
        );
        // Accounting still reconciles: faulted attempts never reached
        // the store.
        assert_eq!(t.bytes(), store.stats().bytes);
        assert_eq!(t.requests(), store.stats().requests);
    }

    #[test]
    fn timeouts_charge_the_full_timeout_wait() {
        let g = gen::complete(16);
        let store = Arc::new(KvStore::from_graph(&g, 4));
        let wait = Duration::from_millis(25);
        let plan = Arc::new(
            FaultPlan::builder(8)
                .timeout_rate(0.4)
                .timeout_wait(wait)
                .build(),
        );
        let t = Transport::with_faults(store, plan, RetryPolicy::default());
        let _ = Transport::take_task_penalty();
        let wall = std::time::Instant::now();
        for v in 0..16u32 {
            assert!(t.fetch(v).unwrap().is_some());
        }
        let timeouts = t.timeouts();
        assert!(timeouts > 0, "rate 0.4 over 16 gets must time out");
        assert_eq!(
            t.timeout_virtual(),
            wait * timeouts as u32,
            "every timeout costs one full wait"
        );
        // The wait lands in the per-task penalty alongside the backoff,
        // and is never actually slept.
        assert_eq!(
            Transport::take_task_penalty(),
            t.timeout_virtual() + t.backoff_virtual()
        );
        assert!(wall.elapsed() < t.timeout_virtual());
    }

    #[test]
    fn exhausted_retries_surface_a_contextual_error() {
        let g = gen::complete(4);
        let store = Arc::new(KvStore::from_graph(&g, 1));
        let plan = Arc::new(FaultPlan::builder(0).transient_rate(0.995).build());
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let t = Transport::with_faults(store, plan, policy);
        let err = (0..4u32)
            .find_map(|v| t.fetch(v).err())
            .expect("rate 0.995 with 3 attempts must exhaust somewhere");
        assert!(err.to_string().contains("after 3 attempts"));
        let err = err
            .as_unavailable()
            .expect("exhaustion is an availability error");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.shard, 0);
        let _ = Transport::take_task_penalty();
    }

    #[test]
    fn slow_shards_charge_virtual_latency_not_wall_time() {
        let g = gen::cycle(8);
        let store = Arc::new(KvStore::from_graph(&g, 4));
        let plan = Arc::new(
            FaultPlan::builder(1)
                .base_latency(Duration::from_millis(10))
                .slow_shard(0, 3.0)
                .build(),
        );
        let t = Transport::with_faults(store, plan, RetryPolicy::default());
        let _ = Transport::take_task_penalty();
        let wall = std::time::Instant::now();
        t.fetch(0).unwrap(); // shard 0: slow
        t.fetch(1).unwrap(); // shard 1: healthy
        t.fetch_many(&[2, 4]).unwrap(); // shards 2 and 0
                                        // 2 slow round trips × 10ms × (3 − 1) = 40ms of virtual latency.
        assert_eq!(t.slow_virtual(), Duration::from_millis(40));
        assert_eq!(Transport::take_task_penalty(), Duration::from_millis(40));
        assert!(
            wall.elapsed() < Duration::from_millis(40),
            "penalties must be charged, not slept"
        );
    }

    #[test]
    fn replicated_transport_rides_out_a_shard_outage() {
        let g = gen::complete(16);
        let store = Arc::new(KvStore::from_graph_replicated(&g, 4, 2));
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(0, 1).build());
        let t = Transport::with_faults(Arc::clone(&store), plan, RetryPolicy::default());
        let _ = Transport::take_task_penalty();
        for v in 0..16u32 {
            assert_eq!(t.fetch(v).unwrap().unwrap().len(), 15);
        }
        assert_eq!(t.retries(), 0, "failover happens before the retry budget");
        assert_eq!(t.transient_faults(), 0);
        assert!(t.failovers() > 0);
        assert_eq!(
            t.failover_reads(),
            4,
            "the four shard-0 vertices are served by the mirror"
        );
        // Accounting reconciles: every serving round trip is real.
        assert_eq!(t.bytes(), store.stats().bytes);
        assert_eq!(t.requests(), store.stats().requests);
        assert_eq!(store.shard_stats(0).requests, 0, "the dark shard is silent");
    }

    #[test]
    fn unreplicated_outage_fails_fast_without_retries() {
        let g = gen::complete(8);
        let store = Arc::new(KvStore::from_graph(&g, 4));
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(1, 1).build());
        let t = Transport::with_faults(store, plan, RetryPolicy::default());
        let err = t.fetch(1).unwrap_err();
        let err = err
            .as_unavailable()
            .expect("outage is an availability error");
        assert_eq!(err.shard, 1);
        assert_eq!(
            err.attempts, 1,
            "outages are hopeless — no retry budget spent"
        );
        assert_eq!(t.retries(), 0);
        assert_eq!(t.backoff_virtual(), Duration::ZERO);
        // Batches over the dark shard fail fast too, naming a vertex
        // placed on it.
        let err = t.fetch_many(&[0, 1, 2]).unwrap_err();
        let err = err.as_unavailable().unwrap();
        assert_eq!(err.shard, 1);
        assert_eq!(err.vertex, 1);
        let _ = Transport::take_task_penalty();
    }

    #[test]
    fn outage_onset_follows_set_pass() {
        let g = gen::complete(8);
        let store = Arc::new(KvStore::from_graph(&g, 4));
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(2, 2).build());
        let t = Transport::with_faults(store, plan, RetryPolicy::default());
        assert!(t.fetch(2).is_ok(), "pass 1 predates the outage");
        t.set_pass(2);
        assert!(t.fetch(2).is_err());
        t.set_pass(1);
        assert!(t.fetch(2).is_ok(), "windowing is driven purely by the pass");
        let _ = Transport::take_task_penalty();
    }

    #[test]
    fn corrupt_values_fail_fast_as_their_own_error_kind() {
        let g = gen::cycle(6);
        let mut store = KvStore::from_graph_replicated(&g, 2, 2);
        assert!(store.corrupt_value(3));
        let store = Arc::new(store);
        // Plain transport: a structured error, not a panic.
        let t = Transport::new(Arc::clone(&store));
        let err = t.fetch(3).unwrap_err();
        let corrupt = err.as_corrupt().expect("decode failure is corruption");
        assert_eq!(corrupt.vertex, 3);
        assert!(err.as_unavailable().is_none());
        assert!(err.to_string().contains("corrupt value for vertex 3"));
        // Chaos transport: corruption never burns retry budget — every
        // replica mirrors the same bytes, so retrying cannot help.
        let chaos = Transport::with_faults(
            Arc::clone(&store),
            Arc::new(FaultPlan::benign(0)),
            RetryPolicy::default(),
        );
        assert!(chaos.fetch(3).unwrap_err().as_corrupt().is_some());
        assert_eq!(chaos.retries(), 0);
        // Batches surface the same taxonomy, and healthy keys still serve.
        assert!(t.fetch_many(&[0, 3]).unwrap_err().as_corrupt().is_some());
        assert!(t.fetch(0).unwrap().is_some());
        let _ = Transport::take_task_penalty();
    }

    #[test]
    fn benign_plan_transport_matches_plain_transport() {
        let g = gen::barabasi_albert(40, 3, 7);
        let store = Arc::new(KvStore::from_graph(&g, 2));
        let plain = Transport::new(Arc::clone(&store));
        let chaos = Transport::with_faults(
            Arc::clone(&store),
            Arc::new(FaultPlan::benign(0)),
            RetryPolicy::default(),
        );
        for v in 0..40u32 {
            assert_eq!(
                plain.fetch(v).unwrap().is_some(),
                chaos.fetch(v).unwrap().is_some()
            );
        }
        assert_eq!(plain.bytes(), chaos.bytes());
        assert_eq!(chaos.transient_faults() + chaos.timeouts(), 0);
        let _ = Transport::take_task_penalty();
    }
}
