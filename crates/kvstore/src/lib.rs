//! The distributed key-value database holding the data graph.
//!
//! The paper stores adjacency sets in HBase and queries them with `GetAdj`
//! (DBQ) instructions. This crate is the single-process stand-in: a
//! [`KvStore`] partitions the vertex space across shards (one per worker
//! machine in the simulated cluster), stores each adjacency set as an
//! opaque encoded value, and counts every request and transferred byte —
//! the communication-cost metric of the paper's evaluation. Values are
//! written by a versioned [`codec`] chosen at store-build time (see
//! [`KvStore::from_graph_with`]); every byte count reported is the
//! *wire* volume of those tagged, possibly compressed values.
//!
//! The store is immutable after loading (BENU's preprocessing step,
//! Algorithm 2 line 1, is pattern-independent), so reads are lock-free.
//!
//! # Replication
//!
//! A store loaded with [`KvStore::from_graph_replicated`] keeps `R`
//! copies of every value: the primary shard `v % num_shards` plus the
//! next `R - 1` shards in ring order (the HDFS-style placement backing
//! HBase regions). [`KvStore::placement`] enumerates that ring, and the
//! replica-aware accessors ([`KvStore::try_get_replica`],
//! [`KvStore::try_get_many_routed`]) let a caller read from any copy
//! while the request/byte accounting charges the shard that actually
//! served.

pub mod codec;

pub use codec::{Codec, CodecError, CodecKind};

use benu_graph::{AdjSet, Graph, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A value whose stored bytes failed to decode: which vertex, which
/// shard served it, and the structural [`CodecError`]. Surfaced by the
/// `try_*` read paths so a damaged shard fails the run or the query that
/// read it (the runtime's `Failure`) instead of crashing the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptValue {
    /// The vertex whose value is damaged.
    pub vertex: VertexId,
    /// The shard that served the damaged bytes.
    pub shard: usize,
    /// What exactly is wrong with the bytes.
    pub error: CodecError,
}

impl std::fmt::Display for CorruptValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt value for vertex {} on shard {}: {}",
            self.vertex, self.shard, self.error
        )
    }
}

impl std::error::Error for CorruptValue {}

/// Per-shard request/byte counters.
#[derive(Debug, Default)]
struct ShardStats {
    requests: AtomicU64,
    keys: AtomicU64,
    bytes: AtomicU64,
    deduped: AtomicU64,
}

/// One partition of the key space (the role of one HBase region server).
#[derive(Debug)]
struct Shard {
    values: HashMap<VertexId, Arc<[u8]>>,
    stats: ShardStats,
}

/// A sharded, read-only key-value store mapping each data vertex to its
/// encoded adjacency set.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<Shard>,
    num_vertices: usize,
    replication: usize,
    codec: CodecKind,
}

/// The single source of truth for value placement: replica `offset` of
/// vertex `v` lives on shard `(v % num_shards) + offset` in ring order.
/// Both loading and every read path go through this helper, so primary
/// and replica assignment can never diverge.
fn ring_shard(v: VertexId, num_shards: usize, offset: usize) -> usize {
    (v as usize % num_shards + offset) % num_shards
}

/// Snapshot of the store's access statistics.
///
/// `requests` counts *round trips* (one per [`KvStore::get`], one per
/// touched shard per [`KvStore::get_many`]); `keys` counts individual
/// values served. For unbatched access the two coincide; batching lowers
/// `requests` while `keys` and `bytes` stay workload-determined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Total round trips served.
    pub requests: u64,
    /// Total values served (individual `GetAdj` answers).
    pub keys: u64,
    /// Total *wire* bytes transferred ("communication cost"): the
    /// tagged, codec-compressed value lengths — not the decoded id
    /// footprint — so a store built with a compressing codec shows its
    /// savings here directly.
    pub bytes: u64,
    /// Lookups saved by batch-level key deduplication: duplicate keys in
    /// one multi-get are decoded, charged and transferred once, and every
    /// further occurrence is answered from the first (frontier batches
    /// repeat hub vertices heavily).
    pub deduped_keys: u64,
}

/// The result of one batched multi-get.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One slot per requested key, in request order (`None` for unknown
    /// vertices). Duplicate keys are served by one decode: the first
    /// occurrence is fetched and accounted, later occurrences share its
    /// value and count as [`KvStats::deduped_keys`].
    pub values: Vec<Option<Arc<AdjSet>>>,
    /// Round trips this batch cost (= number of distinct shards touched).
    pub round_trips: u64,
    /// Wire bytes transferred by this batch (tagged, codec-encoded
    /// value lengths).
    pub bytes: u64,
}

impl KvStore {
    /// Loads the data graph into `num_shards` partitions (vertices are
    /// assigned round-robin by id, giving balanced shards even for skewed
    /// degree distributions).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn from_graph(g: &Graph, num_shards: usize) -> Self {
        Self::from_graph_replicated(g, num_shards, 1)
    }

    /// Loads the data graph with `replication` copies of every value:
    /// the primary shard plus the next `replication - 1` shards in ring
    /// order. Values are cheap to mirror (an `Arc<[u8]>` each), so
    /// memory grows only by the shared-pointer overhead.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `replication` is outside
    /// `1..=num_shards` (more copies than shards would place two
    /// replicas on the same shard, defeating the point).
    pub fn from_graph_replicated(g: &Graph, num_shards: usize, replication: usize) -> Self {
        Self::from_graph_with(g, num_shards, replication, CodecKind::default())
    }

    /// Loads the data graph with an explicit adjacency [`CodecKind`]:
    /// the store-build-time decision that fixes every value's wire
    /// bytes (and thus the communication cost every read is charged).
    /// Reads are codec-agnostic — values are tagged — so stores built
    /// with different codecs are drop-in interchangeable.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `replication` is outside
    /// `1..=num_shards` (more copies than shards would place two
    /// replicas on the same shard, defeating the point).
    pub fn from_graph_with(
        g: &Graph,
        num_shards: usize,
        replication: usize,
        codec: CodecKind,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            (1..=num_shards).contains(&replication),
            "replication factor {replication} must be within 1..={num_shards} (the shard count)"
        );
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|_| Shard {
                values: HashMap::new(),
                stats: ShardStats::default(),
            })
            .collect();
        for v in g.vertices() {
            let value = codec::encode(codec, g.neighbors(v));
            for offset in 0..replication {
                shards[ring_shard(v, num_shards, offset)]
                    .values
                    .insert(v, value.clone());
            }
        }
        KvStore {
            shards,
            num_vertices: g.num_vertices(),
            replication,
            codec,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices stored.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The replication factor the store was loaded with.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The adjacency codec the store was built with.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// The primary shard of vertex `v` (replica offset 0).
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.replica_shard(v, 0)
    }

    /// The shard holding replica `offset` of vertex `v` (offset 0 is the
    /// primary; offsets wrap around the ring).
    pub fn replica_shard(&self, v: VertexId, offset: usize) -> usize {
        ring_shard(v, self.shards.len(), offset)
    }

    /// The full placement of vertex `v`: its primary shard followed by
    /// the `replication - 1` mirror shards, in failover order.
    pub fn placement(&self, v: VertexId) -> impl Iterator<Item = usize> + '_ {
        (0..self.replication).map(move |offset| self.replica_shard(v, offset))
    }

    /// Fetches and decodes the adjacency set of `v`, counting the request
    /// and transferred bytes. Returns `None` for unknown vertices.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt stored value (use
    /// [`KvStore::try_get_replica`] to handle that structurally).
    pub fn get(&self, v: VertexId) -> Option<Arc<AdjSet>> {
        self.try_get_replica(v, 0)
            .unwrap_or_else(|e| panic!("{e}"))
            .map(|(adj, _)| adj)
    }

    /// Fetches the adjacency set of `v` from replica `offset` of its
    /// placement, charging the request to the shard that served it (the
    /// failover read path; offset 0 is the primary). Returns the
    /// decoded set together with the wire bytes it cost, or a
    /// [`CorruptValue`] naming the vertex, serving shard and the exact
    /// [`CodecError`]. Statistics are charged only after a successful
    /// decode, so a corrupt read never perturbs the communication
    /// accounting it aborts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset` is not below the replication
    /// factor — such a shard holds no copy of `v`.
    pub fn try_get_replica(
        &self,
        v: VertexId,
        offset: usize,
    ) -> Result<Option<(Arc<AdjSet>, u64)>, CorruptValue> {
        debug_assert!(
            offset < self.replication,
            "replica offset {offset} outside replication factor {}",
            self.replication
        );
        let s = self.replica_shard(v, offset);
        let shard = &self.shards[s];
        let Some(value) = shard.values.get(&v) else {
            return Ok(None);
        };
        let decoded = codec::decode(value).map_err(|error| CorruptValue {
            vertex: v,
            shard: s,
            error,
        })?;
        shard.stats.requests.fetch_add(1, Ordering::Relaxed);
        shard.stats.keys.fetch_add(1, Ordering::Relaxed);
        shard
            .stats
            .bytes
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        Ok(Some((Arc::new(decoded), value.len() as u64)))
    }

    /// Chaos hook: silently drops vertex `v` from every replica shard,
    /// leaving `num_vertices` — and thus any task list derived from it —
    /// unchanged. The store now disagrees with the data graph, which is
    /// exactly the corruption the missing-vertex error path exists to
    /// surface. Returns true if the vertex was present.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        let mut removed = false;
        for offset in 0..self.replication {
            let s = self.replica_shard(v, offset);
            removed |= self.shards[s].values.remove(&v).is_some();
        }
        removed
    }

    /// Chaos hook: overwrites vertex `v`'s value on every replica shard
    /// with garbage bytes (an unknown codec tag), modelling bit rot in
    /// a region file. Subsequent reads of `v` surface a structured
    /// [`CorruptValue`] through the `try_*` paths — the corrupt-shard
    /// degradation the runtime routes like a fault. Returns true if the
    /// vertex was present.
    pub fn corrupt_value(&mut self, v: VertexId) -> bool {
        let garbage: Arc<[u8]> = Arc::from([0xff, 0xde, 0xad]);
        let mut corrupted = false;
        for offset in 0..self.replication {
            let s = self.replica_shard(v, offset);
            if let Some(value) = self.shards[s].values.get_mut(&v) {
                *value = garbage.clone();
                corrupted = true;
            }
        }
        corrupted
    }

    /// Fetches a batch of adjacency sets, grouping the keys by shard so
    /// each touched shard is charged exactly one round trip regardless of
    /// how many of its keys appear in `keys` (the HBase `multi-get`
    /// analogue). Returns the values in request order.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt stored value (use
    /// [`KvStore::try_get_many_routed`] to handle that structurally).
    pub fn get_many(&self, keys: &[VertexId]) -> BatchOutcome {
        self.try_get_many_routed(keys, |_| 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batched fetch with per-primary replica routing: `route(primary)`
    /// names the replica offset every key primarily owned by `primary`
    /// should be served from (0 = no failover). Keys are regrouped by
    /// *serving* shard, so two primaries routed onto the same survivor
    /// still cost one round trip, and accounting charges the shards that
    /// actually answered. The first damaged value aborts the batch with
    /// a [`CorruptValue`]; per-shard statistics are committed only for
    /// sub-batches that decoded cleanly, so the charge never includes
    /// bytes the caller did not receive.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `route` returns an offset at or above
    /// the replication factor.
    pub fn try_get_many_routed(
        &self,
        keys: &[VertexId],
        route: impl Fn(usize) -> usize,
    ) -> Result<BatchOutcome, CorruptValue> {
        let mut values: Vec<Option<Arc<AdjSet>>> = vec![None; keys.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &v) in keys.iter().enumerate() {
            let offset = route(self.shard_of(v));
            debug_assert!(
                offset < self.replication,
                "replica offset {offset} outside replication factor {}",
                self.replication
            );
            by_shard[self.replica_shard(v, offset)].push(i);
        }
        let mut round_trips = 0u64;
        let mut total_bytes = 0u64;
        for (s, indices) in by_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let shard = &self.shards[s];
            round_trips += 1;
            let mut shard_keys = 0u64;
            let mut shard_bytes = 0u64;
            let mut shard_deduped = 0u64;
            // First occurrence of a key in this shard's sub-batch decodes
            // and is charged; every repeat clones the first slot's `Arc`,
            // keeping the 1:1 slot alignment while the wire carries (and
            // the stats charge) each key once.
            let mut first_slot: HashMap<VertexId, usize> = HashMap::new();
            for &i in indices {
                if let Some(&first) = first_slot.get(&keys[i]) {
                    values[i] = values[first].clone();
                    shard_deduped += 1;
                    continue;
                }
                first_slot.insert(keys[i], i);
                if let Some(value) = shard.values.get(&keys[i]) {
                    let decoded = codec::decode(value).map_err(|error| CorruptValue {
                        vertex: keys[i],
                        shard: s,
                        error,
                    })?;
                    shard_keys += 1;
                    shard_bytes += value.len() as u64;
                    values[i] = Some(Arc::new(decoded));
                }
            }
            shard.stats.requests.fetch_add(1, Ordering::Relaxed);
            shard.stats.keys.fetch_add(shard_keys, Ordering::Relaxed);
            shard.stats.bytes.fetch_add(shard_bytes, Ordering::Relaxed);
            shard
                .stats
                .deduped
                .fetch_add(shard_deduped, Ordering::Relaxed);
            total_bytes += shard_bytes;
        }
        Ok(BatchOutcome {
            values,
            round_trips,
            bytes: total_bytes,
        })
    }

    /// Fetches without touching the statistics (used by loaders and
    /// tests).
    pub fn get_unaccounted(&self, v: VertexId) -> Option<Arc<AdjSet>> {
        let shard = &self.shards[self.shard_of(v)];
        shard
            .values
            .get(&v)
            .map(|value| Arc::new(codec::decode(value).unwrap_or_else(|e| panic!("{e}"))))
    }

    /// Aggregated access statistics.
    pub fn stats(&self) -> KvStats {
        let mut total = KvStats::default();
        for s in &self.shards {
            total.requests += s.stats.requests.load(Ordering::Relaxed);
            total.keys += s.stats.keys.load(Ordering::Relaxed);
            total.bytes += s.stats.bytes.load(Ordering::Relaxed);
            total.deduped_keys += s.stats.deduped.load(Ordering::Relaxed);
        }
        total
    }

    /// Statistics of one shard.
    pub fn shard_stats(&self, shard: usize) -> KvStats {
        let s = &self.shards[shard].stats;
        KvStats {
            requests: s.requests.load(Ordering::Relaxed),
            keys: s.keys.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
            deduped_keys: s.deduped.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters (used between experiment runs).
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.stats.requests.store(0, Ordering::Relaxed);
            s.stats.keys.store(0, Ordering::Relaxed);
            s.stats.bytes.store(0, Ordering::Relaxed);
            s.stats.deduped.store(0, Ordering::Relaxed);
        }
    }

    /// Total *primary-copy* value bytes — the "size of the data graph"
    /// that Exp-3's relative cache capacities are measured against.
    /// Every value appears exactly `replication` times across the
    /// shards, so the per-copy total is the raw sum divided by the
    /// replication factor (mirrors are redundancy, not extra data).
    pub fn total_value_bytes(&self) -> usize {
        let raw: usize = self
            .shards
            .iter()
            .map(|s| s.values.values().map(|value| value.len()).sum::<usize>())
            .sum();
        raw / self.replication
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    #[test]
    fn round_trips_adjacency_sets() {
        let g = gen::erdos_renyi_gnm(100, 300, 5);
        let store = KvStore::from_graph(&g, 4);
        for v in g.vertices() {
            let adj = store.get(v).unwrap();
            assert_eq!(adj.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn counts_requests_and_bytes() {
        let g = gen::star(9); // centre 0 has 9 neighbours
        let store = KvStore::from_graph(&g, 2);
        store.get(0).unwrap();
        store.get(1).unwrap();
        store.get(1).unwrap();
        let stats = store.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.keys, 3, "unbatched gets serve one key per request");
        // centre: tag + 9 ids × 4 bytes; leaf: tag + 1 id fetched twice.
        assert_eq!(stats.bytes, 37 + 5 + 5);
    }

    #[test]
    fn get_many_charges_one_round_trip_per_touched_shard() {
        let g = gen::cycle(8);
        let store = KvStore::from_graph(&g, 4);
        // Vertices 0 and 4 share shard 0; 1 is on shard 1: 2 round trips.
        let batch = store.get_many(&[0, 4, 1]);
        assert_eq!(batch.round_trips, 2);
        assert_eq!(batch.values.iter().filter(|v| v.is_some()).count(), 3);
        let stats = store.stats();
        assert_eq!(stats.requests, 2, "per-shard grouping batches round trips");
        assert_eq!(stats.keys, 3, "every key is still served");
        // Each cycle vertex: a tag byte plus 2 neighbours × 4 bytes.
        assert_eq!(stats.bytes, 3 * 9);
        assert_eq!(batch.bytes, stats.bytes);
        assert_eq!(store.shard_stats(0).requests, 1);
        assert_eq!(store.shard_stats(0).keys, 2);
        assert_eq!(store.shard_stats(1).requests, 1);
        assert_eq!(store.shard_stats(2).requests, 0);
    }

    #[test]
    fn get_many_returns_values_in_request_order() {
        let g = gen::path(6);
        let store = KvStore::from_graph(&g, 3);
        let keys = [5u32, 0, 3, 1];
        let batch = store.get_many(&keys);
        for (i, &v) in keys.iter().enumerate() {
            assert_eq!(
                batch.values[i].as_ref().unwrap().as_slice(),
                g.neighbors(v),
                "slot {i} must hold vertex {v}"
            );
        }
    }

    #[test]
    fn get_many_marks_unknown_vertices_none_without_charging_bytes() {
        let g = gen::path(4);
        let store = KvStore::from_graph(&g, 2);
        let batch = store.get_many(&[1, 100]);
        assert!(batch.values[0].is_some());
        assert!(batch.values[1].is_none());
        // The round trip to vertex 100's shard still happened.
        assert_eq!(batch.round_trips, 2);
        assert_eq!(store.stats().keys, 1);
    }

    #[test]
    fn batched_and_unbatched_transfer_identical_bytes() {
        let g = gen::barabasi_albert(60, 3, 7);
        let keys: Vec<VertexId> = g.vertices().collect();
        let store = KvStore::from_graph(&g, 4);
        let batch = store.get_many(&keys);
        let batched = store.stats();
        store.reset_stats();
        for &v in &keys {
            store.get(v).unwrap();
        }
        let unbatched = store.stats();
        assert_eq!(batched.bytes, unbatched.bytes);
        assert_eq!(batched.keys, unbatched.keys);
        assert_eq!(batch.round_trips, 4, "one trip per shard for a full scan");
        assert!(batched.requests < unbatched.requests);
    }

    #[test]
    fn get_many_dedups_repeated_keys_but_keeps_slot_alignment() {
        let g = gen::star(9); // centre 0: 9 neighbours, leaves: 1
        let store = KvStore::from_graph(&g, 2);
        let keys = [0u32, 3, 0, 0, 3, 5];
        let batch = store.get_many(&keys);
        for (i, &v) in keys.iter().enumerate() {
            assert_eq!(
                batch.values[i].as_ref().unwrap().as_slice(),
                g.neighbors(v),
                "slot {i} must hold vertex {v} despite dedup"
            );
        }
        // Duplicates share the first occurrence's decode.
        assert!(Arc::ptr_eq(
            batch.values[0].as_ref().unwrap(),
            batch.values[2].as_ref().unwrap()
        ));
        let stats = store.stats();
        assert_eq!(stats.keys, 3, "only unique keys are served");
        assert_eq!(stats.deduped_keys, 3, "three repeats were saved");
        // Bytes are charged once per unique key: centre (tag + 9×4) +
        // two tagged leaves.
        assert_eq!(stats.bytes, 37 + 5 + 5);
        assert_eq!(batch.bytes, stats.bytes);
    }

    #[test]
    fn deduped_unknown_keys_stay_none_and_uncharged() {
        let g = gen::path(4);
        let store = KvStore::from_graph(&g, 2);
        let batch = store.get_many(&[100, 1, 100]);
        assert!(batch.values[0].is_none());
        assert!(batch.values[1].is_some());
        assert!(batch.values[2].is_none());
        let stats = store.stats();
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.deduped_keys, 1, "the repeated miss is still saved");
    }

    #[test]
    fn repeated_keys_in_a_batch_are_served_and_charged_once() {
        let g = gen::path(6);
        let store = KvStore::from_graph(&g, 2);
        store.get_many(&[2, 2, 4, 2]);
        assert_eq!(
            store.stats().keys,
            2,
            "one charge per served key after dedup"
        );
        assert_eq!(store.stats().deduped_keys, 2);
    }

    #[test]
    fn get_many_of_empty_batch_is_free() {
        let g = gen::path(3);
        let store = KvStore::from_graph(&g, 2);
        let batch = store.get_many(&[]);
        assert!(batch.values.is_empty());
        assert_eq!(batch.round_trips, 0);
        assert_eq!(store.stats(), KvStats::default());
    }

    #[test]
    fn unknown_vertex_is_none_and_unaccounted() {
        let g = gen::path(4);
        let store = KvStore::from_graph(&g, 3);
        assert!(store.get(100).is_none());
        assert_eq!(store.stats().requests, 0);
    }

    #[test]
    fn unaccounted_reads_leave_stats_untouched() {
        let g = gen::path(4);
        let store = KvStore::from_graph(&g, 1);
        assert!(store.get_unaccounted(0).is_some());
        assert_eq!(store.stats(), KvStats::default());
    }

    #[test]
    fn reset_clears_counters() {
        let g = gen::cycle(5);
        let store = KvStore::from_graph(&g, 2);
        store.get(0);
        store.reset_stats();
        assert_eq!(store.stats(), KvStats::default());
    }

    #[test]
    fn shards_partition_all_vertices() {
        let g = gen::erdos_renyi_gnm(50, 100, 1);
        let store = KvStore::from_graph(&g, 7);
        assert_eq!(store.num_shards(), 7);
        for v in g.vertices() {
            assert!(store.shard_of(v) < 7);
            assert!(store.get_unaccounted(v).is_some());
        }
    }

    #[test]
    fn total_value_bytes_matches_graph_plus_tags() {
        let g = gen::complete(6);
        let store = KvStore::from_graph(&g, 3);
        // raw-u32 wire = the raw adjacency bytes plus one tag per value.
        assert_eq!(
            store.total_value_bytes(),
            g.adjacency_bytes() + g.num_vertices()
        );
    }

    #[test]
    fn placement_walks_the_ring_from_the_primary() {
        let g = gen::cycle(10);
        let store = KvStore::from_graph_replicated(&g, 4, 3);
        assert_eq!(store.placement(6).collect::<Vec<_>>(), vec![2, 3, 0]);
        // The ring wraps: vertex 3's mirrors spill past the last shard.
        assert_eq!(store.placement(3).collect::<Vec<_>>(), vec![3, 0, 1]);
        assert_eq!(store.shard_of(6), 2, "shard_of is the placement head");
        assert_eq!(store.replica_shard(6, 2), 0);
    }

    #[test]
    fn replicas_mirror_every_value() {
        let g = gen::barabasi_albert(40, 3, 11);
        let store = KvStore::from_graph_replicated(&g, 5, 2);
        for v in g.vertices() {
            for offset in 0..2 {
                let (adj, _) = store.try_get_replica(v, offset).unwrap().unwrap();
                assert_eq!(adj.as_slice(), g.neighbors(v), "replica {offset} of {v}");
            }
        }
    }

    #[test]
    fn replica_reads_charge_the_serving_shard() {
        let g = gen::path(8);
        let store = KvStore::from_graph_replicated(&g, 4, 2);
        // Vertex 1's primary is shard 1; its mirror lives on shard 2.
        store.try_get_replica(1, 1).unwrap().unwrap();
        assert_eq!(store.shard_stats(1).requests, 0, "primary was bypassed");
        assert_eq!(store.shard_stats(2).requests, 1);
        assert_eq!(store.shard_stats(2).keys, 1);
    }

    #[test]
    fn routed_batches_regroup_by_serving_shard() {
        let g = gen::cycle(8);
        let store = KvStore::from_graph_replicated(&g, 4, 2);
        // Vertices 0 and 4 are primary on shard 0; 1 and 5 on shard 1.
        // Failing shard 0 over to its mirror (shard 1) collapses the
        // whole batch onto one serving shard: one round trip.
        let batch = store
            .try_get_many_routed(&[0, 4, 1, 5], |primary| usize::from(primary == 0))
            .unwrap();
        assert_eq!(batch.round_trips, 1);
        assert_eq!(batch.values.iter().filter(|v| v.is_some()).count(), 4);
        assert_eq!(store.shard_stats(0).requests, 0);
        assert_eq!(store.shard_stats(1).requests, 1);
        assert_eq!(store.shard_stats(1).keys, 4);
    }

    #[test]
    fn unreplicated_store_matches_legacy_behaviour() {
        let g = gen::erdos_renyi_gnm(60, 150, 3);
        let legacy = KvStore::from_graph(&g, 4);
        let explicit = KvStore::from_graph_replicated(&g, 4, 1);
        assert_eq!(legacy.replication(), 1);
        for v in g.vertices() {
            assert_eq!(legacy.shard_of(v), explicit.shard_of(v));
            assert_eq!(legacy.placement(v).count(), 1);
        }
        assert_eq!(legacy.total_value_bytes(), explicit.total_value_bytes());
    }

    #[test]
    fn total_value_bytes_counts_primary_copies_only() {
        let g = gen::complete(6);
        let single = KvStore::from_graph(&g, 3);
        let mirrored = KvStore::from_graph_replicated(&g, 3, 3);
        let wire = g.adjacency_bytes() + g.num_vertices();
        assert_eq!(single.total_value_bytes(), wire);
        assert_eq!(
            mirrored.total_value_bytes(),
            wire,
            "mirrors are redundancy, not extra data"
        );
    }

    #[test]
    fn delta_codec_store_serves_identical_sets_for_fewer_bytes() {
        let g = gen::barabasi_albert(80, 4, 13);
        let raw = KvStore::from_graph_with(&g, 4, 1, CodecKind::RawU32);
        let delta = KvStore::from_graph_with(&g, 4, 1, CodecKind::DeltaVarint);
        assert_eq!(raw.codec(), CodecKind::RawU32);
        assert_eq!(delta.codec(), CodecKind::DeltaVarint);
        for v in g.vertices() {
            let a = raw.get(v).unwrap();
            let b = delta.get(v).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "codec must not change data");
        }
        let (rs, ds) = (raw.stats(), delta.stats());
        assert_eq!(rs.keys, ds.keys);
        assert!(
            ds.bytes < rs.bytes,
            "delta-varint must shrink the wire volume ({} vs {})",
            ds.bytes,
            rs.bytes
        );
        assert!(delta.total_value_bytes() < raw.total_value_bytes());
    }

    #[test]
    fn try_get_reports_wire_bytes_matching_stats() {
        let g = gen::star(9);
        let store = KvStore::from_graph_with(&g, 2, 1, CodecKind::DeltaVarint);
        let (adj, wire) = store.try_get_replica(0, 0).unwrap().unwrap();
        assert_eq!(adj.len(), 9);
        assert_eq!(wire, store.stats().bytes, "single get = whole charge");
        assert!(wire < 37, "delta encoding beats the raw wire");
    }

    #[test]
    fn corrupt_value_surfaces_structured_error_without_charging() {
        let g = gen::cycle(6);
        let mut store = KvStore::from_graph_replicated(&g, 2, 2);
        assert!(store.corrupt_value(3));
        let err = store.try_get_replica(3, 0).unwrap_err();
        assert_eq!(err.vertex, 3);
        assert_eq!(err.shard, store.shard_of(3));
        assert_eq!(err.error, CodecError::UnknownTag(0xff));
        // Every replica is equally rotten.
        assert!(store.try_get_replica(3, 1).is_err());
        // The batch path aborts with the same structured error.
        let batch_err = store.try_get_many_routed(&[0, 3], |_| 0).unwrap_err();
        assert_eq!(batch_err.vertex, 3);
        // Corrupt reads never perturb the byte accounting: only vertex
        // 0's clean shard sub-batch committed its charge; the corrupt
        // shard's sub-batch (and both failed single gets) charged
        // nothing.
        let healthy: u64 = 9; // tag + 2 ids
        assert_eq!(store.stats().bytes, healthy);
        assert_eq!(store.stats().keys, 1);
        // Clean vertices still read fine.
        assert!(store.get(0).is_some());
        assert!(!store.corrupt_value(100), "unknown vertex: nothing to rot");
    }

    #[test]
    #[should_panic(expected = "replication factor 0")]
    fn zero_replication_is_rejected() {
        let g = gen::path(3);
        KvStore::from_graph_replicated(&g, 2, 0);
    }

    #[test]
    #[should_panic(expected = "must be within 1..=2")]
    fn replication_beyond_shard_count_is_rejected() {
        let g = gen::path(3);
        KvStore::from_graph_replicated(&g, 2, 3);
    }

    #[test]
    fn per_shard_stats_attribute_requests() {
        let g = gen::path(6);
        let store = KvStore::from_graph(&g, 2);
        store.get(0); // shard 0
        store.get(2); // shard 0
        store.get(1); // shard 1
        assert_eq!(store.shard_stats(0).requests, 2);
        assert_eq!(store.shard_stats(1).requests, 1);
    }
}
