//! The fault router: a [`FaultPlan`]'s decisions over a store's layout.
//!
//! [`FaultingStore`] pairs a [`KvStore`]'s placement (shard count,
//! replication ring) with a [`FaultPlan`] and answers one question per
//! access: *which replica serves this attempt, or why can none?* It is
//! decision-only — nothing is fetched here. The caller (the cluster's
//! fault gate) asks before it reads, so a refused attempt never reaches
//! the store and the store's request/byte accounting keeps reconciling
//! with the transport's. The API is attempt-aware — callers pass the
//! attempt number so the plan can make independent decisions per retry.
//!
//! # Failover routing
//!
//! When the store is replicated, every access is *routed*: the router
//! walks the key's placement ring (primary first, mirrors in order) and
//! names the first replica the plan lets answer. A faulted or dark
//! primary is therefore masked by a healthy mirror without the caller
//! ever seeing an error — only when *every* replica refuses does the
//! access fail, and the error kind then tells the retry layer whether
//! waiting can help ([`FaultKind::Outage`] means all copies are
//! persistently dark, so it cannot). The routing decision is a pure
//! function of `(plan, key, attempt, pass)`, keeping failover as
//! replayable as every other fault decision.

use crate::plan::{FaultError, FaultKind, FaultPlan};
use benu_graph::VertexId;
use benu_kvstore::KvStore;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A [`FaultPlan`]'s routing decisions over a [`KvStore`]'s layout.
pub struct FaultingStore {
    store: Arc<KvStore>,
    plan: Arc<FaultPlan>,
    injected: AtomicU64,
    /// The execution pass requests are currently attributed to (1-based;
    /// advanced by the runtime at pass barriers, so no request is ever
    /// in flight across a change).
    pass: AtomicU32,
    failover_attempts: AtomicU64,
    failover_reads: AtomicU64,
}

/// What one placement scan decided: which replica serves (or why none
/// can), plus how many dead/faulted replicas the scan stepped past.
struct Scan {
    outcome: Result<usize, FaultError>,
    skipped: u64,
}

impl FaultingStore {
    /// Routes accesses to `store`'s layout by `plan`.
    pub fn new(store: Arc<KvStore>, plan: Arc<FaultPlan>) -> Self {
        FaultingStore {
            store,
            plan,
            injected: AtomicU64::new(0),
            pass: AtomicU32::new(1),
            failover_attempts: AtomicU64::new(0),
            failover_reads: AtomicU64::new(0),
        }
    }

    /// The store whose layout is routed over.
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The plan driving the injection.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Faults injected through this router so far. Counts errors that
    /// actually surfaced to the caller — a primary fault masked by a
    /// replica read shows up in [`FaultingStore::failover_attempts`]
    /// instead, keeping this counter reconciled with the retry layer's.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Times the router stepped past a dead or faulted replica to try
    /// the next one in ring order.
    pub fn failover_attempts(&self) -> u64 {
        self.failover_attempts.load(Ordering::Relaxed)
    }

    /// Accesses routed to a non-primary replica.
    pub fn failover_reads(&self) -> u64 {
        self.failover_reads.load(Ordering::Relaxed)
    }

    /// Advances the pass outage decisions are evaluated against. Called
    /// by the runtime at pass barriers (no request is in flight), so a
    /// relaxed store is enough.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// The pass requests are currently attributed to (1-based).
    pub fn pass(&self) -> u32 {
        self.pass.load(Ordering::Relaxed)
    }

    /// Walks `primary`'s placement ring and decides which replica (if
    /// any) serves the request keyed by `key` at `(attempt, pass)`.
    /// Pure: no counters are touched, so the latency-penalty paths can
    /// re-run the same scan without double counting.
    ///
    /// The error carried home when every replica refuses is retryable
    /// (transient/timeout) if *any* replica merely faulted this attempt,
    /// and [`FaultKind::Outage`] only when every copy is persistently
    /// dark — the one case where retrying cannot help.
    fn scan(&self, primary: usize, key: u64, attempt: u32, pass: u32) -> Scan {
        let num_shards = self.store.num_shards();
        let mut skipped = 0u64;
        let mut retryable: Option<FaultError> = None;
        let mut last: Option<FaultError> = None;
        for offset in 0..self.store.replication() {
            let shard = (primary + offset) % num_shards;
            let fault = if self.plan.outage_at(shard, pass) {
                Some(FaultKind::Outage)
            } else {
                self.plan.fault_for(shard, key, attempt)
            };
            match fault {
                None => {
                    return Scan {
                        outcome: Ok(offset),
                        skipped,
                    }
                }
                Some(kind) => {
                    let err = FaultError { kind, shard };
                    if kind != FaultKind::Outage && retryable.is_none() {
                        retryable = Some(err);
                    }
                    last = Some(err);
                    skipped += 1;
                }
            }
        }
        Scan {
            outcome: Err(retryable
                .or(last)
                .expect("replication >= 1 guarantees at least one probe")),
            skipped,
        }
    }

    /// The per-primary-group routing decision of the `attempt`-th try at
    /// a batched multi-get over `keys`: `route[primary]` is the replica
    /// offset serving that group, or the fault that refuses the batch
    /// (retryable unless its kind is [`FaultKind::Outage`]). Decisions
    /// are keyed by the smallest vertex primarily owned by each shard;
    /// if any group cannot be served from any replica the whole batch
    /// fails as a unit (an all-dark group makes it hopeless, otherwise
    /// the first retryable error is carried home). Failover counters
    /// reflect served accesses, `injected` surfaced errors. Nothing is
    /// fetched, so a caller that fronts the store with a cache can ask
    /// on every *logical* access, independent of what the cache happens
    /// to hold, and keep failure outcomes a pure function of the seed.
    pub fn route_many(&self, keys: &[VertexId], attempt: u32) -> Result<Vec<usize>, FaultError> {
        let pass = self.pass();
        let mut route: Vec<usize> = vec![0; self.store.num_shards()];
        let mut skipped = 0u64;
        let mut failover_groups = 0u64;
        let mut retryable: Option<FaultError> = None;
        let mut hopeless: Option<FaultError> = None;
        for (primary, key) in touched_shards(&self.store, keys) {
            let scan = self.scan(primary, key, attempt, pass);
            match scan.outcome {
                Ok(offset) => {
                    skipped += scan.skipped;
                    if offset > 0 {
                        failover_groups += 1;
                    }
                    route[primary] = offset;
                }
                // An all-dark group makes the whole batch hopeless this
                // pass; otherwise keep the first retryable error.
                Err(err) if err.kind == FaultKind::Outage => hopeless = hopeless.or(Some(err)),
                Err(err) => retryable = retryable.or(Some(err)),
            }
        }
        if let Some(err) = hopeless.or(retryable) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        if skipped > 0 {
            self.failover_attempts.fetch_add(skipped, Ordering::Relaxed);
        }
        if failover_groups > 0 {
            self.failover_reads
                .fetch_add(failover_groups, Ordering::Relaxed);
        }
        Ok(route)
    }

    /// [`FaultingStore::route_many`] for the single vertex `v` — a batch
    /// of one, keyed by `v`: the replica offset that serves it.
    pub fn route_for(&self, v: VertexId, attempt: u32) -> Result<usize, FaultError> {
        Ok(self.route_many(&[v], attempt)?[self.store.shard_of(v)])
    }

    /// The total slow-shard penalty of a successful batch over `keys`
    /// at `attempt`: one round trip per touched primary-shard group,
    /// each paying the penalty of the replica that served it — failing
    /// over away from a slow-and-faulty primary also escapes its
    /// latency. Re-runs the (pure) routing scan, so it must be called
    /// with the same `attempt` as the decision it prices.
    pub fn batch_latency_penalty_routed(&self, keys: &[VertexId], attempt: u32) -> Duration {
        let pass = self.pass();
        let num_shards = self.store.num_shards();
        touched_shards(&self.store, keys)
            .into_iter()
            .map(
                |(primary, key)| match self.scan(primary, key, attempt, pass).outcome {
                    Ok(offset) => self.plan.latency_penalty((primary + offset) % num_shards),
                    Err(_) => Duration::ZERO,
                },
            )
            .sum()
    }
}

/// The distinct *primary* shards a batch touches, each paired with the
/// smallest vertex primarily owned by it (the batch's deterministic
/// per-group decision key; failover may serve a group elsewhere).
fn touched_shards(store: &KvStore, keys: &[VertexId]) -> Vec<(usize, u64)> {
    let mut min_key: Vec<Option<u64>> = vec![None; store.num_shards()];
    for &v in keys {
        let s = store.shard_of(v);
        let k = v as u64;
        min_key[s] = Some(min_key[s].map_or(k, |m: u64| m.min(k)));
    }
    min_key
        .into_iter()
        .enumerate()
        .filter_map(|(s, k)| k.map(|k| (s, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    fn store(shards: usize) -> Arc<KvStore> {
        Arc::new(KvStore::from_graph(&gen::complete(8), shards))
    }

    #[test]
    fn benign_plan_routes_every_access_to_the_primary() {
        let f = FaultingStore::new(store(2), Arc::new(FaultPlan::benign(0)));
        assert_eq!(f.route_for(0, 0), Ok(0));
        assert_eq!(f.route_for(99, 0), Ok(0), "existence is the store's call");
        assert_eq!(f.route_many(&[0, 1, 2], 0), Ok(vec![0, 0]));
        assert_eq!(f.injected(), 0);
        assert_eq!(f.failover_attempts(), 0);
    }

    #[test]
    fn surfaced_faults_are_counted_as_injected() {
        let plan = Arc::new(FaultPlan::builder(11).transient_rate(0.9).build());
        let f = FaultingStore::new(store(1), plan);
        let faults = (0..8u32).filter(|&v| f.route_for(v, 0).is_err()).count();
        assert!(faults > 0, "rate 0.9 must fault something");
        assert_eq!(f.injected(), faults as u64);
    }

    #[test]
    fn batch_decisions_fail_as_a_unit_and_replay() {
        let s = store(4);
        let plan = Arc::new(FaultPlan::builder(2).transient_rate(0.5).build());
        let f = FaultingStore::new(Arc::clone(&s), plan);
        let keys: Vec<VertexId> = (0..8).collect();
        // Deterministic: either the whole batch is refused (one surfaced
        // fault) or every group is routed.
        match f.route_many(&keys, 0) {
            Ok(route) => assert_eq!(route, vec![0; 4]),
            Err(_) => assert_eq!(f.injected(), 1),
        }
        // Same decision on a replay.
        let replay = FaultingStore::new(s, Arc::clone(f.plan()));
        assert_eq!(f.route_many(&keys, 1), replay.route_many(&keys, 1));
    }

    fn replicated_store(shards: usize, replication: usize) -> Arc<KvStore> {
        Arc::new(KvStore::from_graph_replicated(
            &gen::complete(8),
            shards,
            replication,
        ))
    }

    #[test]
    fn primary_outage_fails_over_to_the_mirror() {
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(0, 1).build());
        let f = FaultingStore::new(replicated_store(4, 2), plan);
        // Vertex 0's primary (shard 0) is dark; its mirror on shard 1
        // serves without surfacing an error.
        assert_eq!(f.route_for(0, 0), Ok(1));
        assert_eq!(f.injected(), 0, "masked faults never surface");
        assert_eq!(f.failover_attempts(), 1);
        assert_eq!(f.failover_reads(), 1);
        // A vertex primarily off the dark shard routes straight through.
        assert_eq!(f.route_for(1, 0), Ok(0));
        assert_eq!(f.failover_reads(), 1);
    }

    #[test]
    fn all_replicas_dark_surfaces_an_outage() {
        // Vertex 0's whole placement group {0, 1} is dark.
        let plan = Arc::new(
            FaultPlan::builder(0)
                .shard_outage(0, 1)
                .shard_outage(1, 1)
                .build(),
        );
        let f = FaultingStore::new(replicated_store(4, 2), plan);
        assert_eq!(f.route_for(0, 0).unwrap_err().kind, FaultKind::Outage);
        assert_eq!(f.injected(), 1);
        assert_eq!(f.failover_reads(), 0, "nothing was served");
        // Vertex 2's placement {2, 3} survives untouched.
        assert!(f.route_for(2, 0).is_ok());
    }

    #[test]
    fn outage_onset_respects_the_pass() {
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(0, 2).build());
        let f = FaultingStore::new(replicated_store(2, 1), plan);
        assert!(f.route_for(0, 0).is_ok(), "pass 1 predates the outage");
        f.set_pass(2);
        assert_eq!(f.route_for(0, 5).unwrap_err().kind, FaultKind::Outage);
        assert_eq!(
            f.failover_attempts(),
            0,
            "unreplicated stores have nowhere to fail over to"
        );
    }

    #[test]
    fn mixed_outage_and_transient_errors_stay_retryable() {
        // Primary dark; mirror healthy but heavily fault-injected. The
        // surfaced error must be retryable (the mirror can recover), and
        // some attempt must eventually be served by it.
        let plan = Arc::new(
            FaultPlan::builder(3)
                .shard_outage(0, 1)
                .transient_rate(0.5)
                .build(),
        );
        let f = FaultingStore::new(replicated_store(4, 2), plan);
        let mut served = false;
        for attempt in 0..64 {
            match f.route_for(0, attempt) {
                Ok(offset) => {
                    assert_eq!(offset, 1, "only the mirror can serve");
                    served = true;
                    break;
                }
                Err(err) => assert_ne!(
                    err.kind,
                    FaultKind::Outage,
                    "a live mirror keeps the error retryable"
                ),
            }
        }
        assert!(served, "independent attempts must reach the mirror");
        assert!(f.failover_reads() >= 1);
    }

    #[test]
    fn batches_fail_over_per_primary_group() {
        let plan = Arc::new(FaultPlan::builder(0).shard_outage(0, 1).build());
        let f = FaultingStore::new(replicated_store(4, 2), plan);
        // Primaries: 0, 4 on shard 0 (dark, fails over to 1); 1, 5 on
        // shard 1; 2 on shard 2.
        assert_eq!(f.route_many(&[0, 4, 1, 5, 2], 0), Ok(vec![1, 0, 0, 0]));
        assert_eq!(f.failover_reads(), 1, "one group failed over");
    }

    #[test]
    fn batch_with_a_hopeless_group_fails_fast_as_outage() {
        let plan = Arc::new(
            FaultPlan::builder(0)
                .shard_outage(0, 1)
                .shard_outage(1, 1)
                .build(),
        );
        let f = FaultingStore::new(replicated_store(4, 2), plan);
        // Vertex 0's group {0, 1} is all dark; vertex 2's group is fine:
        // the batch is refused as a unit.
        let err = f.route_many(&[0, 2], 0).unwrap_err();
        assert_eq!(err.kind, FaultKind::Outage);
        assert_eq!(f.injected(), 1);
    }

    #[test]
    fn routed_latency_penalty_prices_the_serving_replica() {
        let s = replicated_store(4, 2);
        // Shard 0 is dark *and* slow; its mirror (shard 1) is healthy.
        let plan = Arc::new(
            FaultPlan::builder(0)
                .base_latency(Duration::from_micros(100))
                .shard_outage(0, 1)
                .slow_shard(0, 5.0)
                .slow_shard(1, 2.0)
                .build(),
        );
        let f = FaultingStore::new(s, plan);
        // Vertex 0 is served by shard 1: it pays shard 1's penalty, not
        // the dark primary's.
        assert_eq!(
            f.batch_latency_penalty_routed(&[0], 0),
            Duration::from_micros(100),
            "the failover read pays the mirror's penalty"
        );
        // Batch over vertices 0 (served by 1) and 2 (healthy shard 2).
        assert_eq!(
            f.batch_latency_penalty_routed(&[0, 2], 0),
            Duration::from_micros(100)
        );
    }

    #[test]
    fn slow_shard_penalties_accumulate_per_touched_shard() {
        let plan = Arc::new(
            FaultPlan::builder(0)
                .base_latency(Duration::from_micros(100))
                .slow_shard(0, 3.0)
                .slow_shard(1, 2.0)
                .build(),
        );
        let f = FaultingStore::new(store(4), plan);
        assert_eq!(
            f.batch_latency_penalty_routed(&[0], 0),
            Duration::from_micros(200)
        );
        // Batch touching shards 0, 1 and 2: 200µs + 100µs + 0.
        assert_eq!(
            f.batch_latency_penalty_routed(&[0, 4, 1, 2], 0),
            Duration::from_micros(300)
        );
    }
}
