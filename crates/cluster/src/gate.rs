//! The fault gate: every injected store fault, decided in one place.
//!
//! A [`FaultGate`] stands in front of a lane's database cache and gives
//! one verdict per *logical adjacency access* — cache hit or miss alike
//! — so which accesses fault, how often they are retried and what they
//! cost is a pure function of the fault seed and the access stream,
//! independent of what the cache holds and of which thread missed first
//! (DESIGN.md §4d). A verdict is decision-only — the gate knows the
//! store's *layout* (shard count, replication ring), never its values,
//! and nothing is fetched here, so a refused attempt never reaches the
//! store and the store's request/byte accounting keeps reconciling with
//! the transport's. Injected transient faults and timeouts are retried
//! under the plan's [`FaultPlan::retry`] policy, with capped exponential
//! backoff and deterministic jitter, replica failover happens inside an
//! attempt, and a served access leaves with the replica offset the miss
//! path must read. Only an exhausted budget or a hopeless outage
//! surfaces, as a [`TransportError`].
//!
//! # Failover routing
//!
//! When the store is replicated, every attempt is *routed*: the gate
//! walks the key's placement ring (primary first, mirrors in order) and
//! names the first replica the plan lets answer. A faulted or dark
//! primary is therefore masked by a healthy mirror without the lane ever
//! seeing an error — only when *every* replica refuses does the attempt
//! fail, and the error kind then tells the retry loop whether waiting
//! can help ([`FaultKind::Outage`] means all copies are persistently
//! dark, so it cannot). The routing decision is a pure function of
//! `(plan, key, attempt, epoch)`, keeping failover as replayable as every
//! other fault decision.
//!
//! Backoff waits, timeout waits and slow-shard latency are **virtual
//! time** — never slept, only charged into a thread-local penalty that
//! the lane executor folds into its busy-time accounting after each
//! task (the plan stays deterministic because no fault decision reads a
//! clock).
//!
//! Every job gets its gates from [`crate::Resident::gate`]: a batch run
//! one per worker machine, `benu-service` one per admitted query (over
//! the plan scoped to that query).

use crate::report::RecoveryReport;
use crate::transport::TransportError;
use benu_fault::{FaultError, FaultKind, FaultPlan};
use benu_graph::VertexId;
use benu_kvstore::KvStore;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Virtual latency (backoff + timeout waits + slow shards) charged
    /// to the task the current thread is executing; drained by
    /// [`FaultGate::take_task_penalty`] at each task boundary.
    static TASK_PENALTY_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// A [`FaultPlan`]'s verdicts over one store's layout, with the retry
/// loop and the recovery counters that go with them.
pub struct FaultGate {
    store: Arc<KvStore>,
    plan: Arc<FaultPlan>,
    /// The crash epoch outage windows are evaluated against (1-based,
    /// +1 per [`FaultGate::advance_epoch`]). It publishes no other data
    /// — an attempt reads it once and decides against whichever epoch it
    /// saw — so relaxed accesses are enough.
    epoch: AtomicU32,
    transient: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    failover_reads: AtomicU64,
    backoff_nanos: AtomicU64,
    timeout_nanos: AtomicU64,
    slow_nanos: AtomicU64,
}

/// What one served attempt decided: the replica offset serving each
/// primary shard's group, the dead or faulted replicas stepped past, the
/// groups served by a mirror, and the slow-shard latency of the replicas
/// that served.
struct Route {
    offsets: Vec<usize>,
    skipped: u64,
    failover_groups: u64,
    slow_penalty: Duration,
}

impl FaultGate {
    /// Gates accesses to `store` by `plan`, retrying injected faults
    /// under the plan's own [`FaultPlan::retry`] policy.
    pub fn new(store: Arc<KvStore>, plan: Arc<FaultPlan>) -> Self {
        FaultGate {
            store,
            plan,
            epoch: AtomicU32::new(1),
            transient: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            failover_reads: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
            timeout_nanos: AtomicU64::new(0),
            slow_nanos: AtomicU64::new(0),
        }
    }

    /// Moves shard-outage decisions on to the next crash epoch — the
    /// `pass` of [`FaultPlan::outage_at`]. A batch run advances its gates
    /// each time a dead machine's chunks go back to the survivors.
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains the virtual latency charged to the current thread since
    /// the last drain. Lane executors call this at each task boundary
    /// and fold the result into the task's duration.
    pub fn take_task_penalty() -> Duration {
        TASK_PENALTY_NANOS.with(|p| Duration::from_nanos(p.replace(0)))
    }

    /// Charges `wait` of virtual time to `total` and to the current
    /// thread's task penalty.
    fn book(&self, total: &AtomicU64, wait: Duration) {
        if wait.is_zero() {
            return;
        }
        let nanos = wait.as_nanos() as u64;
        total.fetch_add(nanos, Ordering::Relaxed);
        TASK_PENALTY_NANOS.with(|p| p.set(p.get() + nanos));
    }

    /// Walks `primary`'s placement ring and decides which replica offset
    /// (if any) serves the request keyed by `key` at `(attempt, epoch)`,
    /// with the number of dead or faulted replicas stepped past.
    ///
    /// The error carried home when every replica refuses is retryable
    /// (transient/timeout) if *any* replica merely faulted this attempt,
    /// and [`FaultKind::Outage`] only when every copy is persistently
    /// dark — the one case where retrying cannot help.
    fn scan(
        &self,
        primary: usize,
        key: u64,
        attempt: u32,
        epoch: u32,
    ) -> (Result<usize, FaultError>, u64) {
        let num_shards = self.store.num_shards();
        let mut skipped = 0u64;
        let mut retryable: Option<FaultError> = None;
        let mut last: Option<FaultError> = None;
        for offset in 0..self.store.replication() {
            let shard = (primary + offset) % num_shards;
            let fault = if self.plan.outage_at(shard, epoch) {
                Some(FaultKind::Outage)
            } else {
                self.plan.fault_for(shard, key, attempt)
            };
            let Some(kind) = fault else {
                return (Ok(offset), skipped);
            };
            let err = FaultError { kind, shard };
            if kind != FaultKind::Outage && retryable.is_none() {
                retryable = Some(err);
            }
            last = Some(err);
            skipped += 1;
        }
        let refused = retryable
            .or(last)
            .expect("replication >= 1 guarantees at least one probe");
        (Err(refused), skipped)
    }

    /// The routing decision of the `attempt`-th try at a batched access
    /// to `vs`, one [`FaultGate::scan`] per touched primary shard, keyed
    /// by the smallest vertex primarily owned by it. If any group cannot
    /// be served from any replica the whole batch is refused as a unit
    /// (an all-dark group makes it hopeless, otherwise the first
    /// retryable error is carried home). Each served group pays the
    /// slow-shard penalty of the replica that served it — failing over
    /// away from a slow-and-faulty primary also escapes its latency.
    /// Pure: no counter is touched.
    fn route(&self, vs: &[VertexId], attempt: u32) -> Result<Route, FaultError> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let num_shards = self.store.num_shards();
        let mut route = Route {
            offsets: vec![0; num_shards],
            skipped: 0,
            failover_groups: 0,
            slow_penalty: Duration::ZERO,
        };
        let mut retryable: Option<FaultError> = None;
        let mut hopeless: Option<FaultError> = None;
        for (primary, key) in touched_shards(&self.store, vs) {
            let (outcome, skipped) = self.scan(primary, key, attempt, epoch);
            match outcome {
                Ok(offset) => {
                    route.skipped += skipped;
                    route.failover_groups += u64::from(offset > 0);
                    route.offsets[primary] = offset;
                    route.slow_penalty +=
                        self.plan.latency_penalty((primary + offset) % num_shards);
                }
                Err(err) if err.kind == FaultKind::Outage => hopeless = hopeless.or(Some(err)),
                Err(err) => retryable = retryable.or(Some(err)),
            }
        }
        match hopeless.or(retryable) {
            Some(err) => Err(err),
            None => Ok(route),
        }
    }

    /// The verdict for one batched access to `vs`, decided over the
    /// *full* key set at shard-batch granularity — regardless of which
    /// keys the cache already holds: `route[primary]` is the replica
    /// offset to read that primary shard's misses from. Injected
    /// transient faults and timeouts are retried with booked backoff
    /// until the attempts run out — a refused batch fails as a unit and
    /// is retried as a unit, its jitter keyed by its smallest vertex; an
    /// outage — every replica persistently dark — is hopeless, so it
    /// fails fast without touching the retry budget. Failover counters
    /// reflect served accesses only.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] naming the failing shard and the first
    /// vertex of `vs` placed on it.
    pub fn verdict_many(&self, vs: &[VertexId]) -> Result<Vec<usize>, TransportError> {
        let key = vs.iter().copied().min().unwrap_or(0) as u64;
        let retry = self.plan.retry();
        let max_attempts = retry.max_attempts;
        for attempt in 0..max_attempts {
            let fault = match self.route(vs, attempt) {
                Ok(route) => {
                    // A group served by a mirror stepped past a replica,
                    // so a healthy route writes no shared counter.
                    if route.skipped > 0 {
                        self.failovers.fetch_add(route.skipped, Ordering::Relaxed);
                        self.failover_reads
                            .fetch_add(route.failover_groups, Ordering::Relaxed);
                    }
                    self.book(&self.slow_nanos, route.slow_penalty);
                    return Ok(route.offsets);
                }
                Err(fault) => fault,
            };
            let gave_up = |attempts| TransportError {
                shard: fault.shard,
                vertex: vs
                    .iter()
                    .copied()
                    .find(|&v| self.store.placement(v).any(|s| s == fault.shard))
                    .unwrap_or_default(),
                attempts,
                kind: fault.kind,
            };
            match fault.kind {
                FaultKind::Outage => return Err(gave_up(attempt + 1)),
                FaultKind::Transient => {
                    self.transient.fetch_add(1, Ordering::Relaxed);
                }
                // A timed-out round trip blocks for the plan's full
                // (virtual) timeout before the loss is detected, so the
                // wait is charged per attempt — even the final one.
                FaultKind::Timeout => {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.book(&self.timeout_nanos, self.plan.timeout_wait());
                }
            }
            if attempt + 1 >= max_attempts {
                return Err(gave_up(max_attempts));
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let backoff = retry.backoff(self.plan.seed(), key, attempt + 1);
            self.book(&self.backoff_nanos, backoff);
        }
        unreachable!("retry loop returns on success or exhausted attempts")
    }

    /// The verdict for one access to `v`'s adjacency set — a batch of
    /// one, keyed by `v`: the replica offset to read on a cache miss.
    ///
    /// # Errors
    ///
    /// See [`FaultGate::verdict_many`].
    pub fn verdict(&self, v: VertexId) -> Result<usize, TransportError> {
        Ok(self.verdict_many(&[v])?[self.store.shard_of(v)])
    }

    /// What this gate has absorbed so far, as the fields of a
    /// [`RecoveryReport`] it owns (the rest stay zero): injected
    /// transients and timeouts, retries, failovers, and the three
    /// virtual-time totals.
    pub fn absorbed(&self) -> RecoveryReport {
        let count = |total: &AtomicU64| total.load(Ordering::Relaxed);
        RecoveryReport {
            transient_faults: count(&self.transient),
            timeouts: count(&self.timeouts),
            retries: count(&self.retries),
            failovers: count(&self.failovers),
            failover_reads: count(&self.failover_reads),
            backoff_virtual: Duration::from_nanos(count(&self.backoff_nanos)),
            timeout_wait_virtual: Duration::from_nanos(count(&self.timeout_nanos)),
            slow_penalty_virtual: Duration::from_nanos(count(&self.slow_nanos)),
            ..RecoveryReport::default()
        }
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

    fn gate(store: KvStore, plan: FaultPlan) -> FaultGate {
        let _ = FaultGate::take_task_penalty();
        FaultGate::new(Arc::new(store), Arc::new(plan))
    }

    #[test]
    fn timeouts_charge_the_full_timeout_wait() {
        let wait = Duration::from_millis(25);
        let gate = gate(
            KvStore::from_graph(&gen::complete(16), 4),
            FaultPlan::builder(8)
                .timeout_rate(0.4)
                .timeout_wait(wait)
                .build(),
        );
        let wall = std::time::Instant::now();
        for v in 0..16u32 {
            assert!(gate.verdict(v).is_ok());
        }
        let absorbed = gate.absorbed();
        assert!(
            absorbed.timeouts > 0,
            "rate 0.4 over 16 accesses must time out"
        );
        assert_eq!(
            absorbed.timeout_wait_virtual,
            wait * absorbed.timeouts as u32,
            "every timeout costs one full wait"
        );
        // The wait lands in the per-task penalty alongside the backoff,
        // and is never actually slept.
        assert_eq!(
            FaultGate::take_task_penalty(),
            absorbed.timeout_wait_virtual + absorbed.backoff_virtual
        );
        assert!(wall.elapsed() < absorbed.timeout_wait_virtual);
    }

    #[test]
    fn slow_shards_charge_virtual_latency_not_wall_time() {
        let gate = gate(
            KvStore::from_graph(&gen::cycle(8), 4),
            FaultPlan::builder(1)
                .base_latency(Duration::from_millis(10))
                .slow_shard(0, 3.0)
                .build(),
        );
        let wall = std::time::Instant::now();
        gate.verdict(0).unwrap(); // shard 0: slow
        gate.verdict(1).unwrap(); // shard 1: healthy
        gate.verdict_many(&[2, 4]).unwrap(); // shards 2 and 0

        // 2 slow accesses × 10ms × (3 − 1) = 40ms of virtual latency.
        assert_eq!(
            gate.absorbed().slow_penalty_virtual,
            Duration::from_millis(40)
        );
        assert_eq!(FaultGate::take_task_penalty(), Duration::from_millis(40));
        assert!(
            wall.elapsed() < Duration::from_millis(40),
            "penalties must be charged, not slept"
        );
    }

    #[test]
    fn unreplicated_outage_fails_fast_without_retries() {
        let gate = gate(
            KvStore::from_graph(&gen::complete(8), 4),
            FaultPlan::builder(0).shard_outage(1, 1).build(),
        );
        let err = gate.verdict(1).unwrap_err();
        assert_eq!(err.shard, 1);
        assert_eq!(err.kind, FaultKind::Outage);
        assert_eq!(
            err.attempts, 1,
            "outages are hopeless — no retry budget spent"
        );
        assert_eq!(gate.absorbed().retries, 0);
        assert_eq!(gate.absorbed().backoff_virtual, Duration::ZERO);
        // Batches over the dark shard fail fast too, naming a vertex
        // placed on it.
        let err = gate.verdict_many(&[0, 1, 2]).unwrap_err();
        assert_eq!((err.shard, err.vertex, err.attempts), (1, 1, 1));
        assert_eq!(FaultGate::take_task_penalty(), Duration::ZERO);
    }

    #[test]
    fn outage_windows_follow_the_epoch() {
        let gate = gate(
            KvStore::from_graph(&gen::complete(8), 4),
            FaultPlan::builder(0).shard_outage_window(2, 2, 3).build(),
        );
        assert!(gate.verdict(2).is_ok(), "epoch 1 predates the outage");
        gate.advance_epoch();
        assert!(gate.verdict(2).is_err());
        gate.advance_epoch();
        assert!(
            gate.verdict(2).is_ok(),
            "windowing is driven purely by the epoch"
        );
    }

    // ---- routing decisions (one attempt, no retry loop) ----

    fn replicated(shards: usize, replication: usize) -> KvStore {
        KvStore::from_graph_replicated(&gen::complete(8), shards, replication)
    }

    #[test]
    fn benign_plan_routes_every_access_to_the_primary() {
        let g = gate(
            KvStore::from_graph(&gen::complete(8), 2),
            FaultPlan::benign(0),
        );
        assert_eq!(g.verdict(0), Ok(0));
        assert_eq!(g.verdict(99), Ok(0), "existence is the store's call");
        assert_eq!(g.verdict_many(&[0, 1, 2]), Ok(vec![0, 0]));
        assert!(g.absorbed().is_clean());
    }

    #[test]
    fn batch_decisions_fail_as_a_unit_and_replay() {
        let plan = FaultPlan::builder(2).transient_rate(0.5).build();
        let store = || KvStore::from_graph(&gen::complete(8), 4);
        let g = gate(store(), plan.clone());
        let keys: Vec<VertexId> = (0..8).collect();
        // Deterministic: either the whole batch is refused or every
        // group is routed to its primary.
        if let Ok(route) = g.route(&keys, 0) {
            assert_eq!(route.offsets, vec![0; 4]);
        }
        // Same decision on a replay.
        let replay = gate(store(), plan);
        assert_eq!(
            g.route(&keys, 1).map(|r| r.offsets),
            replay.route(&keys, 1).map(|r| r.offsets)
        );
        assert!(g.absorbed().is_clean(), "routing alone books nothing");
    }

    #[test]
    fn primary_outage_fails_over_to_the_mirror() {
        let g = gate(
            replicated(4, 2),
            FaultPlan::builder(0).shard_outage(0, 1).build(),
        );
        // Vertex 0's primary (shard 0) is dark; its mirror on shard 1
        // serves without surfacing an error.
        assert_eq!(g.verdict(0), Ok(1));
        let absorbed = g.absorbed();
        assert_eq!(absorbed.faults_injected(), 0, "masked faults never surface");
        assert_eq!((absorbed.failovers, absorbed.failover_reads), (1, 1));
        // A vertex primarily off the dark shard routes straight through.
        assert_eq!(g.verdict(1), Ok(0));
        assert_eq!(g.absorbed().failover_reads, 1);
    }

    #[test]
    fn all_replicas_dark_surfaces_an_outage() {
        // Vertex 0's whole placement group {0, 1} is dark.
        let g = gate(
            replicated(4, 2),
            FaultPlan::builder(0)
                .shard_outage(0, 1)
                .shard_outage(1, 1)
                .build(),
        );
        assert_eq!(g.verdict(0).unwrap_err().kind, FaultKind::Outage);
        assert_eq!(g.absorbed().failover_reads, 0, "nothing was served");
        // Vertex 2's placement {2, 3} survives untouched, but a batch
        // over both groups is refused as a unit.
        assert!(g.verdict(2).is_ok());
        assert_eq!(g.verdict_many(&[0, 2]).unwrap_err().kind, FaultKind::Outage);
    }

    #[test]
    fn mixed_outage_and_transient_errors_stay_retryable() {
        // Primary dark; mirror healthy but heavily fault-injected. The
        // refusal must be retryable (the mirror can recover), and some
        // attempt must eventually be served by it.
        let g = gate(
            replicated(4, 2),
            FaultPlan::builder(3)
                .shard_outage(0, 1)
                .transient_rate(0.5)
                .build(),
        );
        let mut served = false;
        for attempt in 0..64 {
            match g.route(&[0], attempt) {
                Ok(route) => {
                    assert_eq!(route.offsets[0], 1, "only the mirror can serve");
                    assert_eq!(route.failover_groups, 1);
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
    }

    #[test]
    fn batches_fail_over_per_primary_group() {
        let g = gate(
            replicated(4, 2),
            FaultPlan::builder(0).shard_outage(0, 1).build(),
        );
        // Primaries: 0, 4 on shard 0 (dark, fails over to 1); 1, 5 on
        // shard 1; 2 on shard 2.
        assert_eq!(g.verdict_many(&[0, 4, 1, 5, 2]), Ok(vec![1, 0, 0, 0]));
        assert_eq!(g.absorbed().failover_reads, 1, "one group failed over");
    }

    #[test]
    fn slow_shard_penalty_prices_the_serving_replica() {
        // Shard 0 is dark *and* slow; its mirror (shard 1) is healthy.
        let g = gate(
            replicated(4, 2),
            FaultPlan::builder(0)
                .base_latency(Duration::from_micros(100))
                .shard_outage(0, 1)
                .slow_shard(0, 5.0)
                .slow_shard(1, 2.0)
                .build(),
        );
        // Vertex 0 is served by shard 1: it pays shard 1's penalty, not
        // the dark primary's; vertex 2's healthy shard adds nothing.
        let penalty = |vs: &[VertexId]| g.route(vs, 0).unwrap().slow_penalty;
        assert_eq!(penalty(&[0]), Duration::from_micros(100));
        assert_eq!(penalty(&[0, 2]), Duration::from_micros(100));
        // Unreplicated, penalties accumulate per touched shard:
        // 200µs (shard 0 at 3×) + 100µs (shard 1 at 2×) + 0.
        let g = gate(
            KvStore::from_graph(&gen::complete(8), 4),
            FaultPlan::builder(0)
                .base_latency(Duration::from_micros(100))
                .slow_shard(0, 3.0)
                .slow_shard(1, 2.0)
                .build(),
        );
        let penalty = |vs: &[VertexId]| g.route(vs, 0).unwrap().slow_penalty;
        assert_eq!(penalty(&[0]), Duration::from_micros(200));
        assert_eq!(penalty(&[0, 4, 1, 2]), Duration::from_micros(300));
    }
}
