//! The fault gate: every injected store fault, decided in one place.
//!
//! A [`FaultGate`] stands in front of a lane's database cache and gives
//! one verdict per *logical adjacency access* — cache hit or miss alike
//! — so which accesses fault, how often they are retried and what they
//! cost is a pure function of the fault seed and the access stream,
//! independent of what the cache holds and of which thread missed first
//! (DESIGN.md §4d). A verdict is decision-only
//! ([`FaultingStore::route_many`]; a single vertex is a batch of one):
//! injected transient faults and timeouts are retried under the
//! [`RetryPolicy`] with capped exponential backoff and deterministic
//! jitter, replica failover happens inside an attempt, and a served
//! access leaves with the replica offset the miss path must read. Only
//! an exhausted budget or a hopeless outage surfaces, as a
//! [`TransportError`].
//!
//! Backoff waits, timeout waits and slow-shard latency are **virtual
//! time** — never slept, only charged into a thread-local penalty that
//! the lane executor folds into its busy-time accounting after each
//! task (the plan stays deterministic because no fault decision reads a
//! clock).
//!
//! Both runtimes build their gates here: `Cluster::run` one per worker
//! machine, `benu-service` one per admitted query (over the plan scoped
//! to that query).

use crate::report::RecoveryReport;
use crate::transport::TransportError;
use benu_fault::{FaultKind, FaultPlan, FaultingStore, RetryPolicy};
use benu_graph::VertexId;
use benu_kvstore::KvStore;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Virtual latency (backoff + timeout waits + slow shards) charged
    /// to the task the current thread is executing; drained by
    /// [`FaultGate::take_task_penalty`] at each task boundary.
    static TASK_PENALTY_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// A [`FaultPlan`]'s verdicts over one store, with the retry loop and
/// the recovery counters that go with them.
pub struct FaultGate {
    router: FaultingStore,
    retry: RetryPolicy,
    transient: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    backoff_nanos: AtomicU64,
    timeout_nanos: AtomicU64,
    slow_nanos: AtomicU64,
}

impl FaultGate {
    /// Gates accesses to `store` by `plan`, retrying injected faults
    /// with `retry`.
    pub fn new(store: Arc<KvStore>, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        retry.validate();
        FaultGate {
            router: FaultingStore::new(store, plan),
            retry,
            transient: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
            timeout_nanos: AtomicU64::new(0),
            slow_nanos: AtomicU64::new(0),
        }
    }

    /// Advances the execution pass shard-outage decisions are evaluated
    /// against (1-based). Called by the runtime at pass barriers.
    pub fn set_pass(&self, pass: u32) {
        self.router.set_pass(pass);
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

    /// The verdict for one batched access to `vs`, decided over the
    /// *full* key set at shard-batch granularity — regardless of which
    /// keys the cache already holds: `route[primary]` is the replica
    /// offset to read that primary shard's misses from. Injected
    /// transient faults and timeouts are retried with booked backoff
    /// until the attempts run out — a refused batch fails as a unit and
    /// is retried as a unit, its jitter keyed by its smallest vertex; an
    /// outage — every replica persistently dark — is hopeless, so it
    /// fails fast without touching the retry budget.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] naming the failing shard and the first
    /// vertex of `vs` placed on it.
    pub fn verdict_many(&self, vs: &[VertexId]) -> Result<Vec<usize>, TransportError> {
        let (plan, store) = (self.router.plan(), self.router.store());
        let key = vs.iter().copied().min().unwrap_or(0) as u64;
        let max_attempts = self.retry.max_attempts;
        for attempt in 0..max_attempts {
            let fault = match self.router.route_many(vs, attempt) {
                Ok(route) => {
                    let penalty = self.router.batch_latency_penalty_routed(vs, attempt);
                    self.book(&self.slow_nanos, penalty);
                    return Ok(route);
                }
                Err(fault) => fault,
            };
            let gave_up = |attempts| TransportError {
                shard: fault.shard,
                vertex: vs
                    .iter()
                    .copied()
                    .find(|&v| store.placement(v).any(|s| s == fault.shard))
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
                    self.book(&self.timeout_nanos, plan.timeout_wait());
                }
            }
            if attempt + 1 >= max_attempts {
                return Err(gave_up(max_attempts));
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let backoff = self.retry.backoff(plan.seed(), key, attempt + 1);
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
        Ok(self.verdict_many(&[v])?[self.router.store().shard_of(v)])
    }

    /// What this gate has absorbed so far, as the fields of a
    /// [`RecoveryReport`] it owns (the rest stay zero): injected
    /// transients and timeouts, retries, failovers, and the three
    /// virtual-time totals.
    pub fn absorbed(&self) -> RecoveryReport {
        let nanos = |total: &AtomicU64| Duration::from_nanos(total.load(Ordering::Relaxed));
        RecoveryReport {
            transient_faults: self.transient.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.router.failover_attempts(),
            failover_reads: self.router.failover_reads(),
            backoff_virtual: nanos(&self.backoff_nanos),
            timeout_wait_virtual: nanos(&self.timeout_nanos),
            slow_penalty_virtual: nanos(&self.slow_nanos),
            ..RecoveryReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    fn gate(store: KvStore, plan: FaultPlan, retry: RetryPolicy) -> FaultGate {
        let _ = FaultGate::take_task_penalty();
        FaultGate::new(Arc::new(store), Arc::new(plan), retry)
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
            RetryPolicy::default(),
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
            RetryPolicy::default(),
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
            RetryPolicy::default(),
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
    fn outage_onset_follows_set_pass() {
        let gate = gate(
            KvStore::from_graph(&gen::complete(8), 4),
            FaultPlan::builder(0).shard_outage(2, 2).build(),
            RetryPolicy::default(),
        );
        assert!(gate.verdict(2).is_ok(), "pass 1 predates the outage");
        gate.set_pass(2);
        assert!(gate.verdict(2).is_err());
        gate.set_pass(1);
        assert!(
            gate.verdict(2).is_ok(),
            "windowing is driven purely by the pass"
        );
    }
}
