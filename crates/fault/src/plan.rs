//! The deterministic fault plan.
//!
//! A [`FaultPlan`] is a *pure function* from request identity to fault
//! decision. Nothing in it consults a clock, a global counter, or any
//! other run-time state: whether the `attempt`-th fetch of vertex `v`
//! from shard `s` fails is fully determined by the plan's seed. Two runs
//! over the same plan therefore inject exactly the same faults at exactly
//! the same requests, no matter how threads interleave — every failure
//! scenario is a reproducible unit test.
//!
//! The taxonomy (see DESIGN.md "Fault model & recovery"):
//!
//! * **transient errors** — a store round trip fails and may be retried;
//! * **timeouts** — a round trip is lost after the plan's full (virtual)
//!   timeout wait, which is charged into busy-time accounting; retried
//!   like a transient error but counted separately;
//! * **slow shards** — a shard answers, but `multiplier×` slower; the
//!   extra latency is virtual time charged into busy-time accounting;
//! * **worker crashes** — a worker machine dies at a task boundary after
//!   completing a fixed number of tasks; its in-flight work is discarded
//!   and re-executed elsewhere (BENU's idempotent-task recovery);
//! * **shard outages** — a shard goes *persistently* dark from a given
//!   pass onwards (optionally coming back at a later pass): unlike a
//!   transient error, every request to it fails for as long as the
//!   outage holds, so only replica failover — never a retry — can serve
//!   the data.

use crate::retry::RetryPolicy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Duration;

/// Salt separating store-fault decisions from other decision streams.
const SALT_STORE: u64 = 0x51;
/// Salt for [`FaultPlan::scoped`] seed derivation.
const SALT_SCOPE: u64 = 0x5E;

/// SplitMix64-style combination of the seed with a decision key, giving
/// an independent, well-mixed stream per (salt, a, b) triple.
pub(crate) fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(a)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(b);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` for the decision keyed by `(salt, a, b)`.
pub(crate) fn draw(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    ChaCha8Rng::seed_from_u64(mix(seed, salt, a, b)).gen::<f64>()
}

/// The kind of injected store fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The round trip failed immediately (connection reset, shard
    /// restart). Retryable.
    Transient,
    /// The round trip was lost after a full (virtual) timeout wait.
    /// Retryable, but every attempt costs the plan's
    /// [`FaultPlan::timeout_wait`] in virtual time before the loss is
    /// detected.
    Timeout,
    /// The shard is in a persistent outage: every request to it fails
    /// until the outage (optionally) lifts at a later pass. *Not*
    /// retryable — retrying cannot help while the outage holds, so this
    /// kind only surfaces once replica failover is exhausted too, and
    /// the transport fails fast on it.
    Outage,
}

/// An injected store fault, surfaced to the retry layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// What failed.
    pub kind: FaultKind,
    /// The shard whose round trip failed.
    pub shard: usize,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::Transient => write!(f, "transient fault on shard {}", self.shard),
            FaultKind::Timeout => write!(f, "timeout on shard {}", self.shard),
            FaultKind::Outage => write!(f, "shard {} is down (persistent outage)", self.shard),
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic, seeded description of every fault a run will see.
///
/// Build one with [`FaultPlan::builder`]. Rates are shares of (shard,
/// key) pairs whose attempt faults ([`FaultPlanBuilder::transient_rate`]);
/// crashes are per worker, at a task boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    timeout_rate: f64,
    slow: HashMap<usize, f64>,
    base_latency: Duration,
    timeout_wait: Duration,
    retry: RetryPolicy,
    crashes: HashMap<usize, u64>,
    outages: HashMap<usize, Outage>,
}

/// The pass window during which a shard is dark. Passes are 1-based (the
/// first execution pass is pass 1); `until_pass` is exclusive and `None`
/// means the shard never comes back within the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outage {
    from_pass: u32,
    until_pass: Option<u32>,
}

impl FaultPlan {
    /// Starts a builder with all fault rates at zero.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder(FaultPlan {
            seed,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            slow: HashMap::new(),
            base_latency: Duration::from_micros(200),
            timeout_wait: Duration::from_millis(10),
            retry: RetryPolicy::default(),
            crashes: HashMap::new(),
            outages: HashMap::new(),
        })
    }

    /// A plan that injects nothing (useful as a control arm).
    pub fn benign(seed: u64) -> Self {
        FaultPlan::builder(seed).build()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) injected into the `attempt`-th round trip for
    /// `key` on `shard`. `key` identifies the request (the vertex for
    /// single gets, the smallest vertex routed to the shard for batched
    /// gets); decisions are independent across attempts, so retries
    /// eventually succeed with probability 1 for any rate < 1.
    pub fn fault_for(&self, shard: usize, key: u64, attempt: u32) -> Option<FaultKind> {
        if self.transient_rate <= 0.0 && self.timeout_rate <= 0.0 {
            return None;
        }
        let a = ((shard as u64) << 48) ^ key;
        let x = draw(self.seed, SALT_STORE, a, attempt as u64);
        if x < self.transient_rate {
            Some(FaultKind::Transient)
        } else if x < self.transient_rate + self.timeout_rate {
            Some(FaultKind::Timeout)
        } else {
            None
        }
    }

    /// The *extra* virtual latency a round trip to `shard` pays on top of
    /// the baseline: `base_latency × (multiplier − 1)`, zero for healthy
    /// shards. Charged into busy-time accounting by the transport.
    pub fn latency_penalty(&self, shard: usize) -> Duration {
        match self.slow.get(&shard) {
            Some(&m) if m > 1.0 => self.base_latency.mul_f64(m - 1.0),
            _ => Duration::ZERO,
        }
    }

    /// The full (virtual) wait a timed-out round trip blocks for before
    /// the loss is detected — the deadline a real RPC client would spend.
    /// The transport charges it into busy-time accounting on every
    /// injected [`FaultKind::Timeout`], retried or not.
    pub fn timeout_wait(&self) -> Duration {
        self.timeout_wait
    }

    /// How a gate over this plan retries the transient faults and
    /// timeouts it injects. A plan that injects neither never consults it.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The number of tasks after which `worker` crashes, if the plan
    /// crashes it at all. A worker crashes at most once per run.
    pub fn crash_after(&self, worker: usize) -> Option<u64> {
        self.crashes.get(&worker).copied()
    }

    /// True if `shard` is dark during `pass` (1-based). Pure plan state —
    /// no clock, no counters — so every thread agrees on a shard's
    /// status for the whole pass.
    pub fn outage_at(&self, shard: usize, pass: u32) -> bool {
        match self.outages.get(&shard) {
            Some(o) => pass >= o.from_pass && o.until_pass.is_none_or(|until| pass < until),
            None => false,
        }
    }

    /// Derives a plan whose *per-request* decision stream (transient
    /// errors, timeouts, retry jitter) is independent of this plan's and
    /// of any other scope's, while the *structural* state — slow shards,
    /// worker crashes, shard outages, latencies, rates, the retry policy
    /// — is shared verbatim. This is how concurrent queries draw
    /// independent deterministic fault streams against the same injected
    /// infrastructure failures: scope by query id and every scope sees
    /// the same dark shards, but faults different round trips.
    pub fn scoped(&self, scope: u64) -> FaultPlan {
        FaultPlan {
            seed: mix(self.seed, SALT_SCOPE, scope, 0),
            ..self.clone()
        }
    }
}

/// Fluent builder for [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder(FaultPlan);

impl FaultPlanBuilder {
    /// The share of (shard, key) pairs whose attempt draws an immediate
    /// transient error. The draw is keyed on (shard, key, attempt), not
    /// on the round trip ([`FaultPlan::fault_for`]): a pair whose first
    /// attempt faults faults on every access to it, and its retries draw
    /// afresh. How many faults a run sees therefore follows how often
    /// the faulting pairs are read, not the rate times the round trips.
    ///
    /// # Panics
    ///
    /// Panics if the combined fault rate leaves `[0, 1)`.
    pub fn transient_rate(mut self, rate: f64) -> Self {
        self.0.transient_rate = rate;
        self.check_rates();
        self
    }

    /// The share of (shard, key) pairs whose attempt draws a simulated
    /// timeout, keyed like [`FaultPlanBuilder::transient_rate`].
    ///
    /// # Panics
    ///
    /// Panics if the combined fault rate leaves `[0, 1)`.
    pub fn timeout_rate(mut self, rate: f64) -> Self {
        self.0.timeout_rate = rate;
        self.check_rates();
        self
    }

    fn check_rates(&self) {
        let total = self.0.transient_rate + self.0.timeout_rate;
        assert!(
            self.0.transient_rate >= 0.0 && self.0.timeout_rate >= 0.0 && total < 1.0,
            "fault rates must be non-negative and sum below 1 (got {total})"
        );
    }

    /// Marks `shard` as slow: every round trip to it pays
    /// `base_latency × (multiplier − 1)` extra virtual latency.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1`.
    pub fn slow_shard(mut self, shard: usize, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0, "latency multiplier must be ≥ 1");
        self.0.slow.insert(shard, multiplier);
        self
    }

    /// The baseline round-trip latency the slow-shard multipliers scale
    /// (virtual time; never slept).
    pub fn base_latency(mut self, latency: Duration) -> Self {
        self.0.base_latency = latency;
        self
    }

    /// The (virtual) wait every injected timeout costs before its loss
    /// is detected (never slept; charged into busy-time accounting).
    /// Defaults to 10 ms.
    pub fn timeout_wait(mut self, wait: Duration) -> Self {
        self.0.timeout_wait = wait;
        self
    }

    /// How gates retry injected transient faults and timeouts (capped
    /// exponential backoff with deterministic jitter, virtual time).
    /// Defaults to [`RetryPolicy::default`].
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.0.retry = policy;
        self
    }

    /// Crashes `worker` at the task boundary after it has completed
    /// `after_tasks` tasks (its `after_tasks`-th completion kills it).
    ///
    /// # Panics
    ///
    /// Panics if `after_tasks` is zero (a worker that never ran anything
    /// has no boundary to crash at).
    pub fn crash(mut self, worker: usize, after_tasks: u64) -> Self {
        assert!(after_tasks >= 1, "crash boundary must be ≥ 1 task");
        self.0.crashes.insert(worker, after_tasks);
        self
    }

    /// Takes `shard` down persistently from pass `from_pass` (1-based)
    /// onwards — every request to it fails until the end of the run.
    ///
    /// # Panics
    ///
    /// Panics if `from_pass` is zero (passes are 1-based; there is no
    /// pass 0 to darken).
    pub fn shard_outage(mut self, shard: usize, from_pass: u32) -> Self {
        assert!(
            from_pass >= 1,
            "outage passes are 1-based (pass 0 does not exist)"
        );
        self.0.outages.insert(
            shard,
            Outage {
                from_pass,
                until_pass: None,
            },
        );
        self
    }

    /// Takes `shard` down for the half-open pass window
    /// `[from_pass, until_pass)`: dark from `from_pass`, healthy again
    /// once `until_pass` starts — the deterministic "recovery pass".
    ///
    /// # Panics
    ///
    /// Panics if `from_pass` is zero or the window is empty
    /// (`until_pass <= from_pass`).
    pub fn shard_outage_window(mut self, shard: usize, from_pass: u32, until_pass: u32) -> Self {
        assert!(
            from_pass >= 1,
            "outage passes are 1-based (pass 0 does not exist)"
        );
        assert!(
            until_pass > from_pass,
            "outage window [{from_pass}, {until_pass}) is empty"
        );
        self.0.outages.insert(
            shard,
            Outage {
                from_pass,
                until_pass: Some(until_pass),
            },
        );
        self
    }

    /// Finalises the plan.
    ///
    /// # Panics
    ///
    /// Panics on an invalid retry policy, or if timeouts are enabled
    /// with a zero `timeout_wait`: a timeout that waits for nothing is
    /// indistinguishable from a transient error and would silently
    /// corrupt the virtual-time accounting. Checked here rather than in
    /// the setters because the two can be configured in either order.
    pub fn build(self) -> FaultPlan {
        self.0.retry.validate();
        assert!(
            self.0.timeout_rate <= 0.0 || !self.0.timeout_wait.is_zero(),
            "timeout_wait must be positive when timeouts are enabled \
             (a timeout that waits for nothing is just a transient error)"
        );
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::builder(42).transient_rate(0.3).build();
        let a: Vec<_> = (0..200).map(|v| plan.fault_for(1, v, 0)).collect();
        let b: Vec<_> = (0..200).rev().map(|v| plan.fault_for(1, v, 0)).collect();
        let b_fwd: Vec<_> = b.into_iter().rev().collect();
        assert_eq!(a, b_fwd, "decision must not depend on evaluation order");
        assert!(a.iter().any(Option::is_some));
        assert!(a.iter().any(Option::is_none));
    }

    #[test]
    fn rates_control_fault_frequency() {
        let plan = FaultPlan::builder(7)
            .transient_rate(0.2)
            .timeout_rate(0.1)
            .build();
        let n = 20_000u64;
        let mut transients = 0u64;
        let mut timeouts = 0u64;
        for v in 0..n {
            match plan.fault_for(0, v, 0) {
                Some(FaultKind::Transient) => transients += 1,
                Some(FaultKind::Timeout) => timeouts += 1,
                // `fault_for` draws only transients and timeouts;
                // outages are pass-scoped, not sampled.
                Some(FaultKind::Outage) => unreachable!(),
                None => {}
            }
        }
        let t = transients as f64 / n as f64;
        let o = timeouts as f64 / n as f64;
        assert!((t - 0.2).abs() < 0.02, "transient rate off: {t}");
        assert!((o - 0.1).abs() < 0.02, "timeout rate off: {o}");
    }

    #[test]
    fn attempts_draw_independent_decisions() {
        let plan = FaultPlan::builder(3).transient_rate(0.5).build();
        // Some vertex that faults on attempt 0 must succeed on a later
        // attempt (retries converge).
        let v = (0..1000)
            .find(|&v| plan.fault_for(0, v, 0).is_some())
            .expect("some fault at rate 0.5");
        let recovered = (1..64).any(|a| plan.fault_for(0, v, a).is_none());
        assert!(recovered, "independent attempts must eventually succeed");
    }

    #[test]
    fn benign_plan_injects_nothing() {
        let plan = FaultPlan::benign(99);
        for v in 0..100 {
            assert_eq!(plan.fault_for(0, v, 0), None);
        }
        assert_eq!(plan.latency_penalty(0), Duration::ZERO);
        assert_eq!(plan.crash_after(0), None);
    }

    #[test]
    fn slow_shards_charge_scaled_penalty() {
        let plan = FaultPlan::builder(1)
            .base_latency(Duration::from_micros(100))
            .slow_shard(2, 5.0)
            .build();
        assert_eq!(plan.latency_penalty(2), Duration::from_micros(400));
        assert_eq!(plan.latency_penalty(0), Duration::ZERO);
    }

    #[test]
    fn timeout_wait_defaults_and_round_trips() {
        let plan = FaultPlan::benign(0);
        assert!(
            plan.timeout_wait() > Duration::ZERO,
            "a timeout that waits for nothing is just a transient"
        );
        let plan = FaultPlan::builder(0)
            .timeout_wait(Duration::from_millis(250))
            .build();
        assert_eq!(plan.timeout_wait(), Duration::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempt_retry_policy_is_rejected() {
        FaultPlan::builder(0)
            .retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            })
            .build();
    }

    #[test]
    fn crash_plan_round_trips() {
        let plan = FaultPlan::builder(0).crash(2, 10).build();
        assert_eq!(plan.crash_after(2), Some(10));
        assert_eq!(plan.crash_after(0), None);
    }

    #[test]
    fn outages_cover_their_pass_window() {
        let plan = FaultPlan::builder(0)
            .shard_outage(2, 2)
            .shard_outage_window(0, 1, 3)
            .build();
        // Persistent outage: dark from pass 2 to the end of time.
        assert!(!plan.outage_at(2, 1));
        assert!(plan.outage_at(2, 2));
        assert!(plan.outage_at(2, 100));
        // Windowed outage: dark in passes 1 and 2, back for pass 3.
        assert!(plan.outage_at(0, 1));
        assert!(plan.outage_at(0, 2));
        assert!(!plan.outage_at(0, 3));
        // Untouched shards are always healthy.
        assert!(!plan.outage_at(1, 1));
    }

    #[test]
    fn scoped_plans_share_structure_but_not_decision_streams() {
        let plan = FaultPlan::builder(21)
            .transient_rate(0.3)
            .shard_outage(1, 1)
            .slow_shard(2, 4.0)
            .crash(0, 5)
            .build();
        let a = plan.scoped(0);
        let b = plan.scoped(1);
        // Structural faults are shared across scopes.
        for p in [&a, &b] {
            assert!(p.outage_at(1, 1));
            assert_eq!(p.latency_penalty(2), plan.latency_penalty(2));
            assert_eq!(p.crash_after(0), Some(5));
            assert_eq!(
                (p.transient_rate, p.timeout_rate),
                (plan.transient_rate, plan.timeout_rate)
            );
        }
        // Per-request decisions are independent per scope, and each
        // scope replays its own stream exactly.
        let stream = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..200).map(|v| p.fault_for(0, v, 0)).collect()
        };
        assert_eq!(stream(&a), stream(&plan.scoped(0)), "scopes replay");
        assert_ne!(stream(&a), stream(&b), "scopes draw independently");
        assert_ne!(stream(&a), stream(&plan), "scope 0 is not the parent");
    }

    #[test]
    fn scoped_plans_keep_the_retry_policy() {
        assert_eq!(FaultPlan::benign(0).retry(), RetryPolicy::default());
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let plan = FaultPlan::builder(5)
            .transient_rate(0.2)
            .retry(policy)
            .build();
        for scope in 0..4 {
            assert_eq!(plan.scoped(scope).retry(), policy);
        }
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn rates_above_one_are_rejected() {
        FaultPlan::builder(0).transient_rate(0.7).timeout_rate(0.4);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rates_are_rejected() {
        FaultPlan::builder(0).transient_rate(-0.1);
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn single_rate_above_one_is_rejected() {
        FaultPlan::builder(0).timeout_rate(1.2);
    }

    #[test]
    #[should_panic(expected = "timeout_wait must be positive")]
    fn zero_timeout_wait_with_timeouts_is_rejected() {
        FaultPlan::builder(0)
            .timeout_wait(Duration::ZERO)
            .timeout_rate(0.1)
            .build();
    }

    #[test]
    fn zero_timeout_wait_without_timeouts_is_fine() {
        // Only the combination is contradictory; a plan that never times
        // out may zero the wait freely.
        let plan = FaultPlan::builder(0).timeout_wait(Duration::ZERO).build();
        assert_eq!(plan.timeout_wait(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "boundary must be ≥ 1")]
    fn zero_task_crash_is_rejected() {
        FaultPlan::builder(0).crash(0, 0);
    }

    #[test]
    #[should_panic(expected = "passes are 1-based")]
    fn outage_at_pass_zero_is_rejected() {
        FaultPlan::builder(0).shard_outage(0, 0);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_outage_window_is_rejected() {
        FaultPlan::builder(0).shard_outage_window(0, 2, 2);
    }
}
