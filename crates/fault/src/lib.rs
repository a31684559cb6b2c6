//! Deterministic fault injection for the BENU cluster runtime.
//!
//! BENU's fault-tolerance argument (paper §III-C, extended in
//! arXiv:2006.12819) is that local search tasks are *independent* and
//! *idempotent*: a failed task can simply be regenerated and re-executed
//! on any surviving worker, with no partial state to reconcile. This
//! crate supplies the machinery that lets the runtime prove that claim
//! under test:
//!
//! * [`FaultPlan`] — a seeded, deterministic description of every fault a
//!   run will see: transient store errors, simulated timeouts, slow-shard
//!   latency multipliers (virtual time), worker crashes at task
//!   boundaries, and persistent whole-shard outages scoped to execution
//!   passes. Decisions are pure functions of request identity, so any
//!   failure scenario replays exactly from its seed — no wall clock, no
//!   global ordering dependence.
//! * [`FaultingStore`] — the plan's decisions over a
//!   [`benu_kvstore::KvStore`]'s layout, decision-only: which replica
//!   serves an access at a given attempt, or which fault refuses it.
//!   The consumer asks *before* it reads, so a refused attempt never
//!   reaches the store and byte accounting stays exact. On replicated
//!   stores the answer routes around dead or faulted replicas
//!   (ring-order failover), so a whole-shard outage is invisible to
//!   callers as long as one copy of every value survives.
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter; the wait is virtual time, charged into busy-time accounting
//!   by the consumer instead of slept.
//!
//! The recovery half — the fault gate's per-access retry loop,
//! crash-triggered task requeue, and the `RecoveryReport` — lives in
//! `benu-cluster`, which consumes the router.

pub mod plan;
pub mod retry;
pub mod store;

pub use plan::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder};
pub use retry::RetryPolicy;
pub use store::FaultingStore;
