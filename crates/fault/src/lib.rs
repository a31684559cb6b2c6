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
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter; the wait is virtual time, charged into busy-time accounting
//!   by the consumer instead of slept. A plan carries its policy
//!   ([`FaultPlanBuilder::retry`]): only the faults it injects are
//!   retried.
//!
//! The crate is pure decisions: it knows no store and fetches nothing.
//! Everything that applies a plan to a deployment — the fault gate's
//! routing over the store's replica ring, its per-access retry loop,
//! crash-triggered task requeue, and the `RecoveryReport` — lives in
//! `benu-cluster`.

pub mod plan;
pub mod retry;

pub use plan::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder};
pub use retry::RetryPolicy;
