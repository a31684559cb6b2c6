//! The simulated shared-nothing cluster runtime (paper §III, Fig. 2).
//!
//! The paper runs BENU as a MapReduce job: local search tasks are
//! generated from the data vertices (with task splitting, §V-B), shuffled
//! evenly to one reducer per worker machine, and executed by a pool of
//! working threads per reducer; every machine hosts a shared database
//! cache in front of the distributed store.
//!
//! This crate reproduces that topology in one process, layered as:
//!
//! * **resident** — one [`Resident`] is the loaded deployment, described
//!   by one [`DataPath`]: it owns the store, the per-worker caches, the
//!   total order and degree array, and is the only place either runtime
//!   (this crate's [`Cluster`], `benu-service`'s `QueryService`) loads a
//!   graph, splits a task list, builds a fault gate or binds a lane;
//! * **store** — the data graph lives in a [`benu_kvstore::KvStore`]
//!   sharded across the workers;
//! * **transport** — every worker's store traffic flows through a
//!   faultless [`transport::Transport`], which accounts bytes, round
//!   trips and batched multi-gets, and owns the one cache-fronted fetch
//!   ([`transport::Transport::fetch_through`] and its batched sibling:
//!   probe the cache, fetch the misses, insert);
//! * **cache** — each logical worker owns a byte-budgeted
//!   [`benu_cache::DbCache`] shared by its (real OS) worker threads and
//!   *persistent across runs* (see [`Cluster::clear_caches`]);
//! * **scheduler** — a pluggable [`schedule::Scheduler`] hands tasks to
//!   threads: static round-robin (the paper's even shuffle) or work
//!   stealing for skewed task sets;
//! * **worker** — each thread runs a [`worker::Worker`] loop over a
//!   [`worker::LaneExecutor`] bound to a [`worker::LaneSource`]: the
//!   single executor (engine + private triangle cache, DFS or hybrid,
//!   count or collect) and the single read path (fault gate → cache →
//!   transport) that cluster threads and `benu-service`'s chunk
//!   execution both run tasks through. It fails soft: store/task errors
//!   surface as [`WorkerError`] instead of panics;
//! * **recovery** — with a [`benu_fault::FaultPlan`] installed via
//!   [`Cluster::set_fault_plan`], each machine's [`gate::FaultGate`]
//!   decides every injected store fault per logical adjacency access,
//!   *in front of* the cache, and retries with capped virtual backoff;
//!   crashed workers' tasks are requeued and re-executed on survivors
//!   (BENU's idempotent-task recovery, §III-C), and the whole story is
//!   summarised in the outcome's [`RecoveryReport`]. Stragglers are
//!   handled before they form: by task splitting at τ (§V-B) and,
//!   optionally, work stealing;
//! * per-worker communication bytes, cache statistics, busy time, steal
//!   counts and optional per-task durations are reported in the
//!   [`RunOutcome`] — exactly the measurements behind Table V, Fig. 8,
//!   Fig. 9 and Fig. 10.

pub mod analysis;
pub mod balance;
pub mod config;
pub mod gate;
mod recovery;
pub mod report;
pub mod resident;
pub mod runtime;
pub mod schedule;
pub mod transport;
pub mod worker;

pub use balance::CostProfile;
pub use benu_fault::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder, RetryPolicy};
pub use benu_kvstore::{CodecKind, CorruptValue};
pub use config::{
    ClusterConfig, ClusterConfigBuilder, DataPath, ExecMode, DEFAULT_CACHE_SHARDS,
    DEFAULT_TRIANGLE_CACHE_ENTRIES,
};
pub use report::{RecoveryReport, RunOutcome, WorkerReport};
pub use resident::{Resident, Split};
pub use runtime::Cluster;
pub use schedule::{Scheduler, SchedulerKind};
pub use transport::{FetchError, TransportError};
pub use worker::WorkerError;
