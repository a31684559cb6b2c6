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
//!   total order and degree array, and is the only place either front
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
//! * **pool** — the one runtime ([`pool`]): a *job* is a plan plus a task
//!   list cut into chunks; one queue grants chunks to *lanes* (one per
//!   thread of a machine) by weighted round-robin across jobs and, within
//!   a job, by each chunk's home machine — [`SchedulerKind::Static`], the
//!   paper's even shuffle, or [`SchedulerKind::WorkStealing`] for skewed
//!   task sets; [`pool::lane_loop`] runs a granted chunk on a
//!   [`worker::LaneExecutor`] bound to a [`worker::LaneSource`] — the
//!   single executor (engine + private triangle cache, DFS or hybrid,
//!   count or collect) and the single read path (fault gate → cache →
//!   transport) — and hands the outcome over, per chunk or once at the
//!   end of the lane's visit as the job asks. It fails soft: what a
//!   lane cannot absorb reaches the job as one [`Failure`] value, built
//!   where it is observed and carried unchanged to [`Cluster::run`]'s
//!   `Err` (or a query's failed terminal), and a machine that dies — at a
//!   boundary a [`benu_fault::FaultPlan`] plans, or because a lane
//!   unwound — has every chunk it had not handed over re-executed on the
//!   survivors (BENU's idempotent-task recovery, §III-C). [`Cluster::run`]
//!   is one job on a pool of scoped lanes; `benu-service` keeps a pool
//!   for its life and admits one job per query; [`pool::replay`] runs a
//!   batch run's [`Layout`] through the same state machine in virtual
//!   time (Fig. 10), the workspace's one model of scheduling;
//! * **gate** — with a fault plan installed (via
//!   [`Cluster::set_fault_plan`]), each machine's [`gate::FaultGate`]
//!   decides every injected store fault per logical adjacency access,
//!   *in front of* the cache, and retries with capped virtual backoff;
//!   the whole story is summarised in the outcome's [`RecoveryReport`].
//!   Stragglers are handled before they form: by task splitting at τ
//!   (§V-B) and, optionally, work stealing;
//! * per-worker communication bytes, cache statistics, busy time and
//!   steal counts are reported in the [`RunOutcome`] — the measurements
//!   behind Table V, Fig. 8 and Fig. 9 — and [`balance::price`] prices
//!   each task in vticks, which Fig. 9 and Fig. 10 read.

pub mod balance;
pub mod config;
pub mod failure;
pub mod gate;
pub mod pool;
pub mod report;
pub mod resident;
pub mod runtime;
pub mod transport;
pub mod worker;

pub use balance::CostProfile;
pub use benu_fault::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder, RetryPolicy};
pub use benu_kvstore::{CodecKind, CorruptValue};
pub use config::{
    ClusterConfig, ClusterConfigBuilder, DataPath, ExecMode, DEFAULT_CACHE_SHARDS,
    DEFAULT_TRIANGLE_CACHE_ENTRIES,
};
pub use failure::{Cause, Failure};
pub use pool::SchedulerKind;
pub use report::{RecoveryReport, RunOutcome, WorkerReport};
pub use resident::{Resident, Split};
pub use runtime::{Cluster, Layout};
pub use transport::{FetchError, TransportError};
