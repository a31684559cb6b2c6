//! Cluster configuration.

use crate::pool::SchedulerKind;
pub use benu_engine::exec::DEFAULT_TRIANGLE_CACHE_ENTRIES;
use benu_kvstore::CodecKind;

/// How worker threads drive the execution engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Task-at-a-time depth-first backtracking (the paper's execution
    /// model; minimal memory, one store lookup per DBQ miss).
    #[default]
    Dfs,
    /// Memory-bounded BFS/DFS hybrid: each thread expands a frontier of
    /// partial embeddings breadth-first while the byte budget allows
    /// (batching sibling tasks' adjacency fetches into one deduplicated
    /// multi-get per level) and spills back to DFS when it doesn't.
    /// Match counts and sets are byte-identical to [`ExecMode::Dfs`].
    Hybrid,
}

impl ExecMode {
    /// Stable lower-case name (used in reports and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Dfs => "dfs",
            ExecMode::Hybrid => "hybrid",
        }
    }
}

/// Default internal shard count of a worker's database cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// The data plane both runtimes sit on (paper §III, Fig. 2): what the
/// sharded store holds, how big the per-machine cache in front of it is,
/// and how lanes drive the engine over it.
/// Embedded as `data` in both [`ClusterConfig`] and
/// `benu_service::ServiceConfig`, so one deployment is described once;
/// [`crate::Resident::load`] is its only consumer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPath {
    /// Database-cache capacity per worker, in bytes (the paper gives each
    /// reducer 30 GB).
    pub cache_capacity_bytes: usize,
    /// Store replication factor `R`: every vertex's value lives on its
    /// primary shard plus the next `R − 1` shards in ring order, and
    /// reads fail over along that ring. `1` (the default) is the
    /// single-copy store; `R ≥ 2` survives whole-shard outages as long
    /// as one replica of every placement group remains. Fixed at graph
    /// load, like the shard count.
    pub replication: usize,
    /// Wire codec for stored adjacency values. Fixed at graph load, like
    /// the shard count; every replica of a value carries the same bytes.
    /// [`CodecKind::RawU32`] (the default) stores ids verbatim;
    /// [`CodecKind::DeltaVarint`] delta-encodes the sorted lists, cutting
    /// `run.store.bytes` roughly in half on power-law graphs. Decoded
    /// sets are byte-identical across codecs.
    pub codec: CodecKind,
    /// How lanes drive the engine: classic task-at-a-time DFS (the
    /// default) or the memory-bounded BFS/DFS hybrid with
    /// frontier-batched store reads.
    pub exec_mode: ExecMode,
    /// Frontier byte budget for [`ExecMode::Hybrid`]; `0` means
    /// unbounded, and it is ignored under [`ExecMode::Dfs`]. One rule in
    /// both runtimes: this is the budget of whatever shares it — a worker
    /// machine's threads in the cluster, the pool's lanes in the service
    /// — split evenly by [`crate::Resident::executor`], which never
    /// rounds a real budget down to unbounded.
    pub memory_budget_bytes: usize,
}

impl Default for DataPath {
    fn default() -> Self {
        DataPath {
            cache_capacity_bytes: 64 << 20,
            replication: 1,
            codec: CodecKind::RawU32,
            exec_mode: ExecMode::Dfs,
            memory_budget_bytes: 0,
        }
    }
}

impl DataPath {
    /// Validates invariants against the deployment's store shard count.
    ///
    /// # Panics
    ///
    /// Panics on a replication factor outside `1..=shards`.
    pub fn validate(&self, shards: usize) {
        assert!(
            (1..=shards).contains(&self.replication),
            "replication factor must be within 1..=store shards"
        );
    }
}

/// Shape and tuning of the simulated cluster. The defaults mirror the
/// paper's deployment scaled to a single machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of logical worker machines (the paper uses 16); the store
    /// has one shard per worker.
    pub workers: usize,
    /// Working threads per worker (the paper uses 24).
    pub threads_per_worker: usize,
    /// The shared data plane: store layout, cache capacity and execution
    /// mode (builder setters forward into it).
    pub data: DataPath,
    /// Internal shard count of each worker's cache (contention tuning
    /// only).
    pub cache_shards: usize,
    /// Task-splitting degree threshold τ (paper: 500); 0 disables
    /// splitting.
    pub tau: usize,
    /// Per-thread triangle-cache capacity in entries.
    pub triangle_cache_entries: usize,
    /// Task scheduling policy (static round-robin by default, matching
    /// the paper's even shuffle).
    pub scheduler: SchedulerKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            threads_per_worker: 2,
            data: DataPath::default(),
            cache_shards: DEFAULT_CACHE_SHARDS,
            tau: 500,
            triangle_cache_entries: DEFAULT_TRIANGLE_CACHE_ENTRIES,
            scheduler: SchedulerKind::Static,
        }
    }
}

impl ClusterConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder(ClusterConfig::default())
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero workers, threads or cache shards, or an invalid
    /// [`DataPath`] (one store shard per worker).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.threads_per_worker >= 1, "need at least one thread");
        assert!(self.cache_shards >= 1, "need at least one cache shard");
        self.data.validate(self.workers);
    }
}

/// Fluent builder for [`ClusterConfig`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfigBuilder(ClusterConfig);

impl ClusterConfigBuilder {
    /// Number of logical worker machines.
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n;
        self
    }

    /// Working threads per worker.
    pub fn threads_per_worker(mut self, n: usize) -> Self {
        self.0.threads_per_worker = n;
        self
    }

    /// Per-worker database-cache capacity in bytes.
    pub fn cache_capacity_bytes(mut self, n: usize) -> Self {
        self.0.data.cache_capacity_bytes = n;
        self
    }

    /// Internal cache shard count.
    pub fn cache_shards(mut self, n: usize) -> Self {
        self.0.cache_shards = n;
        self
    }

    /// Task-splitting threshold τ (0 disables splitting).
    pub fn tau(mut self, tau: usize) -> Self {
        self.0.tau = tau;
        self
    }

    /// Per-thread triangle-cache entries.
    pub fn triangle_cache_entries(mut self, n: usize) -> Self {
        self.0.triangle_cache_entries = n;
        self
    }

    /// Task scheduling policy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.0.scheduler = kind;
        self
    }

    /// Store replication factor `R` (ring placement; `1` = single copy).
    pub fn replication(mut self, r: usize) -> Self {
        self.0.data.replication = r;
        self
    }

    /// Engine driving mode (DFS or the memory-bounded hybrid).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.0.data.exec_mode = mode;
        self
    }

    /// Frontier byte budget of one worker machine for hybrid execution,
    /// shared by its threads (`0` = unbounded).
    pub fn memory_budget_bytes(mut self, n: usize) -> Self {
        self.0.data.memory_budget_bytes = n;
        self
    }

    /// Wire codec for stored adjacency values.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.0.data.codec = codec;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn build(self) -> ClusterConfig {
        self.0.validate();
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_defaults() {
        let c = ClusterConfig::builder()
            .workers(16)
            .threads_per_worker(24)
            .tau(500)
            .cache_capacity_bytes(30 << 30)
            .build();
        assert_eq!(c.workers, 16);
        assert_eq!(c.threads_per_worker, 24);
        assert_eq!(c.data.cache_capacity_bytes, 30 << 30);
    }

    // API-audit completeness: every public `ClusterConfig` field —
    // `data.*` included — must be settable through the builder. A
    // fully-non-default config built fluently must equal the same config
    // written as a struct literal — adding a field without a builder
    // method breaks this test.
    #[test]
    fn builder_covers_every_public_field() {
        let data = DataPath {
            cache_capacity_bytes: 1 << 22,
            replication: 2,
            codec: CodecKind::DeltaVarint,
            exec_mode: ExecMode::Hybrid,
            memory_budget_bytes: 1 << 20,
        };
        let built = ClusterConfig::builder()
            .workers(5)
            .threads_per_worker(3)
            .cache_capacity_bytes(data.cache_capacity_bytes)
            .cache_shards(2)
            .tau(123)
            .triangle_cache_entries(64)
            .scheduler(SchedulerKind::WorkStealing)
            .replication(data.replication)
            .exec_mode(data.exec_mode)
            .memory_budget_bytes(data.memory_budget_bytes)
            .codec(data.codec)
            .build();
        let literal = ClusterConfig {
            workers: 5,
            threads_per_worker: 3,
            data,
            cache_shards: 2,
            tau: 123,
            triangle_cache_entries: 64,
            scheduler: SchedulerKind::WorkStealing,
        };
        assert_eq!(built, literal);
        // Every field above differs from its default, so a builder
        // method silently dropping its write would fail the comparison.
        let d = ClusterConfig::default();
        assert_ne!(built.workers, d.workers);
        assert_ne!(built.threads_per_worker, d.threads_per_worker);
        assert_ne!(built.data.cache_capacity_bytes, d.data.cache_capacity_bytes);
        assert_ne!(built.data.replication, d.data.replication);
        assert_ne!(built.data.codec, d.data.codec);
        assert_ne!(built.data.exec_mode, d.data.exec_mode);
        assert_ne!(built.data.memory_budget_bytes, d.data.memory_budget_bytes);
        assert_ne!(built.cache_shards, d.cache_shards);
        assert_ne!(built.tau, d.tau);
        assert_ne!(built.triangle_cache_entries, d.triangle_cache_entries);
        assert_ne!(built.scheduler, d.scheduler);
    }

    #[test]
    fn exec_mode_defaults_to_dfs() {
        assert_eq!(ExecMode::default(), ExecMode::Dfs);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn replication_beyond_worker_count_rejected() {
        ClusterConfig::builder().workers(2).replication(3).build();
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        ClusterConfig::builder().replication(0).build();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ClusterConfig::builder().workers(0).build();
    }

    #[test]
    fn default_is_valid() {
        ClusterConfig::default().validate();
    }

    #[test]
    fn default_scheduler_is_the_papers_static_shuffle() {
        let c = ClusterConfig::default();
        assert_eq!(c.scheduler, SchedulerKind::Static);
        let ws = ClusterConfig::builder()
            .scheduler(SchedulerKind::WorkStealing)
            .build();
        assert_eq!(ws.scheduler, SchedulerKind::WorkStealing);
    }
}
