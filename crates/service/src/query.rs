//! Query identities, per-query options (budgets, result modes) and the
//! structured results the service hands back.

use benu_cluster::Failure;
use benu_engine::{MatchSet, TaskMetrics};
use std::time::Duration;

/// Identifies one submitted query until its result is consumed by
/// [`crate::QueryService::wait`] (sequential from 0 in admission order,
/// never reused).
pub type QueryId = u64;

/// What a query delivers. Every mode is enforced *inside* the worker
/// loop as early termination at chunk boundaries — a satisfied `TopK`
/// or an exhausted budget makes the service drop the query's remaining
/// chunks, not filter a full result afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResultMode {
    /// Count matches only (no embeddings materialised).
    CountOnly,
    /// Materialise every embedding, indexed by the submitted pattern's
    /// vertex numbering.
    Collect,
    /// The first `k` embeddings in deterministic commit order (chunks in
    /// task order, embeddings sorted within each chunk) — LIMIT-style
    /// semantics, terminating early once `k` are committed.
    TopK(usize),
    /// A seeded reservoir sample of `n` embeddings over the full
    /// deterministic match stream. Runs to completion (the count is
    /// exact); the sample is a pure function of `(stream, seed)`.
    Sample {
        /// Reservoir size.
        n: usize,
        /// Reservoir RNG seed.
        seed: u64,
    },
}

impl ResultMode {
    /// Whether the engine must materialise embeddings for this mode.
    pub(crate) fn needs_matches(&self) -> bool {
        !matches!(self, ResultMode::CountOnly)
    }
}

/// Per-query admission options: result mode, fair-share weight and
/// budgets. Budgets are evaluated deterministically at chunk-commit
/// boundaries in task order, so a budgeted query reports the same
/// result at any concurrency level or execution mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// Result mode (see [`ResultMode`]).
    pub mode: ResultMode,
    /// Fair-share weight: chunks granted per round of the cross-query
    /// round-robin (≥ 1).
    pub weight: u32,
    /// Virtual-time budget in engine ticks (a deterministic function of
    /// the work committed: instruction executions plus candidate
    /// enumerations). The first chunk boundary at or past the deadline
    /// terminates the query with [`Terminal::DeadlineExceeded`].
    pub deadline_vticks: Option<u64>,
    /// Cap on committed matches; crossing it clamps the count and
    /// terminates with [`Terminal::MaxMatchesReached`].
    pub max_matches: Option<u64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            mode: ResultMode::CountOnly,
            weight: 1,
            deadline_vticks: None,
            max_matches: None,
        }
    }
}

impl QueryOptions {
    /// Default options: count-only, weight 1, no budgets.
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the result mode.
    pub fn mode(mut self, mode: ResultMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the fair-share weight (clamped to ≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the virtual-time deadline in engine ticks, charged for the
    /// query's own committed work only, never for time spent queued.
    pub fn deadline_vticks(mut self, ticks: u64) -> Self {
        self.deadline_vticks = Some(ticks);
        self
    }

    /// Caps the number of committed matches.
    pub fn max_matches(mut self, max: u64) -> Self {
        self.max_matches = Some(max);
        self
    }
}

/// Why a query stopped — always structured, never a silent partial
/// count and never a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// The query ran to its natural end: enumeration exhausted, or a
    /// `TopK` request satisfied.
    Completed,
    /// The `max_matches` budget was crossed; the count is clamped to
    /// the cap.
    MaxMatchesReached,
    /// The virtual-time deadline passed; committed work up to the
    /// crossing chunk boundary is reported, the rest was released.
    DeadlineExceeded,
    /// [`crate::QueryService::cancel`] was called before completion.
    Cancelled,
    /// The request path hit an unrecoverable error — retry budget
    /// spent, shard outage, corrupt value, engine panic, or the whole
    /// worker pool lost. Only this query fails; siblings are unaffected.
    /// The [`Failure`] is the one the lane built — naming the task, the
    /// vertex, the shard — and the lowest-chunk-indexed one in commit
    /// order, so its cause is a deterministic function of the fault seed
    /// (which lane ran the chunk is timing: `machine` is not).
    Failed(Failure),
    /// The query was hit by an unrecoverable shard outage while
    /// [`crate::ServiceConfig::graceful_degradation`] was on: every
    /// reachable chunk committed, chunks needing the dark shards were
    /// skipped, and [`QueryResult::dark_shards`] names the outage.
    DegradedPartial,
    /// Admission control shed the query (inflight or queue cap hit).
    /// Nothing executed;
    /// resubmitting after roughly `retry_after_vticks` of service
    /// virtual time is the caller's move.
    Rejected {
        /// A lower bound on the service virtual time needed to drain
        /// the backlog that caused the shed.
        retry_after_vticks: u64,
    },
}

impl Terminal {
    /// Stable lower-case name (reports, logs).
    pub fn name(&self) -> &'static str {
        match self {
            Terminal::Completed => "completed",
            Terminal::MaxMatchesReached => "max_matches_reached",
            Terminal::DeadlineExceeded => "deadline_exceeded",
            Terminal::Cancelled => "cancelled",
            Terminal::Failed(_) => "failed",
            Terminal::DegradedPartial => "degraded_partial",
            Terminal::Rejected { .. } => "rejected",
        }
    }
}

/// A non-blocking view of a query's lifecycle. It only moves forward:
/// `Queued`, `Running`, `Finished`, then — once [`crate::QueryService::wait`]
/// handed the result over — no status at all.
// A `Finished` status carries the full result by value; the enum is a
// transient poll return, never stored in bulk, so the size skew is
// preferable to handing callers a box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum QueryStatus {
    /// Admitted, no chunk started yet.
    Queued,
    /// A worker started one of its chunks, or its terminal is decided
    /// and chunks are still out.
    Running,
    /// Terminal, every chunk accounted for; the result is final.
    Finished(QueryResult),
}

/// The final, structured outcome of one query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// The query this result belongs to.
    pub id: QueryId,
    /// Why the query stopped.
    pub terminal: Terminal,
    /// Matches committed. Exact iff [`QueryResult::exhaustive`]; for
    /// `MaxMatchesReached` it equals the cap; for `Cancelled` /
    /// `DeadlineExceeded` it covers committed chunks only.
    pub matches_found: u64,
    /// Materialised embeddings per the result mode, one row each of one
    /// flat buffer (`matches.rows()`, `matches.get(i)`), indexed by the
    /// *submitted* pattern's vertex numbering (the remapping from the
    /// class's canonical numbering is internal). Empty for `CountOnly`.
    pub matches: MatchSet,
    /// Committed virtual-time ticks — the query's deterministic
    /// latency measure.
    pub vticks: u64,
    /// Chunks whose results were committed.
    pub chunks_committed: usize,
    /// Chunks released without contributing (early termination,
    /// cancellation).
    pub chunks_discarded: usize,
    /// Whether the query's pattern class had its compiled plan resident
    /// (no compile at admission).
    pub plan_cache_hit: bool,
    /// True iff every chunk committed — the enumeration was exhaustive
    /// (a satisfied `TopK` is `Completed` but not exhaustive).
    pub exhaustive: bool,
    /// Shards that were dark for chunks this query had to skip, in
    /// ascending order. Non-empty only for
    /// [`Terminal::DegradedPartial`]: the committed result is the
    /// deterministic truth about every other shard.
    pub dark_shards: Vec<usize>,
    /// Service-wide completion sequence number (0 = first query to
    /// finish) — pins cross-query completion ordering in tests.
    pub completion_index: u64,
    /// Engine metrics summed over committed chunks.
    pub metrics: TaskMetrics,
    /// Wall-clock time from submission to the terminal transition.
    /// Excluded from deterministic reports.
    pub wall: Duration,
}

impl QueryResult {
    /// True when the reported count may undercount the graph (the query
    /// was cancelled, deadline-exceeded, or match-capped).
    pub fn is_partial(&self) -> bool {
        self.terminal != Terminal::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder_sets_fields() {
        let o = QueryOptions::new()
            .mode(ResultMode::TopK(5))
            .weight(0)
            .deadline_vticks(100)
            .max_matches(7);
        assert_eq!(o.mode, ResultMode::TopK(5));
        assert_eq!(o.weight, 1, "weight clamps to >= 1");
        assert_eq!(o.deadline_vticks, Some(100));
        assert_eq!(o.max_matches, Some(7));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Terminal::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(Terminal::DegradedPartial.name(), "degraded_partial");
        assert_eq!(
            Terminal::Rejected {
                retry_after_vticks: 7
            }
            .name(),
            "rejected"
        );
        let lost = Failure {
            cause: benu_cluster::Cause::NoSurvivor { outstanding: 1 },
            task: None,
            machine: 0,
            attempt: 1,
        };
        assert_eq!(Terminal::Failed(lost).name(), "failed");
    }
}
