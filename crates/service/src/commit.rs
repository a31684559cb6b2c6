//! The deterministic chunk-commit pipeline.
//!
//! Workers execute chunks in whatever order the fair queue and thread
//! timing produce, but a query's *observable* result — count, match
//! stream, budget cut-off — is defined over chunks committed in task
//! order. [`CommitState`] buffers out-of-order arrivals and commits
//! strictly in chunk order; budgets are evaluated only at commit
//! boundaries, so a budgeted query terminates at the same point in the
//! stream regardless of worker count, grant order, or execution mode:
//!
//! * the virtual-time deadline is a *pre*-commit check (a chunk whose
//!   commit would start at or past the deadline is dropped, so a
//!   deadline of 0 commits nothing), and
//! * `max_matches` / `TopK` clamp *within* the boundary chunk, taking a
//!   prefix of its sorted matches.
//!
//! Each chunk's matches arrive already remapped to the submitted
//! numbering and sorted, so the concatenation over committed chunks is
//! one deterministic stream — what [`Sink::Sample`]'s seeded reservoir
//! and [`Sink::TopK`]'s prefix are defined over.

use crate::query::{QueryId, QueryResult, ResultMode, Terminal};
use benu_cluster::Failure;
use benu_engine::{MatchSet, TaskMetrics};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// One executed chunk as reported by a worker.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct ExecutedChunk {
    /// Matches in submitted numbering, sorted (empty for `CountOnly`).
    pub matches: MatchSet,
    /// Matches found by the chunk (equals `matches.len()` whenever the
    /// mode materialises).
    pub count: u64,
    /// Virtual ticks of the chunk: tasks + instruction executions +
    /// candidate enumerations — a pure function of the work done.
    pub vticks: u64,
    /// Engine metrics of the chunk.
    pub metrics: TaskMetrics,
}

/// What a lane reported for one chunk: results, or the first error its
/// deterministic access stream hit. Failures ride the same in-order
/// pipeline as results, so the error (or dark shard) a query surfaces is
/// always the lowest-indexed failing chunk's — independent of worker
/// timing.
pub(crate) type Delivery = Result<ExecutedChunk, Failure>;

/// Where committed matches go, per result mode.
#[cfg_attr(test, derive(Clone))]
pub(crate) enum Sink {
    /// Count only; nothing materialised.
    Count,
    /// Keep everything.
    Collect(MatchSet),
    /// Keep the first `k` of the deterministic stream.
    TopK { k: usize, kept: MatchSet },
    /// Algorithm-R reservoir over the deterministic stream.
    Sample {
        n: usize,
        rng: ChaCha8Rng,
        seen: u64,
        reservoir: MatchSet,
    },
}

impl Sink {
    fn new(mode: &ResultMode) -> Self {
        match *mode {
            ResultMode::CountOnly => Sink::Count,
            ResultMode::Collect => Sink::Collect(MatchSet::default()),
            ResultMode::TopK(k) => Sink::TopK {
                k,
                kept: MatchSet::default(),
            },
            ResultMode::Sample { n, seed } => Sink::Sample {
                n,
                rng: ChaCha8Rng::seed_from_u64(seed),
                seen: 0,
                reservoir: MatchSet::default(),
            },
        }
    }

    /// `TopK`'s remaining appetite; unbounded for the other sinks.
    fn remaining(&self, committed: u64) -> Option<u64> {
        match self {
            Sink::TopK { k, .. } => Some((*k as u64).saturating_sub(committed)),
            _ => None,
        }
    }

    /// Takes the first `take` rows of a committing chunk. The caller has
    /// already clamped `take` to [`Sink::remaining`], so the keeping
    /// sinks append the prefix as one copy; only the reservoir looks at
    /// rows one by one.
    fn accept(&mut self, chunk: &MatchSet, take: usize) {
        match self {
            Sink::Count => {}
            Sink::Collect(kept) | Sink::TopK { kept, .. } => kept.extend_prefix(chunk, take),
            Sink::Sample {
                n,
                rng,
                seen,
                reservoir,
            } => {
                for m in chunk.rows().take(take) {
                    *seen += 1;
                    if reservoir.len() < *n {
                        reservoir.push(m);
                    } else if *n > 0 {
                        let j = rng.next_u64() % *seen;
                        if (j as usize) < *n {
                            reservoir.set_row(j as usize, m);
                        }
                    }
                }
            }
        }
    }

    fn into_matches(self) -> MatchSet {
        match self {
            Sink::Count => MatchSet::default(),
            Sink::Collect(all) => all,
            Sink::TopK { kept, .. } => kept,
            Sink::Sample { reservoir, .. } => reservoir,
        }
    }
}

/// In-order commit state of one query. All methods run under the
/// query's lock; workers only *execute* concurrently.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct CommitState {
    total_chunks: usize,
    /// Next chunk index eligible to commit.
    next: usize,
    /// Delivered chunks waiting for their predecessors. Boxed: an
    /// `ExecutedChunk` is hundreds of bytes, a failure a handful.
    pending: BTreeMap<usize, Result<Box<ExecutedChunk>, Failure>>,
    committed: usize,
    discarded: usize,
    /// Chunks skipped dark under graceful degradation.
    dark: usize,
    dark_shards: Vec<usize>,
    /// Absorb degradable failures instead of failing the query.
    degrade: bool,
    matches_found: u64,
    vticks: u64,
    metrics: TaskMetrics,
    sink: Sink,
    deadline: Option<u64>,
    max_matches: Option<u64>,
    terminal: Option<Terminal>,
}

impl CommitState {
    pub(crate) fn new(
        total_chunks: usize,
        mode: &ResultMode,
        deadline: Option<u64>,
        max_matches: Option<u64>,
        degrade: bool,
    ) -> Self {
        let mut state = CommitState {
            total_chunks,
            next: 0,
            pending: BTreeMap::new(),
            committed: 0,
            discarded: 0,
            dark: 0,
            dark_shards: Vec::new(),
            degrade,
            matches_found: 0,
            vticks: 0,
            metrics: TaskMetrics::default(),
            sink: Sink::new(mode),
            deadline,
            max_matches,
            terminal: None,
        };
        // A pattern with no start tasks (or `TopK(0)`) is terminal at
        // admission.
        if total_chunks == 0 {
            state.terminal = Some(Terminal::Completed);
        } else if state.sink.remaining(0) == Some(0) {
            state.set_terminal(Terminal::Completed);
        } else if deadline == Some(0) {
            state.set_terminal(Terminal::DeadlineExceeded);
        } else if max_matches == Some(0) {
            state.set_terminal(Terminal::MaxMatchesReached);
        }
        state
    }

    /// Accounts chunk `index` as a lane handed it over. A dropped chunk
    /// (`None`) and every chunk of a terminated query are discarded. An
    /// executed chunk commits with every in-order chunk it made eligible,
    /// budgets evaluated at each boundary. A failure is evaluated at its
    /// in-order position: under graceful degradation a degradable error
    /// marks the chunk dark (no matches, no vticks) and commits continue;
    /// otherwise the query settles as [`Terminal::Failed`] with this error
    /// — the lowest-indexed failure, deterministically.
    pub(crate) fn deliver(&mut self, index: usize, delivery: Option<Delivery>) {
        let Some(delivery) = delivery.filter(|_| self.terminal.is_none()) else {
            self.discarded += 1;
            return;
        };
        self.pending.insert(index, delivery.map(Box::new));
        while self.terminal.is_none() {
            match self.pending.remove(&self.next) {
                Some(Ok(chunk)) => self.commit(*chunk),
                Some(Err(failure)) => self.commit_failed(failure),
                None => break,
            }
        }
        if self.committed + self.dark == self.total_chunks && self.terminal.is_none() {
            self.terminal = Some(if self.dark > 0 {
                Terminal::DegradedPartial
            } else {
                Terminal::Completed
            });
        }
        if self.terminal.is_some() {
            self.flush_pending();
        }
    }

    /// A failed chunk at its in-order boundary. The deadline pre-check
    /// still wins (a query past its budget is `DeadlineExceeded`, not
    /// `Failed` — same precedence as for a successful chunk).
    fn commit_failed(&mut self, failure: Failure) {
        if self.deadline.is_some_and(|d| self.vticks >= d) {
            self.set_terminal(Terminal::DeadlineExceeded);
            self.discarded += 1;
            return;
        }
        // Degradable ⇔ a shard outage, which names its dark shard.
        if let Some(shard) = failure.dark_shard().filter(|_| self.degrade) {
            if !self.dark_shards.contains(&shard) {
                self.dark_shards.push(shard);
            }
            self.dark += 1;
            self.next += 1;
            return;
        }
        self.set_terminal(Terminal::Failed(failure));
        self.discarded += 1;
    }

    fn commit(&mut self, chunk: ExecutedChunk) {
        if self.deadline.is_some_and(|d| self.vticks >= d) {
            self.set_terminal(Terminal::DeadlineExceeded);
            self.discarded += 1;
            return;
        }
        // Clamp the chunk's contribution to the tighter of the remaining
        // `TopK` appetite and the remaining match budget.
        let mut take = chunk.count;
        let mut capped = false;
        if let Some(rem) = self.sink.remaining(self.matches_found) {
            take = take.min(rem);
        }
        if let Some(max) = self.max_matches {
            let rem = max.saturating_sub(self.matches_found);
            if take > rem {
                take = rem;
                capped = true;
            }
        }
        self.sink.accept(&chunk.matches, take as usize);
        self.matches_found += take;
        self.vticks += chunk.vticks;
        self.metrics += chunk.metrics;
        self.committed += 1;
        self.next += 1;
        if self.sink.remaining(self.matches_found) == Some(0) {
            // A satisfied `TopK` is a *completed* query (LIMIT reached),
            // just not an exhaustive one.
            self.set_terminal(Terminal::Completed);
        } else if capped || self.max_matches == Some(self.matches_found) {
            self.set_terminal(Terminal::MaxMatchesReached);
        }
    }

    /// Accounts a chunk that was released without executing (drained
    /// from the fair queue, or skipped by a worker after termination).
    pub(crate) fn skip(&mut self, n: usize) {
        self.discarded += n;
    }

    /// Forces a terminal state (cancellation, budget) if the query is
    /// not already terminal; pending chunks are discarded. Returns true
    /// when this call made the transition.
    pub(crate) fn set_terminal(&mut self, terminal: Terminal) -> bool {
        if self.terminal.is_some() {
            return false;
        }
        self.terminal = Some(terminal);
        self.flush_pending();
        true
    }

    fn flush_pending(&mut self) {
        self.discarded += self.pending.len();
        self.pending.clear();
    }

    pub(crate) fn terminal(&self) -> Option<&Terminal> {
        self.terminal.as_ref()
    }

    /// Chunks not delivered yet: neither committed, discarded, dark nor
    /// waiting for their predecessors.
    pub(crate) fn outstanding(&self) -> usize {
        self.total_chunks - self.committed - self.discarded - self.dark - self.pending.len()
    }

    /// Every chunk accounted for — the query can finalise.
    pub(crate) fn is_complete(&self) -> bool {
        self.terminal.is_some() && self.committed + self.discarded + self.dark == self.total_chunks
    }

    /// Tears the state down into query `id`'s result. Dark chunks are
    /// folded into `discarded` (they contributed nothing); the dark
    /// shards behind them are reported separately. The service stamps
    /// what the pipeline cannot know: the completion order and the wall
    /// time.
    pub(crate) fn finish(&mut self, id: QueryId, plan_cache_hit: bool) -> QueryResult {
        debug_assert!(self.is_complete());
        self.dark_shards.sort_unstable();
        QueryResult {
            id,
            terminal: self.terminal.clone().unwrap_or(Terminal::Completed),
            matches_found: self.matches_found,
            matches: std::mem::replace(&mut self.sink, Sink::Count).into_matches(),
            vticks: self.vticks,
            chunks_committed: self.committed,
            chunks_discarded: self.discarded + self.dark,
            plan_cache_hit,
            exhaustive: self.committed == self.total_chunks,
            dark_shards: std::mem::take(&mut self.dark_shards),
            completion_index: 0,
            metrics: self.metrics,
            wall: Duration::ZERO,
        }
    }
}

/// Every field, destructured so that a new one cannot be missed: what
/// the lifecycle explorer tells states apart by.
#[cfg(test)]
impl std::hash::Hash for CommitState {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        let CommitState {
            total_chunks,
            next,
            pending,
            committed,
            discarded,
            dark,
            dark_shards,
            degrade,
            matches_found,
            vticks,
            // Sums of the chunks' metrics, which the explorer leaves zero.
            metrics: _,
            sink,
            deadline,
            max_matches,
            terminal,
        } = self;
        (total_chunks, next, committed, discarded, dark, dark_shards).hash(h);
        (degrade, matches_found, vticks, deadline, max_matches).hash(h);
        for (chunk, outcome) in pending {
            match outcome {
                Ok(c) => (chunk, c.count, c.vticks, c.matches.len()).hash(h),
                Err(f) => (chunk, format!("{f:?}")).hash(h),
            }
        }
        terminal.as_ref().map(|t| format!("{t:?}")).hash(h);
        match sink {
            Sink::Count => 0.hash(h),
            Sink::Collect(kept) => (1, kept.len()).hash(h),
            Sink::TopK { k, kept } => (2, k, kept.len()).hash(h),
            // The explorer runs no `Sample` query: the generator is left out.
            Sink::Sample {
                n,
                rng: _,
                seen,
                reservoir,
            } => (3, n, seen, reservoir.len()).hash(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_cluster::{Cause, FaultKind, FetchError, TransportError};
    use benu_engine::SearchTask;
    use benu_graph::VertexId;

    /// Delivers chunk `i`, executed, whose matches are the one-vertex
    /// rows `[v]`.
    fn done(s: &mut CommitState, i: usize, rows: impl IntoIterator<Item = VertexId>, vticks: u64) {
        let matches = set(rows);
        let chunk = ExecutedChunk {
            count: matches.len() as u64,
            matches,
            vticks,
            metrics: TaskMetrics::default(),
        };
        s.deliver(i, Some(Ok(chunk)));
    }

    /// Delivers chunk `i`, failed.
    fn fail(s: &mut CommitState, i: usize, failure: Failure) {
        s.deliver(i, Some(Err(failure)));
    }

    fn set(rows: impl IntoIterator<Item = VertexId>) -> MatchSet {
        let mut matches = MatchSet::default();
        rows.into_iter().for_each(|v| matches.push(&[v]));
        matches
    }

    fn failure(error: FetchError) -> Failure {
        Failure {
            cause: Cause::Fetch(error),
            task: Some(SearchTask::whole(0)),
            machine: 0,
            attempt: 1,
        }
    }

    fn outage(vertex: VertexId, shard: usize) -> Failure {
        failure(FetchError::Unavailable(TransportError {
            shard,
            vertex,
            attempts: 1,
            kind: FaultKind::Outage,
        }))
    }

    #[test]
    fn out_of_order_submission_commits_in_order() {
        let mut s = CommitState::new(3, &ResultMode::Collect, None, None, false);
        done(&mut s, 2, [2], 1);
        done(&mut s, 0, [0], 1);
        assert!(s.terminal().is_none(), "chunk 1 still outstanding");
        done(&mut s, 1, [1], 1);
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::Completed);
        assert_eq!(out.matches_found, 3);
        assert_eq!(out.matches, set([0, 1, 2]), "stream is chunk-ordered");
        assert_eq!(out.vticks, 3);
    }

    #[test]
    fn deadline_is_checked_before_commit() {
        // Deadline 2: chunk 0 (2 ticks) commits, chunk 1 hits the
        // boundary and is dropped — a deadline of 0 would commit nothing.
        let mut s = CommitState::new(2, &ResultMode::CountOnly, Some(2), None, false);
        done(&mut s, 0, [0, 1], 2);
        done(&mut s, 1, [2], 1);
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::DeadlineExceeded);
        assert_eq!((out.matches_found, out.vticks), (2, 2));
        assert_eq!((out.chunks_committed, out.chunks_discarded), (1, 1));
        assert!(!out.exhaustive);
    }

    #[test]
    fn zero_deadline_commits_nothing() {
        let mut s = CommitState::new(2, &ResultMode::CountOnly, Some(0), None, false);
        assert_eq!(s.terminal(), Some(&Terminal::DeadlineExceeded));
        s.skip(2);
        assert!(s.is_complete());
        assert_eq!(s.finish(0, false).matches_found, 0);
    }

    #[test]
    fn max_matches_clamps_within_the_boundary_chunk() {
        let mut s = CommitState::new(2, &ResultMode::Collect, None, Some(3), false);
        done(&mut s, 0, [0, 1], 1);
        assert!(s.terminal().is_none(), "2 of 3 committed");
        done(&mut s, 1, [2, 3, 4], 1);
        assert_eq!(s.terminal(), Some(&Terminal::MaxMatchesReached));
        let out = s.finish(0, false);
        assert_eq!(out.matches_found, 3, "count clamps at the cap");
        assert_eq!(out.matches, set([0, 1, 2]), "prefix of the stream");
    }

    #[test]
    fn topk_satisfied_is_completed_not_partial() {
        let mut s = CommitState::new(3, &ResultMode::TopK(2), None, None, false);
        done(&mut s, 0, [0, 1, 2], 1);
        assert_eq!(s.terminal(), Some(&Terminal::Completed));
        s.skip(2); // the drained remainder
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::Completed);
        assert_eq!(out.matches_found, 2);
        assert_eq!(out.matches, set([0, 1]));
        assert!(!out.exhaustive, "LIMIT-style completion is not exhaustive");
    }

    #[test]
    fn sample_is_a_function_of_stream_and_seed() {
        let run = |chunks: &[std::ops::Range<VertexId>]| {
            let mode = ResultMode::Sample { n: 5, seed: 42 };
            let mut s = CommitState::new(chunks.len(), &mode, None, None, false);
            for (i, c) in chunks.iter().enumerate() {
                done(&mut s, i, c.clone(), 1);
            }
            let out = s.finish(0, false);
            assert_eq!(out.terminal, Terminal::Completed);
            assert_eq!(out.matches_found, 100, "sampling still counts exactly");
            out.matches
        };
        // Same stream, different chunking ⇒ same reservoir.
        let a = run(&[0..30, 30..100]);
        let b = run(&[0..70, 70..90, 90..100]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn cancellation_discards_pending_and_late_chunks() {
        let mut s = CommitState::new(3, &ResultMode::CountOnly, None, None, false);
        done(&mut s, 2, [0], 1); // pending, out of order
        assert!(s.set_terminal(Terminal::Cancelled), "first transition wins");
        assert!(!s.set_terminal(Terminal::Completed));
        done(&mut s, 0, [1], 1); // in-flight arrival after cancel
        s.skip(1); // drained from the queue
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::Cancelled);
        assert_eq!(out.matches_found, 0, "no silent partial counts");
        assert_eq!((out.chunks_committed, out.chunks_discarded), (0, 3));
    }

    #[test]
    fn lowest_indexed_failure_decides_the_error() {
        // Failures arrive out of order; the surfaced error must be chunk
        // 1's, not chunk 2's — in-order evaluation, worker timing moot.
        let mut s = CommitState::new(4, &ResultMode::Collect, None, None, false);
        fail(&mut s, 2, outage(20, 2));
        fail(&mut s, 1, outage(10, 1));
        assert!(s.terminal().is_none(), "chunk 0 still outstanding");
        done(&mut s, 0, [0], 1);
        assert_eq!(s.terminal(), Some(&Terminal::Failed(outage(10, 1))));
        s.skip(1); // the drained remainder
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::Failed(outage(10, 1)));
        assert_eq!(out.matches_found, 1, "work before the failure stays");
        assert_eq!((out.chunks_committed, out.chunks_discarded), (1, 3));
        assert!(
            out.dark_shards.is_empty(),
            "no degradation without the flag"
        );
    }

    #[test]
    fn degradation_skips_dark_chunks_and_keeps_committing() {
        let mut s = CommitState::new(4, &ResultMode::Collect, None, None, true);
        done(&mut s, 0, [0], 1);
        fail(&mut s, 1, outage(10, 3));
        done(&mut s, 2, [2], 1);
        fail(&mut s, 3, outage(11, 1));
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::DegradedPartial);
        assert_eq!(out.matches, set([0, 2]), "reachable chunks committed");
        assert_eq!(out.vticks, 2, "dark chunks cost no virtual time");
        assert_eq!((out.chunks_committed, out.chunks_discarded), (2, 2));
        assert_eq!(out.dark_shards, vec![1, 3], "sorted, deduplicated");
        assert!(!out.exhaustive);
    }

    #[test]
    fn non_degradable_errors_fail_even_under_degradation() {
        let mut s = CommitState::new(2, &ResultMode::CountOnly, None, None, true);
        let rot = failure(FetchError::Missing {
            vertex: 5,
            shard: 1,
        });
        fail(&mut s, 0, rot);
        assert_eq!(s.terminal(), Some(&Terminal::Failed(rot)));
        s.skip(1);
        assert!(s.is_complete());
        // Nor is an exhausted retry budget, whatever the shard.
        let mut s = CommitState::new(1, &ResultMode::CountOnly, None, None, true);
        let spent = failure(FetchError::Unavailable(TransportError {
            shard: 1,
            vertex: 5,
            attempts: 8,
            kind: FaultKind::Timeout,
        }));
        fail(&mut s, 0, spent);
        assert_eq!(s.terminal(), Some(&Terminal::Failed(spent)));
    }

    #[test]
    fn deadline_takes_precedence_over_a_late_failure() {
        // The failing chunk sits past the deadline boundary: the query is
        // DeadlineExceeded (budget semantics are fault-independent).
        let mut s = CommitState::new(2, &ResultMode::CountOnly, Some(1), None, false);
        done(&mut s, 0, [0], 1);
        fail(&mut s, 1, outage(9, 0));
        assert!(s.is_complete());
        assert_eq!(s.finish(0, false).terminal, Terminal::DeadlineExceeded);
    }

    #[test]
    fn all_chunks_dark_is_still_degraded_partial() {
        let mut s = CommitState::new(2, &ResultMode::CountOnly, None, None, true);
        fail(&mut s, 0, outage(0, 0));
        fail(&mut s, 1, outage(1, 0));
        assert!(s.is_complete());
        let out = s.finish(0, false);
        assert_eq!(out.terminal, Terminal::DegradedPartial);
        assert_eq!(out.matches_found, 0);
        assert_eq!(out.dark_shards, vec![0]);
    }
}
