//! The one description of what a lane could not absorb.
//!
//! §III-C of the paper makes faults cheap: tasks are independent and
//! idempotent, so a refused read is retried ([`crate::gate::FaultGate`])
//! and a dead machine's chunks are run again ([`crate::pool`]). A
//! [`Failure`] is what is left — a read the gate gave up on, a vertex
//! the store does not hold, rotten bytes, a panicking engine, a lane
//! that unwound, no machine left to run on. It is built once, where the
//! machine, the task and the [`FetchError`] are all in hand
//! ([`crate::pool::lane_loop`]; the crash rule for [`Cause::NoSurvivor`];
//! the thread join for [`Cause::LanePanicked`]), and carried by value,
//! unchanged, to whoever asked: [`crate::Cluster::run`]'s `Err`, or a
//! query's failed terminal in `benu-service`.

use crate::transport::FetchError;
use benu_engine::SearchTask;
use benu_fault::FaultKind;

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// A store access failed past every recovery the configuration
    /// offers; the [`FetchError`] names vertex, shard and — for rotten
    /// bytes — the codec error.
    Fetch(FetchError),
    /// The engine panicked while running the task: a bug, or a pattern
    /// the resident graph cannot answer (labels against an unlabelled
    /// store).
    EnginePanicked,
    /// A lane's thread unwound outside task execution.
    LanePanicked,
    /// The last machine died with this many chunks not yet handed over:
    /// nothing is left to re-execute them on.
    NoSurvivor {
        /// Chunks that will never run.
        outstanding: usize,
    },
}

/// Why a batch run aborted or a query failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failure {
    /// What went wrong.
    pub cause: Cause,
    /// The task being executed (under hybrid execution: the head of the
    /// batch — a batch shares its store traffic, so a finer attribution
    /// does not exist); `None` outside task execution.
    pub task: Option<SearchTask>,
    /// The machine whose lane observed the failure; for
    /// [`Cause::NoSurvivor`], the machine that died last.
    pub machine: usize,
    /// The execution attempt: a batch run's crash epoch (1, +1 per
    /// machine whose chunks went back to the survivors). Always 1 for a
    /// query — its chunks re-execute byte-identically after a crash, so
    /// its fault gate never leaves the first epoch.
    pub attempt: u32,
}

impl Failure {
    /// Stable lower-case name (reports, logs). A vertex missing from the
    /// store is a `corrupt_value` — the data and the task list disagree;
    /// an availability failure is named by the kind of fault that refused
    /// last, not by the attempts spent (a no-retry policy exhausts after
    /// one attempt too).
    pub fn name(&self) -> &'static str {
        match self.cause {
            Cause::Fetch(FetchError::Unavailable(_)) if self.dark_shard().is_some() => {
                "store_unavailable"
            }
            Cause::Fetch(FetchError::Unavailable(_)) => "retry_exhausted",
            Cause::Fetch(FetchError::Missing { .. } | FetchError::Corrupt(_)) => "corrupt_value",
            Cause::EnginePanicked => "task_panicked",
            Cause::LanePanicked | Cause::NoSurvivor { .. } => "worker_lost",
        }
    }

    /// The dark primary shard when every replica of a placement group is
    /// persistently down — the one failure graceful degradation may
    /// absorb. Exhausted retries and data rot are `None`: a degraded
    /// result must still be the truth about the shards that *were*
    /// reachable.
    pub fn dark_shard(&self) -> Option<usize> {
        match self.cause {
            Cause::Fetch(FetchError::Unavailable(err)) if err.kind == FaultKind::Outage => {
                Some(err.shard)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine {}: ", self.machine)?;
        match self.cause {
            Cause::Fetch(error) => write!(f, "{error}")?,
            Cause::EnginePanicked => f.write_str("engine panicked")?,
            Cause::LanePanicked => f.write_str("lane panicked outside task execution")?,
            Cause::NoSurvivor { outstanding } => {
                write!(f, "died last with {outstanding} chunks outstanding")?;
            }
        }
        f.write_str(" (")?;
        if let Some(task) = self.task {
            write!(f, "task v{}", task.start)?;
            if let Some(split) = task.split {
                write!(f, "[{}/{}]", split.index + 1, split.total)?;
            }
            f.write_str(", ")?;
        }
        write!(f, "attempt {})", self.attempt)
    }
}

impl std::error::Error for Failure {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;
    use benu_engine::SplitSpec;
    use benu_kvstore::{CodecError, CorruptValue};

    fn failure(cause: Cause, task: Option<SearchTask>, machine: usize, attempt: u32) -> Failure {
        Failure {
            cause,
            task,
            machine,
            attempt,
        }
    }

    fn gave_up(kind: FaultKind, attempts: u32) -> Cause {
        Cause::Fetch(FetchError::Unavailable(TransportError {
            shard: 3,
            vertex: 9,
            attempts,
            kind,
        }))
    }

    #[test]
    fn one_line_localises_every_kind() {
        let split = SearchTask {
            start: 3,
            split: Some(SplitSpec { index: 1, total: 5 }),
        };
        let missing = Cause::Fetch(FetchError::Missing {
            vertex: 7,
            shard: 1,
        });
        let rotten = Cause::Fetch(FetchError::Corrupt(CorruptValue {
            vertex: 5,
            shard: 2,
            error: CodecError::Truncated,
        }));
        let lost = Cause::NoSurvivor { outstanding: 12 };
        let cases = [
            (
                failure(missing, Some(SearchTask::whole(7)), 2, 1),
                "corrupt_value",
                "machine 2: vertex 7 missing from shard 1 (task v7, attempt 1)",
            ),
            (
                failure(rotten, Some(SearchTask::whole(5)), 1, 1),
                "corrupt_value",
                "machine 1: corrupt value for vertex 5 on shard 2: truncated payload \
                 (task v5, attempt 1)",
            ),
            (
                failure(gave_up(FaultKind::Timeout, 8), Some(split), 4, 2),
                "retry_exhausted",
                "machine 4: shard 3 unavailable for vertex 9 after 8 attempts \
                 (task v3[2/5], attempt 2)",
            ),
            (
                failure(gave_up(FaultKind::Outage, 1), Some(split), 4, 1),
                "store_unavailable",
                "machine 4: shard 3 unavailable for vertex 9 after 1 attempts \
                 (task v3[2/5], attempt 1)",
            ),
            (
                failure(Cause::EnginePanicked, Some(split), 0, 2),
                "task_panicked",
                "machine 0: engine panicked (task v3[2/5], attempt 2)",
            ),
            (
                failure(Cause::LanePanicked, None, 1, 1),
                "worker_lost",
                "machine 1: lane panicked outside task execution (attempt 1)",
            ),
            (
                failure(lost, None, 0, 1),
                "worker_lost",
                "machine 0: died last with 12 chunks outstanding (attempt 1)",
            ),
        ];
        for (failure, name, line) in cases {
            assert_eq!(failure.name(), name);
            assert_eq!(failure.to_string(), line);
        }
    }

    #[test]
    fn only_an_outage_names_a_dark_shard() {
        let at = |cause| failure(cause, None, 0, 1).dark_shard();
        assert_eq!(at(gave_up(FaultKind::Outage, 1)), Some(3));
        // One attempt spent is not what makes an outage.
        assert_eq!(at(gave_up(FaultKind::Timeout, 1)), None);
        assert_eq!(at(gave_up(FaultKind::Transient, 8)), None);
        assert_eq!(at(Cause::NoSurvivor { outstanding: 1 }), None);
        assert_eq!(at(Cause::EnginePanicked), None);
    }
}
