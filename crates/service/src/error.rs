//! The serving-layer error taxonomy.
//!
//! Every failure the request path can hit maps onto one structured
//! [`ServiceError`]; the variants mirror the transport/worker taxonomy
//! of the batch cluster (`benu_cluster::WorkerError`) but are scoped to
//! *one query*: a query that hits any of these settles with
//! [`crate::Terminal::Failed`] (or, for an unrecoverable shard outage
//! under graceful degradation, [`crate::Terminal::DegradedPartial`])
//! while every other in-flight query keeps running. Nothing on the
//! request path panics.

use benu_cluster::transport::FetchError;
use benu_cluster::FaultKind;
use benu_engine::SearchTask;
use benu_graph::VertexId;

/// Why one query failed. Carried inside [`crate::Terminal::Failed`];
/// never aborts the process or any sibling query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// A store request kept faulting (transient errors / timeouts) for
    /// longer than the retry policy allows. Retryable faults were
    /// retried with virtual backoff; this surfaces only once the
    /// attempt budget is spent.
    RetryExhausted {
        /// The vertex whose fetch (or whose shard batch) failed.
        vertex: VertexId,
        /// The shard that kept refusing.
        shard: usize,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// Every replica of the vertex's placement group is persistently
    /// dark (shard outage) — retrying cannot help, so the request
    /// failed fast without spending retry budget. With
    /// [`crate::ServiceConfig::graceful_degradation`] enabled this is
    /// the one error class a query can absorb: affected chunks go dark
    /// and the query settles as [`crate::Terminal::DegradedPartial`].
    StoreUnavailable {
        /// The vertex whose placement group is dark.
        vertex: VertexId,
        /// The dark primary shard.
        shard: usize,
    },
    /// The stored value is unusable: its bytes failed to decode, or the
    /// vertex is missing from the resident store entirely while the
    /// task list still names it. Permanent — every replica mirrors the
    /// same value, so neither retry nor failover can help.
    CorruptValue {
        /// The vertex whose value is rotten or gone.
        vertex: VertexId,
        /// What was wrong with it (stable, human-readable).
        detail: String,
    },
    /// The engine panicked while running one of this query's tasks — a
    /// bug, or a pattern the resident graph cannot answer (labels
    /// against an unlabelled store). The chunk's executor is discarded
    /// and the serving worker carries on with the next grant.
    TaskPanicked {
        /// The task whose execution panicked (under hybrid execution:
        /// the head of the panicking batch).
        task: SearchTask,
    },
    /// The serving worker executing this query's chunk crashed and no
    /// survivor could take the work over (the whole pool is dead).
    /// While survivors remain, a crash never surfaces: the uncommitted
    /// chunk is requeued and re-executed elsewhere.
    WorkerLost {
        /// The lane that died.
        lane: usize,
        /// The chunk it was holding.
        chunk: usize,
    },
}

impl ServiceError {
    /// Stable lower-case name (reports, logs, counters).
    pub fn name(&self) -> &'static str {
        match self {
            ServiceError::RetryExhausted { .. } => "retry_exhausted",
            ServiceError::StoreUnavailable { .. } => "store_unavailable",
            ServiceError::CorruptValue { .. } => "corrupt_value",
            ServiceError::TaskPanicked { .. } => "task_panicked",
            ServiceError::WorkerLost { .. } => "worker_lost",
        }
    }

    /// True for the one error class graceful degradation can absorb:
    /// a persistent shard outage. Availability exhaustion and data rot
    /// always fail the query — a degraded result must still be the
    /// deterministic truth about the shards that *were* reachable.
    pub(crate) fn is_degradable(&self) -> bool {
        matches!(self, ServiceError::StoreUnavailable { .. })
    }

    /// The dark shard behind a degradable error.
    pub(crate) fn dark_shard(&self) -> Option<usize> {
        match self {
            ServiceError::StoreUnavailable { shard, .. } => Some(*shard),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::RetryExhausted {
                vertex,
                shard,
                attempts,
            } => write!(
                f,
                "shard {shard} unavailable for vertex {vertex} after {attempts} attempts"
            ),
            ServiceError::StoreUnavailable { vertex, shard } => write!(
                f,
                "every replica of vertex {vertex} (primary shard {shard}) is down"
            ),
            ServiceError::CorruptValue { vertex, detail } => {
                write!(f, "unusable value for vertex {vertex}: {detail}")
            }
            ServiceError::TaskPanicked { task } => {
                write!(f, "engine panicked on task v{}", task.start)
            }
            ServiceError::WorkerLost { lane, chunk } => write!(
                f,
                "serving worker {lane} crashed on chunk {chunk} with no survivors"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Maps the lane source's error taxonomy into the service's. A vertex
/// missing from the resident store (or decoding to garbage) is a data
/// error of this query, not a process abort; an availability failure is
/// a hopeless outage or an exhausted retry budget, by the kind of the
/// fault that refused last.
impl From<FetchError> for ServiceError {
    fn from(err: FetchError) -> Self {
        match err {
            FetchError::Missing(vertex) => ServiceError::CorruptValue {
                vertex,
                detail: "missing from the resident store".into(),
            },
            FetchError::Corrupt(err) => ServiceError::CorruptValue {
                vertex: err.vertex,
                detail: err.error.to_string(),
            },
            FetchError::Unavailable(err) if err.kind == FaultKind::Outage => {
                ServiceError::StoreUnavailable {
                    vertex: err.vertex,
                    shard: err.shard,
                }
            }
            FetchError::Unavailable(err) => ServiceError::RetryExhausted {
                vertex: err.vertex,
                shard: err.shard,
                attempts: err.attempts,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display_are_stable() {
        let errs = [
            ServiceError::RetryExhausted {
                vertex: 3,
                shard: 1,
                attempts: 8,
            },
            ServiceError::StoreUnavailable {
                vertex: 4,
                shard: 2,
            },
            ServiceError::CorruptValue {
                vertex: 5,
                detail: "missing from the resident store".into(),
            },
            ServiceError::WorkerLost { lane: 0, chunk: 9 },
            ServiceError::TaskPanicked {
                task: SearchTask::whole(6),
            },
        ];
        assert_eq!(errs[0].name(), "retry_exhausted");
        assert_eq!(errs[1].name(), "store_unavailable");
        assert_eq!(errs[2].name(), "corrupt_value");
        assert_eq!(errs[3].name(), "worker_lost");
        assert_eq!(errs[4].name(), "task_panicked");
        assert_eq!(errs[4].to_string(), "engine panicked on task v6");
        assert!(errs[0].to_string().contains("after 8 attempts"));
        assert!(errs[2].to_string().contains("vertex 5"));
    }

    #[test]
    fn availability_errors_map_by_the_kind_that_refused_last() {
        let gave_up = |kind| {
            ServiceError::from(FetchError::Unavailable(benu_cluster::TransportError {
                shard: 2,
                vertex: 4,
                attempts: 1,
                kind,
            }))
        };
        assert_eq!(gave_up(FaultKind::Outage).name(), "store_unavailable");
        // One attempt spent is not what makes an outage: a no-retry
        // policy exhausts after one attempt too.
        assert_eq!(gave_up(FaultKind::Timeout).name(), "retry_exhausted");
        assert_eq!(
            ServiceError::from(FetchError::Missing(5)).name(),
            "corrupt_value"
        );
    }

    #[test]
    fn only_outages_are_degradable() {
        assert!(ServiceError::StoreUnavailable {
            vertex: 0,
            shard: 3
        }
        .is_degradable());
        assert_eq!(
            ServiceError::StoreUnavailable {
                vertex: 0,
                shard: 3
            }
            .dark_shard(),
            Some(3)
        );
        assert!(!ServiceError::WorkerLost { lane: 0, chunk: 0 }.is_degradable());
        assert!(!ServiceError::CorruptValue {
            vertex: 0,
            detail: String::new()
        }
        .is_degradable());
    }
}
