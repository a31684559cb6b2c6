//! Admission control: bounded backlog with deterministic load-shedding.
//!
//! A serving pool without admission control converts overload into
//! unbounded queue growth and unbounded tail latency. The service
//! instead evaluates every submission against the backlog *at the
//! admission point*, under the same lock that would enqueue it, and
//! sheds with a structured [`crate::Terminal::Rejected`] — the caller
//! learns immediately, nothing of the query executes, and no partially
//! admitted state needs unwinding.
//!
//! The verdict is a pure function of `(caps, backlog snapshot, incoming
//! query shape)`. Given the same submission sequence against the same
//! service state, the same queries are shed — load-shedding is
//! replayable, which is what lets the chaos suite assert on it.
//!
//! Two independent gates, both optional (a zero cap disables a gate):
//!
//! 1. **Inflight queries** — non-terminal admitted queries, capped by
//!    [`crate::ServiceConfig::max_inflight_queries`].
//! 2. **Queued chunks** — un-granted chunks across the fair queue plus
//!    the incoming query's own chunks, capped by
//!    [`crate::ServiceConfig::max_queued_chunks`]. Charging the incoming
//!    query's full footprint up front keeps one huge query from
//!    squeezing past a nearly-full backlog.
//!
//! No gate reads a query's deadline: a deadline is charged only for the
//! query's own committed vticks, never for time spent queued, so the
//! backlog ahead of a query says nothing about whether it can meet it.
//!
//! The `retry_after_vticks` carried by the rejection is a lower bound on
//! the service virtual time that must elapse before the backlog that
//! caused the shed can have drained: one vtick per queued chunk (every
//! committed chunk books at least one tick). It is advisory — a hint
//! for caller-side backoff, not a reservation.

use benu_cluster::Failure;

/// The admission gates, snapshot from [`crate::ServiceConfig`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdmissionCaps {
    /// Max queries admitted and not yet terminal (0 = unbounded).
    pub max_inflight_queries: usize,
    /// Max un-granted chunks including the incoming query's
    /// (0 = unbounded).
    pub max_queued_chunks: usize,
}

/// The service's backlog at the admission point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoadSnapshot {
    /// Admitted, non-terminal queries.
    pub inflight_queries: usize,
    /// Un-granted chunks across the fair queue.
    pub queued_chunks: usize,
}

/// What admission decided for one submission. [`evaluate`] decides
/// between the first two; the service decides the last two itself,
/// before and after asking it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdmissionVerdict {
    /// Enqueue the query.
    Admit,
    /// Shed it: nothing executes, the caller gets
    /// [`crate::Terminal::Rejected`] with this drain-time lower bound.
    Shed {
        /// Lower bound on the service vticks needed to drain the
        /// backlog that caused the shed (≥ 1, so "retry immediately"
        /// is never advised).
        retry_after_vticks: u64,
    },
    /// The query is terminal before it is asked (deadline 0,
    /// `max_matches` 0, `TopK(0)`, no tasks): admitted, nothing queued.
    Decided,
    /// Admitted into a pool whose every machine died: the query fails
    /// with this [`Failure`] ([`benu_cluster::Cause::NoSurvivor`]).
    Lost(Failure),
}

/// Evaluates one submission against the backlog. Pure — callers pass a
/// consistent snapshot taken under the service lock.
pub(crate) fn evaluate(
    caps: AdmissionCaps,
    load: LoadSnapshot,
    incoming_chunks: usize,
) -> AdmissionVerdict {
    let shed = AdmissionVerdict::Shed {
        retry_after_vticks: (load.queued_chunks as u64).max(1),
    };
    if caps.max_inflight_queries > 0 && load.inflight_queries >= caps.max_inflight_queries {
        return shed;
    }
    if caps.max_queued_chunks > 0 && load.queued_chunks + incoming_chunks > caps.max_queued_chunks {
        return shed;
    }
    AdmissionVerdict::Admit
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: AdmissionCaps = AdmissionCaps {
        max_inflight_queries: 0,
        max_queued_chunks: 0,
    };

    fn load(inflight: usize, queued: usize) -> LoadSnapshot {
        LoadSnapshot {
            inflight_queries: inflight,
            queued_chunks: queued,
        }
    }

    #[test]
    fn zero_caps_admit_everything() {
        assert_eq!(
            evaluate(OPEN, load(10_000, 1_000_000), 5_000),
            AdmissionVerdict::Admit
        );
    }

    #[test]
    fn inflight_cap_sheds_at_the_boundary() {
        let caps = AdmissionCaps {
            max_inflight_queries: 2,
            ..OPEN
        };
        assert_eq!(evaluate(caps, load(1, 0), 4), AdmissionVerdict::Admit);
        assert_eq!(
            evaluate(caps, load(2, 7), 4),
            AdmissionVerdict::Shed {
                retry_after_vticks: 7
            }
        );
    }

    #[test]
    fn chunk_cap_charges_the_incoming_footprint() {
        let caps = AdmissionCaps {
            max_queued_chunks: 10,
            ..OPEN
        };
        assert_eq!(evaluate(caps, load(1, 6), 4), AdmissionVerdict::Admit);
        assert_eq!(
            evaluate(caps, load(1, 6), 5),
            AdmissionVerdict::Shed {
                retry_after_vticks: 6
            },
            "6 queued + 5 incoming > 10"
        );
    }

    #[test]
    fn retry_hint_is_never_zero() {
        let caps = AdmissionCaps {
            max_inflight_queries: 1,
            ..OPEN
        };
        assert_eq!(
            evaluate(caps, load(1, 0), 1),
            AdmissionVerdict::Shed {
                retry_after_vticks: 1
            }
        );
    }
}
