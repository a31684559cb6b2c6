//! A query's lifecycle: one value per run and its pure transitions.
//!
//! Every entry point that changes a query — `submit`, a lane starting or
//! handing over one of its chunks, `cancel`, the pool losing its chunks
//! with the last machine, `wait` — takes the run's lock, makes one
//! transition of its [`Lifecycle`] and applies the [`Effects`] the
//! transition returned. A transition takes no lock, touches no atomic
//! and makes no pool call, so the lifecycle is checked as a transition
//! system: `explore` (tests only) walks every interleaving of them.
//!
//! The phases, in order: *Queued* (admitted, no chunk started) →
//! *Running* (a lane started a chunk) → *Terminating* (the terminal is
//! decided; the chunks still out are accounted for as they come back) →
//! *Settled* (every chunk accounted for; the result waits) → *Taken*
//! (`wait` handed it over). The first three hold the query's
//! [`CommitState`], the in-order commit and budget machine, and whether
//! the run holds an inflight slot. A run whose terminal is decided at
//! admission passes through them in one transition.

use crate::admission::AdmissionVerdict;
use crate::commit::{CommitState, Delivery};
use crate::query::{QueryId, QueryResult, QueryStatus, Terminal};
use benu_cluster::Failure;

/// What a transition leaves the service to do, still under the run's
/// lock and in this order.
#[must_use]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Effects {
    /// Raise the run's stop bit: its terminal was decided just now.
    pub stop: bool,
    /// Take an inflight slot: the run is queued on the pool.
    pub take_slot: bool,
    /// Drain the run's queued chunks off the pool and hand their number
    /// to [`Lifecycle::released`].
    pub drain: bool,
    /// Release the run's inflight slot.
    pub release_slot: bool,
    /// The run settled: book its result in its class and notify waiters.
    pub settle: bool,
    /// With `settle`: the run's observations feed its class. Only an
    /// exhaustive `Completed` run's cover the whole enumeration.
    pub feed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Stage {
    Queued,
    Running,
    Terminating,
}

#[cfg_attr(test, derive(Clone))]
enum Phase {
    /// Admitted and not settled; `counted` while the run holds an
    /// inflight slot, which it does from being queued on the pool.
    Live {
        stage: Stage,
        commit: CommitState,
        counted: bool,
    },
    Settled(QueryResult),
    Taken,
}

/// One run's lifecycle (see the module docs).
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Lifecycle {
    id: QueryId,
    plan_cache_hit: bool,
    phase: Phase,
}

impl Lifecycle {
    /// Query `id`, before admission.
    pub(crate) fn new(id: QueryId, plan_cache_hit: bool, commit: CommitState) -> Self {
        let phase = Phase::Live {
            stage: Stage::Queued,
            commit,
            counted: false,
        };
        Lifecycle {
            id,
            plan_cache_hit,
            phase,
        }
    }

    /// Admission's verdict. A queued run takes an inflight slot; any
    /// other has nothing on the pool, so it settles here.
    pub(crate) fn admit(&mut self, verdict: AdmissionVerdict) -> Effects {
        let terminal = match verdict {
            AdmissionVerdict::Admit => {
                if let Phase::Live { counted, .. } = &mut self.phase {
                    *counted = true;
                }
                return Effects {
                    take_slot: true,
                    ..Effects::default()
                };
            }
            AdmissionVerdict::Decided => None,
            AdmissionVerdict::Shed { retry_after_vticks } => {
                Some(Terminal::Rejected { retry_after_vticks })
            }
            AdmissionVerdict::Lost(failure) => Some(Terminal::Failed(failure)),
        };
        self.step(|commit| {
            if let Some(terminal) = terminal {
                commit.set_terminal(terminal);
            }
            commit.skip(commit.outstanding());
        })
    }

    /// A lane starts one of the run's chunks.
    pub(crate) fn start(&mut self) {
        if let Phase::Live { stage, .. } = &mut self.phase {
            *stage = (*stage).max(Stage::Running);
        }
    }

    /// A lane hands chunk `chunk` over: executed, failed, or dropped
    /// (`None`) because the stop bit was up.
    pub(crate) fn chunk(&mut self, chunk: usize, outcome: Option<Delivery>) -> Effects {
        self.step(|commit| commit.deliver(chunk, outcome))
    }

    /// Cancels the run: `None` once its terminal is decided.
    pub(crate) fn cancel(&mut self) -> Option<Effects> {
        let mut cancelled = false;
        let effects = self.step(|commit| cancelled = commit.set_terminal(Terminal::Cancelled));
        cancelled.then_some(effects)
    }

    /// The last machine died holding or queueing `n` of the run's chunks:
    /// they never run, and the run fails with `failure`.
    pub(crate) fn lost(&mut self, n: usize, failure: Failure) -> Effects {
        self.step(|commit| {
            commit.set_terminal(Terminal::Failed(failure));
            commit.skip(n);
        })
    }

    /// A drain took `n` of the run's chunks off the pool's queue.
    pub(crate) fn released(&mut self, n: usize) -> Effects {
        self.step(|commit| commit.skip(n))
    }

    /// Hands the settled result over — once.
    pub(crate) fn take(&mut self) -> Option<QueryResult> {
        match std::mem::replace(&mut self.phase, Phase::Taken) {
            Phase::Settled(result) => Some(result),
            phase => {
                self.phase = phase;
                None
            }
        }
    }

    /// Admitted and not settled: `wait` waits.
    pub(crate) fn live(&self) -> bool {
        matches!(self.phase, Phase::Live { .. })
    }

    /// The public view of the phase: a Terminating run is still Running.
    pub(crate) fn status(&self) -> Option<QueryStatus> {
        match &self.phase {
            Phase::Live {
                stage: Stage::Queued,
                ..
            } => Some(QueryStatus::Queued),
            Phase::Live { .. } => Some(QueryStatus::Running),
            Phase::Settled(result) => Some(QueryStatus::Finished(result.clone())),
            Phase::Taken => None,
        }
    }

    /// The settled result, for the service to stamp with what no
    /// transition knows: the completion order and the wall time.
    pub(crate) fn result_mut(&mut self) -> Option<&mut QueryResult> {
        match &mut self.phase {
            Phase::Settled(result) => Some(result),
            _ => None,
        }
    }

    /// Feeds `input` to a live run's commit state and moves the run on: a
    /// terminal decided just now raises the stop bit and drains the pool,
    /// and once every chunk is accounted for the run settles.
    fn step(&mut self, input: impl FnOnce(&mut CommitState)) -> Effects {
        let mut effects = Effects::default();
        let Phase::Live {
            stage,
            commit,
            counted,
        } = &mut self.phase
        else {
            return effects;
        };
        input(commit);
        if commit.terminal().is_none() {
            return effects;
        }
        if *stage != Stage::Terminating {
            *stage = Stage::Terminating;
            effects.stop = true;
            effects.drain = *counted;
        }
        if commit.is_complete() {
            let result = commit.finish(self.id, self.plan_cache_hit);
            effects.release_slot = *counted;
            effects.settle = true;
            effects.feed = result.terminal == Terminal::Completed && result.exhaustive;
            self.phase = Phase::Settled(result);
        }
        effects
    }
}

#[cfg(test)]
mod explore;
