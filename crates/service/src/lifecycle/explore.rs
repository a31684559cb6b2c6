//! Every interleaving of the lifecycle's transitions, up to a bound.
//!
//! [`Lifecycle`] is the whole of a query's bookkeeping: each entry point
//! of the service takes the run's lock, makes one transition and applies
//! the [`Effects`] it returned. So the service is checked by driving the
//! real `Lifecycle` — and the [`CommitState`] inside it — the way the
//! service and its pool do, against a model of the pool's queue and the
//! service's counters. The actors: a client submits (each budget, with
//! each admission verdict), cancels or waits; the pool grants a query's
//! next queued chunk; a lane starts its chunk and hands it over done,
//! failed with a shard outage or a bad value, or dropped once the stop
//! bit is up; a machine crashes with survivors (its chunk goes back to
//! the queue) or last of all (every queued and granted chunk is lost, and
//! each query is told so later). Every order is walked breadth first,
//! memoising visited states — up to the order of steps of different
//! queries: those touch different runs and commute, so only the
//! lowest-numbered query that can move does, while submissions and the
//! last crash interleave with everything (a partial-order reduction; each
//! check below is about one query or a sum over queries, so it sees every
//! state it would in the full product). After every transition the
//! explorer checks that
//!
//! * each query settles once, and only with every chunk accounted for:
//!   committed + discarded (dark included) = its chunks, and none is
//!   queued, granted or lost-but-untold any more;
//! * while a query is live, its commit state's outstanding chunks are
//!   exactly those queued, granted or lost-but-untold;
//! * the stop bit is up exactly when the terminal is decided: raised once,
//!   by the transition that decided it, never lowered — and a terminal
//!   leaves nothing of the query queued;
//! * `inflight` counts the live queries that hold a slot, and `rejected`
//!   the shed ones, so `admitted` (ids issued − rejected) + `rejected` =
//!   submissions;
//! * observations feed the class exactly from exhaustive `Completed`
//!   runs;
//! * the status only moves forward — Queued, Running, Finished, gone —
//!   a cancel after the terminal changes nothing, and `wait` hands the
//!   result over once;
//!
//! and, in every state where nothing can move any more, that every query
//! was handed over and `inflight` is back to 0 — no query is left live
//! (a hang).
//!
//! The bound: 1 to 3 queries of 1 to 3 chunks each. A delivered chunk
//! has one match and costs one vtick, so a deadline of 1 bites at the
//! second chunk, and a `max_matches` or `TopK` of 1 at the first — mid
//! stream when there are more. Graceful degradation is on, so an outage
//! makes a chunk dark and a bad value fails the query.

use super::{Effects, Lifecycle, Phase, Stage};
use crate::admission::AdmissionVerdict;
use crate::commit::{CommitState, Delivery, ExecutedChunk};
use crate::query::{QueryStatus, ResultMode, Terminal};
use benu_cluster::{Cause, Failure, FaultKind, FetchError, TransportError};
use benu_engine::{MatchSet, TaskMetrics};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A query's budget and result mode, fixed at submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Budget {
    /// Collects every match.
    Full,
    /// A deadline of 1 vtick.
    Deadline,
    /// `max_matches` 1.
    Cap,
    /// `TopK(1)`: `Completed` at the first chunk, exhaustive only if it is
    /// the last.
    TopK,
    /// A deadline of 0: terminal at admission.
    Zero,
}

const BUDGETS: [Budget; 5] = [
    Budget::Full,
    Budget::Deadline,
    Budget::Cap,
    Budget::TopK,
    Budget::Zero,
];

impl Budget {
    fn commit(self, chunks: usize) -> CommitState {
        let (mode, deadline, cap) = match self {
            Budget::Full => (ResultMode::Collect, None, None),
            Budget::Deadline => (ResultMode::Collect, Some(1), None),
            Budget::Cap => (ResultMode::Collect, None, Some(1)),
            Budget::TopK => (ResultMode::TopK(1), None, None),
            Budget::Zero => (ResultMode::Collect, Some(0), None),
        };
        CommitState::new(chunks, &mode, deadline, cap, true)
    }
}

/// How a lane hands a chunk over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Handed {
    Done,
    /// A shard outage: degradable, so the chunk goes dark.
    Outage,
    /// A value missing from the store: not degradable.
    Rot,
    /// The stop bit was up.
    Dropped,
}

const HANDS: [Handed; 4] = [Handed::Done, Handed::Outage, Handed::Rot, Handed::Dropped];

fn failure(cause: Cause) -> Failure {
    Failure {
        cause,
        task: None,
        machine: 0,
        attempt: 1,
    }
}

impl Handed {
    fn delivery(self, chunk: u8) -> Option<Delivery> {
        let fetch = |error| Some(Err(failure(Cause::Fetch(error))));
        match self {
            Handed::Done => {
                let mut matches = MatchSet::default();
                matches.push(&[u32::from(chunk)]);
                let (count, vticks, metrics) = (1, 1, TaskMetrics::default());
                Some(Ok(ExecutedChunk {
                    matches,
                    count,
                    vticks,
                    metrics,
                }))
            }
            Handed::Outage => fetch(FetchError::Unavailable(TransportError {
                shard: 0,
                vertex: 0,
                attempts: 1,
                kind: FaultKind::Outage,
            })),
            Handed::Rot => fetch(FetchError::Missing {
                vertex: 0,
                shard: 1,
            }),
            Handed::Dropped => None,
        }
    }
}

/// One step of one actor.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The next query is submitted; `shed` when the gates refuse it.
    Submit {
        budget: Budget,
        shed: bool,
    },
    /// The pool grants query `q`'s next queued chunk to a lane.
    Grant {
        q: usize,
    },
    /// The lane holding it starts the chunk (`Job::start`).
    Start {
        q: usize,
        chunk: u8,
    },
    /// The lane hands the chunk over (`Job::chunk_done`).
    Hand {
        q: usize,
        chunk: u8,
        how: Handed,
    },
    /// The lane's machine dies and others survive: the chunk goes back to
    /// the front of the queue, and the lane never hands it over.
    HandBack {
        q: usize,
        chunk: u8,
    },
    /// The last machine dies: every queued and granted chunk is lost.
    Crash,
    /// The pool tells query `q` what it lost (`Job::lost`).
    Lost {
        q: usize,
    },
    Cancel {
        q: usize,
    },
    Wait {
        q: usize,
    },
}

/// One submitted query: its lifecycle, what the pool holds of it, and
/// what the explorer saw happen to it.
#[derive(Clone)]
struct Run {
    life: Lifecycle,
    shed: bool,
    /// Queued chunks, next to grant first.
    queued: VecDeque<u8>,
    /// Granted chunks and whether their lane started them, sorted.
    granted: Vec<(u8, bool)>,
    /// Chunks lost with the last machine, not yet told.
    lost: usize,
    stopped: bool,
    /// The furthest status seen: Queued, Running, Finished, gone.
    status: u8,
    settles: u8,
    taken: u8,
}

#[derive(Clone)]
struct Node {
    runs: Vec<Run>,
    /// Chunks per query.
    chunks: usize,
    /// The last machine died.
    dead: bool,
    inflight: i64,
    rejected: usize,
}

#[derive(Clone, Copy, Debug)]
struct Bound {
    queries: usize,
    chunks: usize,
}

impl Node {
    /// Tells states apart: every field of every run, the lifecycle's
    /// phase included.
    fn fingerprint(&self) -> u64 {
        let mut h = Fx(0);
        (self.dead, self.inflight, self.rejected).hash(&mut h);
        for run in &self.runs {
            match &run.life.phase {
                Phase::Live {
                    stage,
                    commit,
                    counted,
                } => (0, stage, commit, counted).hash(&mut h),
                Phase::Settled(r) => {
                    let terminal = format!("{:?}", r.terminal);
                    let chunks = (r.chunks_committed, r.chunks_discarded);
                    (1, terminal, r.matches_found, chunks, r.exhaustive).hash(&mut h);
                }
                Phase::Taken => 2.hash(&mut h),
            }
            (run.shed, &run.queued, &run.granted, run.lost, run.stopped).hash(&mut h);
            (run.status, run.settles, run.taken).hash(&mut h);
        }
        h.finish()
    }

    /// Every step some actor can take.
    fn steps(&self, bound: &Bound, steps: &mut Vec<Step>) {
        steps.clear();
        if self.runs.len() < bound.queries {
            for budget in BUDGETS {
                steps.push(Step::Submit {
                    budget,
                    shed: false,
                });
                if budget != Budget::Zero {
                    steps.push(Step::Submit { budget, shed: true });
                }
            }
        }
        if !self.dead {
            steps.push(Step::Crash);
        }
        for (q, run) in self.runs.iter().enumerate() {
            let global = steps.len();
            if !run.queued.is_empty() && !self.dead {
                steps.push(Step::Grant { q });
            }
            for &(chunk, started) in &run.granted {
                if !self.dead {
                    steps.push(Step::HandBack { q, chunk });
                }
                if !started {
                    steps.push(Step::Start { q, chunk });
                    continue;
                }
                for how in HANDS {
                    if how != Handed::Dropped || run.stopped {
                        steps.push(Step::Hand { q, chunk, how });
                    }
                }
            }
            if run.lost > 0 {
                steps.push(Step::Lost { q });
            }
            if undecided(&run.life) {
                steps.push(Step::Cancel { q });
            }
            if matches!(run.life.phase, Phase::Settled(_)) {
                steps.push(Step::Wait { q });
            }
            // Steps of different queries commute: only the first query
            // that can move does (see the module docs).
            if steps.len() > global {
                break;
            }
        }
    }

    /// Takes `step`, applying the effects its transition returned.
    fn step(&mut self, step: Step, bound: &Bound) -> Result<(), String> {
        match step {
            Step::Submit { budget, shed } => {
                let q = self.runs.len();
                let commit = budget.commit(bound.chunks);
                if commit.terminal().is_some() != (budget == Budget::Zero) {
                    return Err(format!("{budget:?} decided at admission is wrong"));
                }
                let mut run = Run {
                    life: Lifecycle::new(q as u64, false, commit),
                    shed,
                    queued: VecDeque::new(),
                    granted: Vec::new(),
                    lost: 0,
                    stopped: false,
                    status: 0,
                    settles: 0,
                    taken: 0,
                };
                // As `submit` decides: terminal at admission first, then
                // the gates, then the pool.
                let verdict = match (budget, shed, self.dead) {
                    (Budget::Zero, _, _) => AdmissionVerdict::Decided,
                    (_, true, _) => AdmissionVerdict::Shed {
                        retry_after_vticks: 1,
                    },
                    (_, false, true) => AdmissionVerdict::Lost(failure(Cause::NoSurvivor {
                        outstanding: bound.chunks,
                    })),
                    (_, false, false) => {
                        run.queued = (0..bound.chunks as u8).collect();
                        AdmissionVerdict::Admit
                    }
                };
                let effects = run.life.admit(verdict);
                self.runs.push(run);
                self.apply(q, effects)?;
            }
            Step::Grant { q } => {
                let run = &mut self.runs[q];
                let chunk = run.queued.pop_front().expect("a queued chunk");
                run.granted.push((chunk, false));
                run.granted.sort_unstable();
            }
            Step::Start { q, chunk } => {
                let run = &mut self.runs[q];
                let at = run.granted.iter().position(|g| *g == (chunk, false));
                run.granted[at.expect("a granted chunk")].1 = true;
                run.life.start();
            }
            Step::Hand { q, chunk, how } => {
                let run = &mut self.runs[q];
                run.granted.retain(|&(c, _)| c != chunk);
                let effects = run.life.chunk(usize::from(chunk), how.delivery(chunk));
                self.apply(q, effects)?;
            }
            Step::HandBack { q, chunk } => {
                let run = &mut self.runs[q];
                run.granted.retain(|&(c, _)| c != chunk);
                run.queued.push_front(chunk);
            }
            Step::Crash => {
                self.dead = true;
                for run in &mut self.runs {
                    run.lost += run.queued.len() + run.granted.len();
                    run.queued.clear();
                    run.granted.clear();
                }
            }
            Step::Lost { q } => {
                let run = &mut self.runs[q];
                let n = std::mem::take(&mut run.lost);
                let effects = run
                    .life
                    .lost(n, failure(Cause::NoSurvivor { outstanding: n }));
                self.apply(q, effects)?;
            }
            Step::Cancel { q } => match self.runs[q].life.cancel() {
                Some(effects) => self.apply(q, effects)?,
                None => return Err("an undecided query refused a cancel".into()),
            },
            Step::Wait { q } => {
                let run = &mut self.runs[q];
                let result = run.life.take();
                run.taken += 1;
                if result.is_none_or(|r| r.id != q as u64) || run.life.take().is_some() {
                    return Err("wait did not hand the result over once".into());
                }
            }
        }
        for (q, run) in self.runs.iter_mut().enumerate() {
            let status = match run.life.status() {
                Some(QueryStatus::Queued) => 0,
                Some(QueryStatus::Running) => 1,
                Some(QueryStatus::Finished(_)) => 2,
                None => 3,
            };
            if status < run.status {
                return Err(format!("query {q}'s status went back to {status}"));
            }
            run.status = status;
        }
        Ok(())
    }

    /// Applies `effects` to query `q` as `Inner::apply` does.
    fn apply(&mut self, q: usize, effects: Effects) -> Result<(), String> {
        let Effects {
            stop,
            take_slot,
            drain,
            release_slot,
            settle,
            feed,
        } = effects;
        if stop {
            if self.runs[q].stopped {
                return Err("the stop bit was raised twice".into());
            }
            self.runs[q].stopped = true;
        }
        if take_slot {
            self.inflight += 1;
        }
        if drain {
            let run = &mut self.runs[q];
            let released = run.queued.len();
            run.queued.clear();
            let effects = run.life.released(released);
            self.apply(q, effects)?;
        }
        if stop && !self.runs[q].queued.is_empty() {
            return Err("a terminal left chunks queued".into());
        }
        if release_slot {
            self.inflight -= 1;
        }
        if !settle {
            return match feed {
                true => Err("fed without settling".into()),
                false => Ok(()),
            };
        }
        let run = &mut self.runs[q];
        run.settles += 1;
        let Phase::Settled(result) = &run.life.phase else {
            return Err("settled without a result".into());
        };
        let out = run.queued.len() + run.granted.len() + run.lost;
        if result.chunks_committed + result.chunks_discarded != self.chunks || out > 0 {
            return Err(format!("settled with chunks unaccounted for: {result:?}"));
        }
        if feed != (result.terminal == Terminal::Completed && result.exhaustive) {
            return Err(format!("feed {feed} from {:?}", result.terminal));
        }
        if matches!(result.terminal, Terminal::Rejected { .. }) {
            self.rejected += 1;
        }
        Ok(())
    }

    /// The invariants of every reachable state.
    fn check(&self) -> Result<(), String> {
        let mut counted = 0;
        for (q, run) in self.runs.iter().enumerate() {
            let decided = match &run.life.phase {
                Phase::Live {
                    stage,
                    commit,
                    counted: slot,
                } => {
                    let out = run.queued.len() + run.granted.len() + run.lost;
                    if commit.outstanding() != out {
                        let left = commit.outstanding();
                        return Err(format!("query {q} waits for {left} chunks, {out} are out"));
                    }
                    if (*stage == Stage::Terminating) != commit.terminal().is_some() {
                        return Err(format!(
                            "query {q} is {stage:?} with {:?}",
                            commit.terminal()
                        ));
                    }
                    counted += usize::from(*slot);
                    *stage == Stage::Terminating
                }
                Phase::Settled(_) | Phase::Taken => true,
            };
            if run.stopped != decided {
                return Err(format!(
                    "query {q}: stop bit {}, decided {decided}",
                    run.stopped
                ));
            }
            if decided && run.life.clone().cancel().is_some() {
                return Err(format!("query {q} was cancelled after its terminal"));
            }
            let settled = !matches!(run.life.phase, Phase::Live { .. });
            let taken = matches!(run.life.phase, Phase::Taken);
            if run.settles != u8::from(settled) || run.taken != u8::from(taken) {
                return Err(format!("query {q} settled {} times", run.settles));
            }
        }
        if self.inflight != counted as i64 {
            return Err(format!("inflight {}, {counted} hold a slot", self.inflight));
        }
        // `admitted` is ids issued − rejected: right iff every shed query,
        // and no other, settled `Rejected` in its `submit`.
        let shed = self.runs.iter().filter(|run| run.shed).count();
        if self.rejected != shed {
            return Err(format!("{} rejected of {shed} shed", self.rejected));
        }
        Ok(())
    }

    /// A state where nothing can move any more.
    fn check_end(&self, bound: &Bound) -> Result<(), String> {
        if let Some(q) = self.runs.iter().position(|run| run.taken == 0) {
            return Err(format!("hang: query {q} is never handed over"));
        }
        if self.runs.len() != bound.queries || self.inflight != 0 {
            return Err(format!("ended with inflight {}", self.inflight));
        }
        Ok(())
    }
}

/// Whether a cancel would decide `life`'s terminal.
fn undecided(life: &Lifecycle) -> bool {
    matches!(
        life.phase,
        Phase::Live {
            stage: Stage::Queued | Stage::Running,
            ..
        }
    )
}

/// The fingerprints only tell states apart, so they use a word-at-a-time
/// multiplicative hash (as rustc's `FxHasher`), not SipHash.
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Breadth first over every interleaving within `bound`; returns the
/// number of states visited and of transitions taken, or panics with the
/// shortest interleaving that breaks an invariant.
fn explore(bound: Bound) -> (usize, usize) {
    let start = Node {
        runs: Vec::new(),
        chunks: bound.chunks,
        dead: false,
        inflight: 0,
        rejected: 0,
    };
    let mut seen = HashSet::from([start.fingerprint()]);
    // How each visited state was reached: its parent's index and the step.
    let mut trail: Vec<(usize, Option<Step>)> = vec![(0, None)];
    let mut queue = VecDeque::from([(start, 0)]);
    let mut steps = Vec::new();
    let mut transitions = 0;
    while let Some((node, at)) = queue.pop_front() {
        node.steps(&bound, &mut steps);
        transitions += steps.len();
        if steps.is_empty() {
            if let Err(violation) = node.check_end(&bound) {
                fail(&bound, &trail, at, None, &violation);
            }
        }
        for &step in &steps {
            let mut next = node.clone();
            let fresh = next.step(step, &bound).and_then(|()| {
                match seen.insert(next.fingerprint()) {
                    // A state seen before was checked when first reached.
                    true => next.check().map(|()| true),
                    false => Ok(false),
                }
            });
            match fresh {
                Err(violation) => fail(&bound, &trail, at, Some(step), &violation),
                Ok(true) => {
                    trail.push((at, Some(step)));
                    queue.push_back((next, trail.len() - 1));
                }
                Ok(false) => {}
            }
        }
    }
    (seen.len(), transitions)
}

fn fail(
    bound: &Bound,
    trail: &[(usize, Option<Step>)],
    mut at: usize,
    last: Option<Step>,
    violation: &str,
) -> ! {
    let mut steps: Vec<Step> = last.into_iter().collect();
    while let (parent, Some(step)) = trail[at] {
        steps.push(step);
        at = parent;
    }
    let steps: Vec<String> = steps
        .iter()
        .rev()
        .enumerate()
        .map(|(i, step)| format!("  {:>2}. {step:?}", i + 1))
        .collect();
    panic!(
        "{violation}\n{bound:?}, {} states in, by\n{}",
        trail.len(),
        steps.join("\n")
    );
}

#[test]
fn every_interleaving_keeps_the_lifecycle_invariants() {
    let started = Instant::now();
    let (mut states, mut transitions) = (0, 0);
    for queries in 1..=3 {
        for chunks in 1..=3 {
            let (s, t) = explore(Bound { queries, chunks });
            states += s;
            transitions += t;
        }
    }
    eprintln!(
        "lifecycle explorer: {states} states, {transitions} transitions, {:.1?}",
        started.elapsed()
    );
}
