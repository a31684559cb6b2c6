//! The lane pool: one chunk queue, one lane loop, one crash rule.
//!
//! Algorithm 2 of the paper has one worker body — pull local search
//! tasks, run the plan against the cache-fronted store, report — and
//! §III-C one recovery sentence: tasks are independent and idempotent,
//! so lost ones are re-executed anywhere. This module is that body and
//! that sentence, once, for every runtime in the workspace.
//!
//! * A **job** ([`Job`]) owns a compiled plan, a task list cut into
//!   **chunks** (contiguous task-index ranges), the transport and fault
//!   gate each machine reads through, a stop flag, and the sinks its
//!   results go to. A batch run is one job; the service admits one per
//!   query.
//! * The **queue** inside a [`Pool`] rotates over admitted jobs by
//!   weighted round-robin — one grant is one chunk, so a newly admitted
//!   job waits at most one chunk per lane — and, within a job, follows
//!   each chunk's *home*: a chunk homed on a machine is granted to that
//!   machine's lanes only ([`SchedulerKind::Static`]) or to them first
//!   and to an idle machine off the back of the deque
//!   ([`SchedulerKind::WorkStealing`]); a chunk without a home goes to
//!   whichever lane asks next, lowest index first.
//! * A **lane** ([`lane_loop`]) is one thread of one machine. It takes
//!   the chunk the queue grants it, binds a [`LaneSource`] and a
//!   [`LaneExecutor`](crate::worker::LaneExecutor) once per consecutive
//!   run of grants from the same job (one *visit*), runs the chunk's
//!   tasks, and hands the outcome over.
//! * **Hand-over** is the one place jobs differ in code rather than
//!   data ([`HandOver`]): `PerChunk` delivers each chunk's metrics and
//!   rows as soon as it ran (budgets are defined over the in-order chunk
//!   stream); `AtEnd` keeps rows in the lane's executor and delivers one
//!   sorted part per visit (a k-way merge must not see one part per
//!   chunk).
//! * **The crash rule.** A machine dies at the first chunk boundary at
//!   or after [`FaultPlan::crash_after`] completed tasks (or when one of
//!   its lanes unwinds). Every chunk its lanes had not yet handed over —
//!   under `PerChunk` the one it just ran, under `AtEnd` everything it
//!   ran — goes back to the queue for the survivors together with what
//!   was still queued at its home (re-homed round-robin), and the job is
//!   told ([`Job::handed_back`]) so it drops the machine's results. With
//!   no survivor the outstanding chunks are [`Job::lost`]. Ownership of
//!   a chunk changes under one lock, so a chunk is never both handed
//!   over and handed back, and never handed back twice. Once the pool
//!   has finished nothing is handed back: its lanes are leaving.
//!
//! **One state machine.** All of the above is `State`, the pool's
//! transition function: `admit`, `drain` and `close` for the fronts;
//! `grant`, `finish` and `crash` for the lanes. A transition runs under
//! the pool's one lock, never blocks and never calls a job. It returns
//! what is left to do outside the lock — which jobs to tell of a crash —
//! and its wake-up decision: whether a parked lane may now be granted a
//! chunk or must leave (work was queued, a machine died, or the pool
//! finished). A [`Pool`] method locks, makes one transition, unlocks,
//! tells the jobs and notifies exactly when the transition said so, so
//! an idle lane blocks on the condvar with no timeout. `pool::explore`
//! (a test) checks every interleaving of these transitions up to a
//! bound, the wake-up rule included.
//!
//! **Admission contract.** A chunk's home, if it has one, is a live
//! machine: under `Static` a chunk homed on a dead one would never be
//! granted. Both fronts keep it: a batch run admits its homed chunks
//! once, before any lane runs; the service admits homeless chunks, at any
//! time.

use crate::failure::{Cause, Failure};
use crate::gate::FaultGate;
use crate::resident::Resident;
use crate::transport::Transport;
use crate::worker::{LaneSource, LaneStats};
use benu_engine::{CompiledPlan, MatchSet, SearchTask, TaskMetrics};
use benu_fault::FaultPlan;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tasks per chunk of a batch run, and the default of the service's
/// `chunk_tasks`: enough sibling tasks to share hub fetches in one
/// hybrid batch, few enough that a crash or a budget cut loses little.
pub const CHUNK_TASKS: usize = 64;

/// Which lanes a homed chunk may be granted to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Only the lanes of its home machine (the paper's even shuffle).
    #[default]
    Static,
    /// Its home machine's lanes first; a machine with nothing of its own
    /// takes the back chunk of another machine's deque.
    WorkStealing,
}

impl SchedulerKind {
    /// Stable lowercase name (the CLI / JSON spelling).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Static => "static",
            SchedulerKind::WorkStealing => "work-stealing",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When a lane hands a job's results over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandOver {
    /// After every chunk: [`Job::chunk_done`] receives the chunk's
    /// metrics and rows, and the chunk is the job's from then on.
    PerChunk,
    /// Once per visit: metrics accumulate in the [`LanePart`], rows stay
    /// in the executor until [`Job::lane_done`], and the machine's
    /// chunks stay its own — lost with it — for the job's lifetime.
    AtEnd,
}

/// The fixed description of a job.
#[derive(Clone, Copy)]
pub struct Spec<'a> {
    /// The plan every chunk runs.
    pub plan: &'a CompiledPlan,
    /// Materialise embeddings instead of counting them.
    pub collect: bool,
    /// The hand-over granularity.
    pub hand_over: HandOver,
}

/// What became of a chunk a lane was granted. Only [`Outcome::Done`]
/// carries results: whether a chunk is dropped or delivered is decided
/// before anything is done to its rows. (An outcome is passed to its
/// job once and never stored, so the metrics ride unboxed.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    /// The job's stop flag was up before the chunk finished; whatever
    /// ran is discarded.
    Dropped,
    /// The chunk hit an unrecoverable fault; it contributes nothing.
    Failed(Failure),
    /// The chunk ran to completion ([`HandOver::PerChunk`] only).
    Done {
        /// Summed metrics of the chunk's tasks.
        metrics: TaskMetrics,
        /// The chunk's embeddings in engine order (empty unless
        /// [`Spec::collect`]).
        rows: MatchSet,
    },
}

/// What one visit of a lane to a job accumulated.
#[derive(Default)]
pub struct LanePart {
    /// Summed metrics of the chunks the visit ran to completion
    /// ([`HandOver::AtEnd`]; zero under `PerChunk`, where they travel
    /// with each chunk).
    pub metrics: TaskMetrics,
    /// Tasks in those chunks.
    pub executed: usize,
    /// Wall time of every slice the visit ran plus the virtual latency
    /// (retry backoff, timeout waits, slow shards) it was charged.
    pub busy: Duration,
    /// The virtual-latency share of `busy`.
    pub penalty: Duration,
    /// The executor's own counters.
    pub stats: LaneStats,
}

impl std::ops::AddAssign for LanePart {
    fn add_assign(&mut self, rhs: Self) {
        self.metrics += rhs.metrics;
        self.executed += rhs.executed;
        self.busy += rhs.busy;
        self.penalty += rhs.penalty;
        self.stats += rhs.stats;
    }
}

/// A unit of admitted work (see the module docs). The accessors are
/// called by lanes on their own threads; the sinks are called outside
/// every pool lock, so they may call back into the [`Pool`].
pub trait Job: Send {
    /// The job's fixed description.
    fn spec(&self) -> Spec<'_>;

    /// The tasks of `chunk`. Called once per grant, when a lane of
    /// `machine` starts the chunk; `stolen` when the chunk was homed on
    /// another machine.
    fn start(&self, machine: usize, chunk: usize, stolen: bool) -> &[SearchTask];

    /// The transport and fault gate `machine` reads through.
    fn reads(&self, machine: usize) -> (&Transport, Option<&FaultGate>);

    /// True once the job wants no more work done: running chunks stop at
    /// the next slice boundary and arrive as [`Outcome::Dropped`].
    fn stopped(&self) -> bool;

    /// A chunk that was dropped, failed, or — under
    /// [`HandOver::PerChunk`] — ran to completion.
    fn chunk_done(&self, machine: usize, chunk: usize, outcome: Outcome);

    /// The end of one visit of a lane of `machine`: what it counted
    /// and, for a collecting job, the sorted rows its executor still held
    /// — under [`HandOver::AtEnd`] every row of the visit, under
    /// `PerChunk` none.
    fn lane_done(&self, machine: usize, part: LanePart, rows: Option<MatchSet>);

    /// `machine` died: `chunks` went back to the queue for the
    /// survivors, and whatever the machine had not handed over is void —
    /// under [`HandOver::AtEnd`] every part its lanes report, before or
    /// after this call.
    fn handed_back(&self, machine: usize, chunks: &[usize]);

    /// The last machine died: `chunks` — everything of this job not yet
    /// handed over — will never run, which `failure` says
    /// ([`Cause::NoSurvivor`]).
    fn lost(&self, chunks: &[usize], failure: Failure);
}

/// One admitted job's un-granted chunks and its place in the rotation.
#[cfg_attr(test, derive(Clone))]
struct Entry<J> {
    id: u64,
    job: J,
    weight: u32,
    /// Chunks left in this round-robin turn; refilled from `weight`.
    credit: u32,
    /// Un-granted chunks, next to grant first: one deque per home
    /// machine, and a last one for chunks without a home.
    queues: Vec<VecDeque<usize>>,
}

impl<J: Clone> Entry<J> {
    fn new(id: u64, job: J, weight: u32, machines: usize) -> Self {
        let weight = weight.max(1);
        Entry {
            id,
            job,
            weight,
            credit: weight,
            queues: vec![VecDeque::new(); machines + 1],
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// `chunk`, off deque `slot`, granted.
    fn grant(&self, chunk: usize, slot: usize, stolen: bool) -> Grant<J> {
        Grant {
            id: self.id,
            job: self.job.clone(),
            weight: self.weight,
            chunk,
            slot,
            stolen,
            done: false,
        }
    }

    /// The next chunk a lane of `machine` may have, and the deque it
    /// came off: its own, the homeless one, or — stealing — the back of
    /// another machine's (a deque's front is about to be run by its
    /// owner and is the most cache-relevant to it).
    fn take(&mut self, machine: usize, kind: SchedulerKind) -> Option<(usize, usize)> {
        let machines = self.queues.len() - 1;
        for slot in [machine, machines] {
            if let Some(chunk) = self.queues[slot].pop_front() {
                return Some((chunk, slot));
            }
        }
        let victims = (1..machines).map(|offset| (machine + offset) % machines);
        for slot in victims.filter(|_| kind == SchedulerKind::WorkStealing) {
            if let Some(chunk) = self.queues[slot].pop_back() {
                return Some((chunk, slot));
            }
        }
        None
    }
}

/// A chunk of a job granted to a machine: the lane runs it, and the
/// machine holds it until it is handed over.
#[derive(Clone)]
struct Grant<J> {
    id: u64,
    job: J,
    weight: u32,
    chunk: usize,
    /// The deque it was granted off.
    slot: usize,
    /// It was homed on another machine.
    stolen: bool,
    /// Ran to completion and kept ([`HandOver::AtEnd`]).
    done: bool,
}

/// What a transition leaves the pool to do once the lock is released:
/// its wake-up decision, and what a crash did to each job.
#[must_use]
enum After<J> {
    /// No parked lane can go on.
    Rest,
    /// A parked lane may now be granted a chunk or have to leave: work was
    /// queued, or the pool finished.
    Wake,
    /// A machine died (the first field), which wakes every parked lane:
    /// the dead machine's to leave, the survivors' for what came back. The
    /// last field lists each affected job — its id, the job, its chunks.
    /// If any machine survives (the second field), those chunks went back
    /// to the queue ([`Job::handed_back`]); if none does, they never run
    /// ([`Job::lost`]).
    Crash(usize, bool, Vec<(u64, J, Vec<usize>)>),
}

impl<J> After<J> {
    fn wake(wake: bool) -> Self {
        match wake {
            true => After::Wake,
            false => After::Rest,
        }
    }
}

/// The pool's whole concurrency logic: its transition function. Every
/// step a lane or a front takes is one transition of this state under
/// the pool's lock; a transition never blocks and never calls a job, and
/// returns its wake-up decision in an [`After`].
#[cfg_attr(test, derive(Clone))]
struct State<J> {
    kind: SchedulerKind,
    entries: Vec<Entry<J>>,
    /// Position of the entry whose round-robin turn it is. May sit one
    /// past the last entry, meaning "the next admitted job has the
    /// turn" — that is what guarantees a late admission is served within
    /// one chunk of the running job instead of waiting a full cycle.
    cursor: usize,
    dead: Vec<bool>,
    /// The machine that died most recently.
    last_dead: usize,
    /// Tasks each machine may still complete before its crash boundary
    /// ([`FaultPlan::crash_after`]), across jobs; `None`: it has none.
    until_crash: Vec<Option<u64>>,
    held: Vec<Vec<Grant<J>>>,
    /// Granted chunks still running on live machines.
    running: usize,
    closed: bool,
}

impl<J: Clone> State<J> {
    /// The state of a pool for `machines` machines granting homed chunks
    /// by `kind` and crashing machines as `crash_plan` schedules, before
    /// anything is admitted: [`Pool::new`]'s, and [`replay`]'s.
    fn new(machines: usize, kind: SchedulerKind, crash_plan: Option<&FaultPlan>) -> Self {
        let until_crash = |m| crash_plan.and_then(|plan| plan.crash_after(m));
        State {
            kind,
            entries: Vec::new(),
            cursor: 0,
            dead: vec![false; machines],
            last_dead: 0,
            until_crash: (0..machines).map(until_crash).collect(),
            held: (0..machines).map(|_| Vec::new()).collect(),
            running: 0,
            closed: false,
        }
    }

    /// Nothing is queued, nothing is running and nothing more will be
    /// admitted: no lane can ever be granted anything again. While a
    /// chunk is running its machine may still die and hand work back, so
    /// an idle lane must not leave before this holds.
    fn finished(&self) -> bool {
        self.closed && self.entries.is_empty() && self.running == 0
    }

    /// Queues `chunks` of `job` under `id`, keeping the admission
    /// contract (module docs). Wakes parked lanes if anything was queued.
    fn admit(
        &mut self,
        id: u64,
        job: J,
        weight: u32,
        chunks: impl IntoIterator<Item = (usize, Option<usize>)>,
    ) -> (Result<(), Failure>, After<J>) {
        if self.dead.iter().all(|&dead| dead) {
            let failure = no_survivor(self.last_dead, chunks.into_iter().count());
            return (Err(failure), After::wake(false));
        }
        let machines = self.dead.len();
        let mut entry = Entry::new(id, job, weight, machines);
        for (chunk, home) in chunks {
            entry.queues[home.unwrap_or(machines)].push_back(chunk);
        }
        let queued = entry.len() > 0;
        if queued {
            self.entries.push(entry);
        }
        (Ok(()), After::wake(queued))
    }

    /// Removes job `id`'s un-granted chunks, returning how many. Wakes
    /// parked lanes if that finished the pool.
    fn drain(&mut self, id: u64) -> (usize, After<J>) {
        let Some(at) = self.entries.iter().position(|e| e.id == id) else {
            return (0, After::wake(false));
        };
        let released = self.entries.remove(at).len();
        if at < self.cursor {
            self.cursor -= 1;
        }
        (released, After::wake(self.finished()))
    }

    /// Nothing more will be admitted. Wakes parked lanes if that
    /// finished the pool.
    fn close(&mut self) -> After<J> {
        self.closed = true;
        After::wake(self.finished())
    }

    /// Grants a lane of `machine` the next chunk of the first entry, from
    /// the one whose turn it is, that has one for it. The grant consumes
    /// one credit; an exhausted credit (or an emptied entry) rotates the
    /// cursor.
    fn grant(&mut self, machine: usize) -> Option<Grant<J>> {
        if self.dead[machine] {
            return None;
        }
        let n = self.entries.len();
        for step in 0..n {
            // A past-the-end cursor wraps to 0 only now that nothing was
            // admitted behind it.
            let cur = (self.cursor + step) % n;
            let entry = &mut self.entries[cur];
            let Some((chunk, slot)) = entry.take(machine, self.kind) else {
                continue;
            };
            let grant = entry.grant(chunk, slot, slot != machine && slot != self.dead.len());
            self.held[machine].push(grant.clone());
            entry.credit -= 1;
            let exhausted_turn = entry.credit == 0;
            if exhausted_turn {
                entry.credit = entry.weight;
            }
            if entry.len() == 0 {
                // The successor shifts into `cur` and inherits the turn.
                self.entries.remove(cur);
                self.cursor = cur;
            } else {
                self.cursor = cur + usize::from(exhausted_turn);
            }
            self.running += 1;
            return Some(grant);
        }
        None
    }

    /// A lane of `machine` finished running `grant`'s `tasks` tasks:
    /// counts them toward the machine's crash boundary and, if the
    /// machine lives, releases the chunk (`keep` = false: it is being
    /// handed over now) or marks it done and still the machine's. If the
    /// machine is dead — by this boundary or a sibling's — the chunk went
    /// back with everything else it held. Wakes parked lanes if the
    /// machine died here or the pool finished.
    fn finish(&mut self, machine: usize, grant: &Grant<J>, tasks: usize, keep: bool) -> After<J> {
        if self.dead[machine] {
            return After::wake(false);
        }
        if let Some(left) = &mut self.until_crash[machine] {
            *left = left.saturating_sub(tasks as u64);
            if *left == 0 {
                return self.crash(machine);
            }
        }
        let held = &mut self.held[machine];
        let at = held
            .iter()
            .rposition(|h| h.id == grant.id && h.chunk == grant.chunk)
            .expect("a live machine holds what it was granted");
        if keep {
            held[at].done = true;
        } else {
            held.swap_remove(at);
        }
        self.running -= 1;
        After::wake(self.finished())
    }

    /// The crash rule: marks `machine` dead and moves every chunk it held
    /// or had queued at its home back to the survivors — homed chunks
    /// dealt round-robin, homeless ones to the front, where their job is
    /// waiting on them — or, with no survivor, takes every queued chunk
    /// out for good ([`After::Crash`]). A machine dies once, and
    /// not after the pool finished: every lane is leaving then, so
    /// nothing handed back could run, and a lane that unwinds fails its
    /// run by unwinding.
    fn crash(&mut self, machine: usize) -> After<J> {
        if self.dead[machine] || self.finished() {
            return After::wake(false);
        }
        self.dead[machine] = true;
        self.last_dead = machine;
        let machines = self.dead.len();
        let survivors: Vec<usize> = (0..machines).filter(|&m| !self.dead[m]).collect();
        let mut back = std::mem::take(&mut self.held[machine]);
        self.running -= back.iter().filter(|h| !h.done).count();
        // What was queued at the dead machine's home — or, with nobody
        // left to run it, anywhere.
        for entry in &mut self.entries {
            for slot in (0..=machines).filter(|&slot| slot == machine || survivors.is_empty()) {
                for chunk in std::mem::take(&mut entry.queues[slot]) {
                    back.push(entry.grant(chunk, slot, false));
                }
            }
        }
        self.entries.retain(|entry| entry.len() > 0);
        self.cursor = self.cursor.min(self.entries.len());
        let mut jobs: Vec<(u64, J, Vec<usize>)> = Vec::new();
        for (dealt, h) in back.into_iter().enumerate() {
            match jobs.iter_mut().find(|job| job.0 == h.id) {
                Some(job) => job.2.push(h.chunk),
                None => jobs.push((h.id, h.job.clone(), vec![h.chunk])),
            }
            if survivors.is_empty() {
                continue;
            }
            // The job's entry, re-admitted at the back of the rotation if
            // its last chunk had been granted.
            let at = self.entries.iter().position(|e| e.id == h.id);
            let at = at.unwrap_or_else(|| {
                self.entries
                    .push(Entry::new(h.id, h.job, h.weight, machines));
                self.entries.len() - 1
            });
            let queues = &mut self.entries[at].queues;
            if h.slot == machines {
                queues[machines].push_front(h.chunk);
            } else {
                queues[survivors[dealt % survivors.len()]].push_back(h.chunk);
            }
        }
        After::Crash(machine, !survivors.is_empty(), jobs)
    }
}

/// The chunk queue, the machines' liveness and the wake-up signal the
/// lanes of one runtime share. Whoever owns the lanes' lifetime creates
/// the pool and spawns [`lane_loop`] on it — a batch run for one call,
/// the service for its life. Every method takes the lock, makes one
/// transition of the pool's state, and — the lock released — tells jobs
/// of a crash and wakes parked lanes exactly when the transition said so.
pub struct Pool<J> {
    state: Mutex<State<J>>,
    /// Parked lanes wait here.
    work: Condvar,
}

impl<J: Job + Clone> Pool<J> {
    /// A pool for `machines` machines granting homed chunks by `kind`,
    /// crashing machines as `crash_plan` schedules.
    pub fn new(machines: usize, kind: SchedulerKind, crash_plan: Option<&FaultPlan>) -> Self {
        Pool {
            state: Mutex::new(State::new(machines, kind, crash_plan)),
            work: Condvar::new(),
        }
    }

    /// The state, whatever a lane that unwound holding the lock left of
    /// it: every update is a handful of field writes, and the crash rule
    /// must still run for that lane's machine.
    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes one transition under the lock, then, with the lock
    /// released, tells every job a crash affected what it did to it — so
    /// a job may call back into the pool — and wakes the parked lanes
    /// exactly when the transition said so.
    fn step<T>(&self, transition: impl FnOnce(&mut State<J>) -> (T, After<J>)) -> T {
        let (out, after) = transition(&mut self.lock());
        if let After::Crash(machine, survivors, jobs) = &after {
            for (_, job, chunks) in jobs {
                if *survivors {
                    job.handed_back(*machine, chunks);
                } else {
                    job.lost(chunks, no_survivor(*machine, chunks.len()));
                }
            }
        }
        if !matches!(after, After::Rest) {
            self.work.notify_all();
        }
        out
    }

    /// Admits `job` under `id` with the given `(chunk, home)` pairs, in
    /// grant order per home (no chunks, nothing admitted).
    ///
    /// # Errors
    ///
    /// [`Cause::NoSurvivor`] when no machine is left to run anything.
    pub fn admit(
        &self,
        id: u64,
        job: J,
        weight: u32,
        chunks: impl IntoIterator<Item = (usize, Option<usize>)>,
    ) -> Result<(), Failure> {
        self.step(|st| st.admit(id, job, weight, chunks))
    }

    /// Removes job `id`'s un-granted chunks (cancellation, budget
    /// termination), returning how many were released.
    pub fn drain(&self, id: u64) -> usize {
        self.step(|st| st.drain(id))
    }

    /// Total un-granted chunks across every admitted job.
    pub fn depth(&self) -> usize {
        self.lock().entries.iter().map(Entry::len).sum()
    }

    /// Nothing more will be admitted: lanes leave once the queue is
    /// empty and nothing is running.
    pub fn close(&self) {
        self.step(|st| ((), st.close()));
    }

    /// True once `machine` has died.
    pub fn is_dead(&self, machine: usize) -> bool {
        self.lock().dead[machine]
    }

    /// The next grant for a lane of `machine`. With `wait`, blocks until
    /// there is one; `None` then means there never will be (the machine
    /// died, or the pool finished). A grant only takes work, so it never
    /// wakes anyone.
    fn next(&self, machine: usize, wait: bool) -> Option<Grant<J>> {
        let mut st = self.lock();
        loop {
            let grant = st.grant(machine);
            if grant.is_some() || !wait || st.dead[machine] || st.finished() {
                return grant;
            }
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`State::finish`]; false when the machine is dead and the chunk
    /// went back.
    fn finish(&self, machine: usize, grant: &Grant<J>, tasks: usize, keep: bool) -> bool {
        self.step(|st| {
            let after = st.finish(machine, grant, tasks, keep);
            (!st.dead[machine], after)
        })
    }
}

/// The one place a failure is built: cause, task and machine are all in
/// hand in the pool. A job stamps its crash epoch over `attempt`.
fn failure(cause: Cause, task: Option<SearchTask>, machine: usize) -> Failure {
    Failure {
        cause,
        task,
        machine,
        attempt: 1,
    }
}

/// `machine` died last, with `outstanding` chunks of a job left.
fn no_survivor(machine: usize, outstanding: usize) -> Failure {
    failure(Cause::NoSurvivor { outstanding }, None, machine)
}

/// One lane: a thread of `machine`, reading through that machine's
/// database cache.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    /// The machine this lane belongs to.
    pub machine: usize,
    /// Capacity of the lane's private triangle cache, in entries.
    pub triangle_cache_entries: usize,
    /// How many lanes share the deployment's frontier byte budget.
    pub sharers: usize,
}

/// Applies the crash rule to a lane's machine (the pool, the machine) if
/// the lane unwinds, so nobody waits on what it held.
struct Bail<'a, J: Job + Clone>(&'a Pool<J>, usize);

impl<J: Job + Clone> Drop for Bail<'_, J> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.step(|st| ((), st.crash(self.1)));
        }
    }
}

/// The lane body every runtime spawns: takes grants from `pool` until
/// the lane's machine dies or the pool finishes.
pub fn lane_loop<J: Job + Clone>(pool: &Pool<J>, resident: &Resident, lane: Lane) {
    let _bail = Bail(pool, lane.machine);
    let mut next = pool.next(lane.machine, true);
    while let Some(grant) = next {
        next = visit(pool, resident, lane, grant).or_else(|| pool.next(lane.machine, true));
    }
}

/// Runs consecutive grants of one job on one source and one executor.
/// Returns the first grant of another job, if that is what ended the
/// visit.
fn visit<J: Job + Clone>(
    pool: &Pool<J>,
    resident: &Resident,
    lane: Lane,
    mut grant: Grant<J>,
) -> Option<Grant<J>> {
    let machine = lane.machine;
    let job = grant.job.clone();
    let spec = job.spec();
    let (transport, gate) = job.reads(machine);
    let source = LaneSource::new(transport, &resident.caches()[machine], gate);
    let mut executor = resident.executor(
        spec.plan,
        &source,
        lane.triangle_cache_entries,
        lane.sharers,
        spec.collect,
    );
    let failed = |cause, task| Outcome::Failed(failure(cause, Some(task), machine));
    let mut part = LanePart::default();
    let next = loop {
        let tasks = job.start(machine, grant.chunk, grant.stolen);
        // Drop or deliver is decided here, before anything is done to
        // the chunk's rows.
        let ran = 'chunk: {
            let mut ran = TaskMetrics::default();
            for slice in tasks.chunks(executor.stride(tasks.len())) {
                if job.stopped() {
                    break 'chunk Err(Outcome::Dropped);
                }
                let t0 = Instant::now();
                let (metrics, penalty) = match executor.run(slice) {
                    Ok(run) => run,
                    Err(task) => break 'chunk Err(failed(Cause::EnginePanicked, task)),
                };
                if let Some(error) = source.error() {
                    break 'chunk Err(failed(Cause::Fetch(error), slice[0]));
                }
                part.busy += t0.elapsed() + penalty;
                part.penalty += penalty;
                ran += metrics;
            }
            if job.stopped() {
                Err(Outcome::Dropped)
            } else {
                Ok(ran)
            }
        };
        let keep = ran.is_ok() && spec.hand_over == HandOver::AtEnd;
        if !pool.finish(machine, &grant, tasks.len(), keep) {
            // The machine is dead: what this lane ran is void.
            return None;
        }
        // A parked error and a panicked engine both outlive the chunk:
        // the visit ends with it.
        let broken = matches!(ran, Err(Outcome::Failed(_)));
        match (ran, spec.hand_over) {
            (Err(outcome), _) => {
                executor.discard();
                job.chunk_done(machine, grant.chunk, outcome);
            }
            (Ok(metrics), HandOver::PerChunk) => {
                let rows = executor.take_rows();
                job.chunk_done(machine, grant.chunk, Outcome::Done { metrics, rows });
            }
            (Ok(metrics), HandOver::AtEnd) => {
                part.metrics += metrics;
                part.executed += tasks.len();
            }
        }
        if broken {
            break None;
        }
        match pool.next(machine, false) {
            Some(more) if more.id == grant.id => grant = more,
            other => break other,
        }
    };
    let (stats, rows) = executor.finish();
    part.stats = stats;
    job.lane_done(machine, part, rows);
    next
}

mod replay;
pub use replay::{replay, Replay, ReplayChunk};

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataPath;
    use benu_graph::{gen, Graph, VertexId};
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// What a [`Recorder`] saw, in arrival order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Event {
        Dropped(usize),
        Failed(usize, Failure),
        Done {
            chunk: usize,
            rows: usize,
        },
        LaneDone {
            machine: usize,
            executed: usize,
        },
        HandedBack {
            machine: usize,
            chunks: Vec<usize>,
        },
        Lost {
            failure: Failure,
            chunks: Vec<usize>,
        },
    }

    /// A job that records what reaches it.
    struct Recorder {
        compiled: CompiledPlan,
        tasks: Vec<SearchTask>,
        chunk_tasks: usize,
        transport: Transport,
        hand_over: HandOver,
        /// The stop flag reads as raised from this poll of it onwards.
        stop_after_polls: usize,
        polls: AtomicUsize,
        events: Mutex<Vec<Event>>,
    }

    impl Recorder {
        fn new(resident: &Resident, hand_over: HandOver, chunk_tasks: usize) -> Self {
            let plan = PlanBuilder::new(&queries::triangle()).best_plan();
            Recorder {
                compiled: CompiledPlan::compile(&plan),
                tasks: (0..resident.degrees().len())
                    .map(|v| SearchTask::whole(v as VertexId))
                    .collect(),
                chunk_tasks,
                transport: resident.transport(),
                hand_over,
                stop_after_polls: usize::MAX,
                polls: AtomicUsize::new(0),
                events: Mutex::new(Vec::new()),
            }
        }

        fn chunks(&self) -> usize {
            self.tasks.len().div_ceil(self.chunk_tasks)
        }

        fn events(&self) -> Vec<Event> {
            self.events.lock().unwrap().clone()
        }

        fn log(&self, event: Event) {
            self.events.lock().unwrap().push(event);
        }
    }

    impl Job for &Recorder {
        fn spec(&self) -> Spec<'_> {
            Spec {
                plan: &self.compiled,
                collect: true,
                hand_over: self.hand_over,
            }
        }

        fn start(&self, _machine: usize, chunk: usize, _stolen: bool) -> &[SearchTask] {
            let start = chunk * self.chunk_tasks;
            &self.tasks[start..self.tasks.len().min(start + self.chunk_tasks)]
        }

        fn reads(&self, _machine: usize) -> (&Transport, Option<&FaultGate>) {
            (&self.transport, None)
        }

        fn stopped(&self) -> bool {
            self.polls.fetch_add(1, Ordering::Relaxed) >= self.stop_after_polls
        }

        fn chunk_done(&self, _machine: usize, chunk: usize, outcome: Outcome) {
            self.log(match outcome {
                Outcome::Dropped => Event::Dropped(chunk),
                Outcome::Failed(failure) => Event::Failed(chunk, failure),
                Outcome::Done { rows, .. } => Event::Done {
                    chunk,
                    rows: rows.len(),
                },
            });
        }

        fn lane_done(&self, machine: usize, part: LanePart, _rows: Option<MatchSet>) {
            let executed = part.executed;
            self.log(Event::LaneDone { machine, executed });
        }

        fn handed_back(&self, machine: usize, chunks: &[usize]) {
            let chunks = chunks.to_vec();
            self.log(Event::HandedBack { machine, chunks });
        }

        fn lost(&self, chunks: &[usize], failure: Failure) {
            let chunks = chunks.to_vec();
            self.log(Event::Lost { failure, chunks });
        }
    }

    fn resident_of(g: &Graph, machines: usize) -> Resident {
        Resident::load(g, machines, machines, &DataPath::default(), 2)
    }

    fn resident(machines: usize) -> Resident {
        resident_of(&gen::complete(12), machines)
    }

    fn lane(machine: usize) -> Lane {
        Lane {
            machine,
            triangle_cache_entries: 16,
            sharers: 1,
        }
    }

    fn homeless(chunks: usize) -> impl Iterator<Item = (usize, Option<usize>)> {
        (0..chunks).map(|c| (c, None))
    }

    /// Grants in the order one lane of `machine` would get them.
    fn grants<J: Job + Clone>(pool: &Pool<J>, machine: usize, n: usize) -> Vec<(u64, usize)> {
        (0..n)
            .map(|_| {
                let grant = pool.next(machine, false).expect("chunk available");
                assert!(pool.finish(machine, &grant, 1, false));
                (grant.id, grant.chunk)
            })
            .collect()
    }

    fn ids<J: Job + Clone>(pool: &Pool<J>, machine: usize, n: usize) -> Vec<u64> {
        grants(pool, machine, n).into_iter().map(|g| g.0).collect()
    }

    // ---- the rotation across jobs ----

    #[test]
    fn round_robin_alternates_jobs() {
        let r = resident(1);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(4)).unwrap();
        pool.admit(1, &job, 1, homeless(4)).unwrap();
        assert_eq!(ids(&pool, 0, 8), vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(pool.next(0, false).is_none());
    }

    #[test]
    fn late_admission_is_served_within_one_chunk() {
        let r = resident(1);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(10)).unwrap();
        assert_eq!(ids(&pool, 0, 1), vec![0]);
        pool.admit(1, &job, 1, homeless(1)).unwrap();
        assert_eq!(ids(&pool, 0, 2), vec![1, 0], "B takes A's next grant");
    }

    #[test]
    fn weights_scale_grants_per_round() {
        let r = resident(1);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 2, homeless(6)).unwrap();
        pool.admit(1, &job, 1, homeless(3)).unwrap();
        assert_eq!(ids(&pool, 0, 9), vec![0, 0, 1, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn homeless_chunks_go_in_index_order_to_whichever_lane_asks() {
        let r = resident(3);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(3, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(6)).unwrap();
        let granted: Vec<usize> = [2, 0, 0, 1, 2, 1]
            .into_iter()
            .map(|machine| grants(&pool, machine, 1)[0].1)
            .collect();
        assert_eq!(granted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn drain_releases_a_jobs_queued_chunks_once() {
        let r = resident(1);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(5)).unwrap();
        pool.admit(1, &job, 1, homeless(5)).unwrap();
        assert_eq!(pool.depth(), 10);
        ids(&pool, 0, 1);
        assert_eq!(pool.drain(0), 4);
        assert_eq!(pool.depth(), 5);
        assert_eq!(pool.drain(0), 0, "draining twice is a no-op");
        assert_eq!(ids(&pool, 0, 5), vec![1; 5]);
    }

    // ---- homes ----

    #[test]
    fn static_never_grants_across_homes_and_stealing_takes_the_back() {
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let homed = || (0..8).map(|c| (c, Some(0)));
        let pool = Pool::new(2, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homed()).unwrap();
        assert!(pool.next(1, false).is_none(), "machine 1 owns nothing");
        assert_eq!(pool.next(0, false).unwrap().chunk, 0);

        let pool = Pool::new(2, SchedulerKind::WorkStealing, None);
        pool.admit(0, &job, 1, homed()).unwrap();
        let stolen = pool.next(1, false).unwrap();
        assert_eq!((stolen.chunk, stolen.stolen), (7, true), "off the back");
        let own = pool.next(0, false).unwrap();
        assert_eq!(
            (own.chunk, own.stolen),
            (0, false),
            "the owner keeps its front"
        );
    }

    #[test]
    fn kind_displays_its_name() {
        assert_eq!(SchedulerKind::WorkStealing.to_string(), "work-stealing");
        assert_eq!(SchedulerKind::default(), SchedulerKind::Static);
    }

    // ---- the crash rule, on the queue alone ----

    fn crashing(machine: usize, after: u64) -> FaultPlan {
        FaultPlan::builder(0).crash(machine, after).build()
    }

    #[test]
    fn per_chunk_crash_hands_back_exactly_the_held_chunk() {
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(2, SchedulerKind::Static, Some(&crashing(1, 2)));
        pool.admit(7, &job, 1, homeless(4)).unwrap();
        // Machine 1 hands chunk 0 over (1 task < 2), then dies at the
        // boundary of chunk 1 — which it still holds.
        assert_eq!(grants(&pool, 1, 1), vec![(7, 0)]);
        let held = pool.next(1, false).unwrap();
        assert!(!pool.finish(1, &held, 1, false), "the boundary kills it");
        assert!(pool.is_dead(1) && pool.next(1, false).is_none());
        assert_eq!(
            job.events(),
            vec![Event::HandedBack {
                machine: 1,
                chunks: vec![1]
            }]
        );
        // The survivor gets chunk 1 back first, then the rest; nothing
        // twice, nothing of chunk 0 again.
        assert_eq!(grants(&pool, 0, 3), vec![(7, 1), (7, 2), (7, 3)]);
        assert!(pool.next(0, false).is_none());
        // What is admitted later is the survivor's alone.
        pool.admit(8, &job, 1, homeless(2)).unwrap();
        assert!(pool.next(1, false).is_none());
        assert_eq!(grants(&pool, 0, 2), vec![(8, 0), (8, 1)]);
    }

    #[test]
    fn a_retired_entry_is_revived_by_a_hand_back() {
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(2, SchedulerKind::Static, Some(&crashing(1, 1)));
        pool.admit(7, &job, 1, homeless(2)).unwrap();
        let c0 = pool.next(0, false).unwrap();
        let c1 = pool.next(1, false).unwrap();
        assert_eq!(pool.depth(), 0, "entry retired: every chunk granted");
        assert!(!pool.finish(1, &c1, 1, false));
        assert_eq!(pool.depth(), 1);
        assert!(pool.finish(0, &c0, 1, false));
        assert_eq!(grants(&pool, 0, 1), vec![(7, 1)]);
    }

    #[test]
    fn at_end_crash_hands_back_everything_the_machine_ran_and_had_queued() {
        let r = resident(3);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let pool = Pool::new(3, SchedulerKind::Static, Some(&crashing(0, 3)));
        // Chunks 0..4 homed on machine 0, 4..6 on machine 1, 6..8 on 2.
        let homes = (0..8).map(|c| (c, Some([0, 0, 0, 0, 1, 1, 2, 2][c])));
        pool.admit(0, &job, 1, homes).unwrap();
        for _ in 0..2 {
            let grant = pool.next(0, false).unwrap();
            assert!(pool.finish(0, &grant, 1, true), "kept, not handed over");
        }
        // Two lanes of machine 0 are running its last two chunks when
        // the first of them reaches the boundary.
        let third = pool.next(0, false).unwrap();
        let fourth = pool.next(0, false).unwrap();
        assert!(!pool.finish(0, &third, 1, true));
        assert_eq!(
            job.events(),
            vec![Event::HandedBack {
                machine: 0,
                chunks: vec![0, 1, 2, 3]
            }],
            "two it ran, two it was running"
        );
        // The sibling finishes on a dead machine: its chunk already went
        // back, and does not go back again.
        assert!(!pool.finish(0, &fourth, 1, true));
        assert_eq!((job.events().len(), pool.depth()), (1, 8));
        // Dealt round-robin over the survivors, behind their own.
        assert_eq!(grants(&pool, 1, 4), vec![(0, 4), (0, 5), (0, 0), (0, 2)]);
        assert_eq!(grants(&pool, 2, 4), vec![(0, 6), (0, 7), (0, 1), (0, 3)]);
    }

    #[test]
    fn staggered_crashes_never_hand_a_chunk_back_twice_from_one_machine() {
        // Machine 1 inherits machine 0's chunks, then dies itself: what
        // goes back the second time is what machine 1 held — its own
        // chunks and the inherited ones, each once — and machine 0's
        // crash is not replayed.
        let r = resident(3);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let plan = FaultPlan::builder(0).crash(0, 1).crash(1, 3).build();
        let pool = Pool::new(3, SchedulerKind::Static, Some(&plan));
        let homes = (0..6).map(|c| (c, Some(c / 2)));
        pool.admit(0, &job, 1, homes).unwrap();
        let first = pool.next(0, false).unwrap();
        assert!(!pool.finish(0, &first, 1, true));
        // 0 → machine 1, 1 → machine 2.
        for _ in 0..2 {
            let grant = pool.next(1, false).unwrap();
            assert!(pool.finish(1, &grant, 1, true));
        }
        let third = pool.next(1, false).unwrap();
        assert_eq!(third.chunk, 0, "the inherited chunk");
        assert!(!pool.finish(1, &third, 1, true));
        assert_eq!(
            job.events()[1],
            Event::HandedBack {
                machine: 1,
                chunks: vec![2, 3, 0]
            }
        );
        let mut rest: Vec<usize> = grants(&pool, 2, 6).into_iter().map(|g| g.1).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1, 2, 3, 4, 5], "every chunk once more, once");
        assert!(pool.next(2, false).is_none());
    }

    #[test]
    fn a_thief_on_a_dying_machine_strands_nothing() {
        // The stranded-steal regression, on chunks: machine 1 steals
        // from machine 0 and dies holding the loot. The stolen chunk
        // goes back with the rest; nothing waits in a dead deque.
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let pool = Pool::new(2, SchedulerKind::WorkStealing, Some(&crashing(1, 1)));
        pool.admit(0, &job, 1, (0..4).map(|c| (c, Some(0))))
            .unwrap();
        let loot = pool.next(1, false).unwrap();
        assert!(loot.stolen);
        assert!(!pool.finish(1, &loot, 1, true));
        assert_eq!(
            job.events(),
            vec![Event::HandedBack {
                machine: 1,
                chunks: vec![3]
            }]
        );
        let mut all: Vec<usize> = grants(&pool, 0, 4).into_iter().map(|g| g.1).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn the_last_machine_takes_every_outstanding_chunk_with_it() {
        let r = resident(1);
        let job = Recorder::new(&r, HandOver::PerChunk, 3);
        let pool = Pool::new(1, SchedulerKind::Static, Some(&crashing(0, 1)));
        pool.admit(3, &job, 1, homeless(3)).unwrap();
        let held = pool.next(0, false).unwrap();
        assert!(!pool.finish(0, &held, 1, false));
        assert_eq!(
            job.events(),
            vec![Event::Lost {
                failure: no_survivor(0, 3),
                chunks: vec![0, 1, 2]
            }]
        );
        assert_eq!(pool.depth(), 0);
        assert_eq!(
            pool.admit(4, &job, 1, homeless(1)),
            Err(no_survivor(0, 1)),
            "the pool is dead"
        );
    }

    #[test]
    fn an_idle_lane_stays_while_a_running_chunk_may_come_back() {
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let pool = Pool::new(2, SchedulerKind::Static, Some(&crashing(0, 1)));
        pool.admit(0, &job, 1, [(0, Some(0))]).unwrap();
        pool.close();
        let running = pool.next(0, false).unwrap();
        // Machine 1 has nothing and the queue is empty — but machine 0
        // is still running, so the pool is not finished.
        assert!(pool.next(1, false).is_none());
        assert!(!pool.lock().finished());
        assert!(!pool.finish(0, &running, 1, true));
        // The chunk came back to machine 1: `next` returns it, and only
        // after it is done does the lane get to leave.
        let back = pool.next(1, true).expect("the handed-back chunk");
        assert!(pool.finish(1, &back, 1, true));
        assert!(pool.next(1, true).is_none(), "now the pool is finished");
    }

    #[test]
    fn a_lane_unwinding_after_the_pool_finished_hands_nothing_back() {
        // The shortest interleaving `explore` finds for this: under
        // `AtEnd` a machine keeps what it ran, and handing that back once
        // the pool finished would give it to lanes that are leaving —
        // granted again, or stranded once they have left.
        let r = resident(2);
        let job = Recorder::new(&r, HandOver::AtEnd, 1);
        let pool = Pool::new(2, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, [(0, Some(0)), (1, Some(1))])
            .unwrap();
        pool.close();
        for machine in [0, 1] {
            let grant = pool.next(machine, false).unwrap();
            assert!(pool.finish(machine, &grant, 1, true));
        }
        assert!(pool.lock().finished());
        // What `Bail` does when a lane of machine 1 unwinds now, in
        // `Job::lane_done`.
        pool.step(|st| ((), st.crash(1)));
        assert!(pool.next(0, true).is_none(), "nothing to grant");
        assert!(job.events().is_empty(), "nothing handed back");
    }

    // ---- the lane loop against a recording job ----

    #[test]
    fn a_lane_visits_once_and_hands_over_per_the_granularity() {
        let r = resident(1);
        for hand_over in [HandOver::PerChunk, HandOver::AtEnd] {
            let job = Recorder::new(&r, hand_over, 5);
            let pool = Pool::new(1, SchedulerKind::Static, None);
            pool.admit(0, &job, 1, homeless(job.chunks())).unwrap();
            pool.close();
            lane_loop(&pool, &r, lane(0));
            let events = job.events();
            // K12 has 220 triangles, found from whichever endpoint ranks
            // first; 12 tasks in chunks of 5, 5, 2.
            let done: Vec<&Event> = events
                .iter()
                .filter(|e| matches!(e, Event::Done { .. }))
                .collect();
            match hand_over {
                HandOver::PerChunk => {
                    assert_eq!(done.len(), 3, "{events:?}");
                    let rows: usize = done
                        .iter()
                        .map(|e| match e {
                            Event::Done { rows, .. } => *rows,
                            _ => 0,
                        })
                        .sum();
                    assert_eq!(rows, 220);
                }
                HandOver::AtEnd => assert!(done.is_empty(), "{events:?}"),
            }
            let executed = if hand_over == HandOver::AtEnd { 12 } else { 0 };
            assert_eq!(
                events.last(),
                Some(&Event::LaneDone {
                    machine: 0,
                    executed
                }),
                "one visit, one executor"
            );
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, Event::LaneDone { .. }))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn a_chunk_finished_after_the_stop_flag_rose_arrives_dropped_without_rows() {
        let r = resident(1);
        let mut job = Recorder::new(&r, HandOver::PerChunk, 4);
        // DFS polls the flag before each of a chunk's 4 tasks and once
        // after the last: chunk 0 is delivered (polls 0..=4), chunk 1 runs
        // all of its tasks (polls 5..=8) and finds the flag up at poll 9.
        job.stop_after_polls = 9;
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(job.chunks())).unwrap();
        pool.close();
        lane_loop(&pool, &r, lane(0));
        let events = job.events();
        assert!(matches!(events[0], Event::Done { chunk: 0, .. }));
        assert_eq!(events[1], Event::Dropped(1), "ran, but is not delivered");
        assert_eq!(events[2], Event::Dropped(2), "never ran: {events:?}");
    }

    #[test]
    fn a_chunk_whose_source_parked_an_error_arrives_failed_and_ends_the_visit() {
        // Two disjoint K6: tasks of one never read the other's vertices.
        let k6 = |base: VertexId| {
            (0..6).flat_map(move |i| (i + 1..6).map(move |j| (base + i, base + j)))
        };
        let g = Graph::from_edges(k6(0).chain(k6(6)).collect::<Vec<_>>());
        let mut r = resident_of(&g, 1);
        r.corrupt(|store| assert!(store.remove_vertex(2)));
        let job = Recorder::new(&r, HandOver::PerChunk, 6);
        let pool = Pool::new(1, SchedulerKind::Static, None);
        pool.admit(0, &job, 1, homeless(job.chunks())).unwrap();
        pool.close();
        lane_loop(&pool, &r, lane(0));
        let lane_done = Event::LaneDone {
            machine: 0,
            executed: 0,
        };
        // Built here, with everything in hand: which vertex on which
        // shard, under which task, on which machine.
        let failure = Failure {
            cause: Cause::Fetch(crate::FetchError::Missing {
                vertex: 2,
                shard: 0,
            }),
            task: Some(SearchTask::whole(0)),
            machine: 0,
            attempt: 1,
        };
        assert_eq!(
            job.events(),
            vec![
                Event::Failed(0, failure),
                // The parked error and its executor end with the chunk …
                lane_done.clone(),
                // … so the second clique's chunk runs on a clean source.
                Event::Done { chunk: 1, rows: 20 },
                lane_done,
            ]
        );
    }
}
