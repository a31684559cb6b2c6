//! Every interleaving of the pool's transitions, up to a bound.
//!
//! [`State`] is the pool's whole concurrency logic: a lane or a front
//! takes one step by taking the lock, making one transition and letting
//! go. So the pool is checked by checking `State` as a transition system.
//! This explorer drives it the way [`lane_loop`](super::lane_loop) and
//! the two fronts do — a lane asks (and is granted a chunk, parks or
//! leaves), finishes its chunk keeping it or handing it over, or unwinds;
//! a machine dies at its crash boundary or when a lane of it unwinds; the
//! service admits, drains and closes — in every order, breadth first,
//! memoising visited states, and checks after every transition that
//!
//! * each admitted chunk is in exactly one place: queued once, held by
//!   one live machine, handed over, lost, or released by a drain — so a
//!   chunk is handed over at most once, never both handed over and
//!   handed back, and a dead machine holds nothing;
//! * a crash hands back (or, with no survivor, loses) exactly what the
//!   machine held and what was queued at its home (or anywhere);
//! * `running` counts the chunks lanes of live machines are running, and
//!   those are exactly what the machines hold undone;
//! * once [`State::finished`] holds it holds for good, and no machine is
//!   granted anything;
//! * **the wake-up rule:** a transition after which a parked lane could
//!   be granted a chunk, or would have to leave, says `wake` — so a lane
//!   blocks on the condvar with no timeout and misses nothing;
//!
//! and, in every state where nothing can move any more, that no lane is
//! still parked (a hang), nothing is queued or running, and a chunk lost
//! under `NoSurvivor` was lost with the last machine.
//!
//! A transition and its wake-up are one step here, while the pool wakes
//! lanes after letting go of the lock. That loses nothing: a lane that
//! parks in between saw the transition's effect before it parked, and a
//! lane parked before it is still parked when the notification comes.
//!
//! The bound is the fronts' own use of the pool, at most 3 machines and
//! 4 chunks a job: a batch run admits one job of homed chunks before any
//! lane runs and closes, and runs two lanes a machine (two grants
//! outstanding at most); the service runs one lane a machine and admits
//! two jobs of homeless chunks at any time, and may drain either or close
//! at any time. Each runs under both [`SchedulerKind`]s and both
//! [`HandOver`]s, crash-free, with machines 0 and 1 crashing at their
//! second and first boundary, and with any lane unwinding at any time.

use super::{After, Entry, Grant, HandOver, SchedulerKind, State};
use crate::failure::Cause;
use benu_fault::FaultPlan;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Chunks per job.
const CHUNKS: usize = 4;
/// Jobs the service admits.
const JOBS: usize = 2;

/// Where a lane is, as far as the pool can tell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Phase {
    /// About to take the lock and ask for a grant: at the start, after a
    /// chunk, or woken.
    Asking,
    /// Waiting on the condvar.
    Parked,
    /// Running `chunk` of job `job`.
    Running { job: u8, chunk: u8 },
    /// Out of the loop.
    Gone,
}

/// What became of one chunk outside the queue and the machines.
#[derive(Clone, Copy, Debug, Default, Hash)]
struct Fate {
    handed_over: u8,
    lost: u8,
    drained: u8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Front {
    Batch,
    Service,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Crashes {
    None,
    /// Machines 0 and 1 die at their second and first chunk boundary.
    AtBoundaries,
    /// Any lane that is not parked may unwind, killing its machine.
    ByUnwinding,
}

#[derive(Clone, Copy, Debug)]
struct Bound {
    front: Front,
    machines: usize,
    kind: SchedulerKind,
    hand_over: HandOver,
    crashes: Crashes,
}

/// One step of one actor.
#[derive(Clone, Copy, Debug)]
enum Step {
    Ask {
        machine: usize,
    },
    Finish {
        machine: usize,
        job: u8,
        chunk: u8,
        keep: bool,
    },
    Unwind {
        machine: usize,
        phase: Phase,
    },
    Admit {
        job: u8,
    },
    Drain {
        job: u8,
    },
    Close,
}

#[derive(Clone)]
struct Node {
    state: State<u8>,
    /// Per machine, its lanes' phases, sorted: lanes of one machine are
    /// interchangeable.
    lanes: Vec<[Phase; 2]>,
    admitted: u8,
    fates: [[Fate; CHUNKS]; JOBS],
}

impl Node {
    fn initial(bound: &Bound) -> Node {
        let machines = bound.machines;
        let crash_plan = (bound.crashes == Crashes::AtBoundaries)
            .then(|| FaultPlan::builder(0).crash(0, 2).crash(1, 1).build());
        let lanes = match bound.front {
            Front::Batch => [Phase::Asking; 2],
            Front::Service => [Phase::Asking, Phase::Gone],
        };
        let state = State::new(machines, bound.kind, crash_plan.as_ref());
        let mut node = Node {
            state,
            lanes: vec![lanes; machines],
            admitted: 0,
            fates: [[Fate::default(); CHUNKS]; JOBS],
        };
        if bound.front == Front::Batch {
            let homed = (0..CHUNKS).map(|c| (c, Some(c % bound.machines)));
            let (admitted, _) = node.state.admit(0, 0, 1, homed);
            admitted.expect("every machine alive");
            let _ = node.state.close();
            node.admitted = 1;
        }
        node
    }

    /// Tells states apart: every field of the pool's state (destructured,
    /// so that a new one cannot be missed) and of the lanes and fates.
    fn fingerprint(&self) -> u64 {
        let State {
            kind: _,
            entries,
            cursor,
            dead,
            last_dead,
            until_crash,
            held,
            running,
            closed,
        } = &self.state;
        let mut h = Fx(0);
        for word in [
            *cursor,
            *last_dead,
            *running,
            usize::from(*closed),
            entries.len(),
        ] {
            h.write_usize(word);
        }
        for (&dead, left) in dead.iter().zip(until_crash) {
            h.write_u64(u64::from(dead) << 32 | left.map_or(u64::from(u32::MAX), |left| left));
        }
        // `job` is the id and `weight` is 1 throughout.
        for Entry {
            id,
            job: _,
            weight: _,
            credit,
            queues,
        } in entries
        {
            h.write_u64(id << 32 | u64::from(*credit));
            for queue in queues {
                h.write_usize(queue.len());
                queue.iter().for_each(|&chunk| h.write_usize(chunk));
            }
        }
        for held in held {
            h.write_usize(held.len());
            // `stolen` follows from `slot`.
            for Grant {
                id,
                job: _,
                weight: _,
                chunk,
                slot,
                stolen: _,
                done,
            } in held
            {
                h.write_u64(
                    id << 48 | (*chunk as u64) << 32 | (*slot as u64) << 1 | u64::from(*done),
                );
            }
        }
        self.lanes.hash(&mut h);
        h.write_u64(u64::from(self.admitted));
        self.fates.hash(&mut h);
        h.finish()
    }

    /// Every step some actor can take.
    fn steps(&self, bound: &Bound, steps: &mut Vec<Step>) {
        steps.clear();
        let unwinds = bound.crashes == Crashes::ByUnwinding;
        for (machine, lanes) in self.lanes.iter().enumerate() {
            for (i, &phase) in lanes.iter().enumerate() {
                if i > 0 && lanes[i - 1] == phase {
                    continue;
                }
                match phase {
                    Phase::Asking => steps.push(Step::Ask { machine }),
                    Phase::Running { job, chunk } => {
                        steps.push(Step::Finish {
                            machine,
                            job,
                            chunk,
                            keep: false,
                        });
                        if bound.hand_over == HandOver::AtEnd {
                            steps.push(Step::Finish {
                                machine,
                                job,
                                chunk,
                                keep: true,
                            });
                        }
                    }
                    Phase::Parked | Phase::Gone => continue,
                }
                // Once the machine is dead or the pool finished, unwinding
                // is leaving.
                if unwinds && !self.state.dead[machine] && !self.state.finished() {
                    steps.push(Step::Unwind { machine, phase });
                }
            }
        }
        if bound.front == Front::Service {
            let st = &self.state;
            if usize::from(self.admitted) < JOBS && !st.closed {
                steps.push(Step::Admit { job: self.admitted });
            }
            for job in 0..self.admitted {
                if st.entries.iter().any(|e| e.job == job) {
                    steps.push(Step::Drain { job });
                }
            }
            if !st.closed {
                steps.push(Step::Close);
            }
        }
    }

    fn set_lane(&mut self, machine: usize, from: Phase, to: Phase) {
        let lanes = &mut self.lanes[machine];
        let at = lanes
            .iter()
            .position(|&p| p == from)
            .expect("a lane in that phase");
        lanes[at] = to;
        lanes.sort_unstable();
    }

    fn fate(&mut self, job: u8, chunk: usize) -> &mut Fate {
        &mut self.fates[usize::from(job)][chunk]
    }

    /// Takes `step`, checking what its transition returned.
    fn step(&mut self, step: Step) -> Result<(), String> {
        let was_finished = self.state.finished();
        let mut may_die = None;
        let after = match step {
            Step::Ask { machine } => {
                let homeless = self.state.dead.len();
                let kind = self.state.kind;
                let to = match self.state.grant(machine) {
                    // A grant comes off the lane's own deque or the
                    // homeless one, or — stealing — another's, which is
                    // what `stolen` says.
                    Some(g)
                        if g.stolen != (g.slot != machine && g.slot != homeless)
                            || (g.stolen && kind == SchedulerKind::Static) =>
                    {
                        let (job, chunk, slot, stolen) = (g.job, g.chunk, g.slot, g.stolen);
                        return Err(format!(
                            "machine {machine} granted job {job} chunk {chunk} off deque {slot}, stolen: {stolen}"
                        ));
                    }
                    Some(g) => Phase::Running {
                        job: g.job,
                        chunk: g.chunk as u8,
                    },
                    None if self.parks(machine) => Phase::Parked,
                    None => Phase::Gone,
                };
                self.set_lane(machine, Phase::Asking, to);
                After::wake(false)
            }
            Step::Finish {
                machine,
                job,
                chunk,
                keep,
            } => {
                // Only a machine with a crash boundary can die finishing.
                if self.state.until_crash[machine].is_some() {
                    may_die = Some((machine, self.owed_by(machine)));
                }
                let chunk = usize::from(chunk);
                // `finish` reads the grant's id and chunk.
                let grant = Grant {
                    id: u64::from(job),
                    job,
                    weight: 1,
                    chunk,
                    slot: 0,
                    stolen: false,
                    done: false,
                };
                let after = self.state.finish(machine, &grant, 1, keep);
                if !self.state.dead[machine] && !keep {
                    self.fate(job, chunk).handed_over += 1;
                }
                let running = Phase::Running {
                    job,
                    chunk: chunk as u8,
                };
                self.set_lane(machine, running, Phase::Asking);
                after
            }
            Step::Unwind { machine, phase } => {
                may_die = Some((machine, self.owed_by(machine)));
                self.set_lane(machine, phase, Phase::Gone);
                self.state.crash(machine)
            }
            Step::Admit { job } => {
                self.admitted += 1;
                let homeless = (0..CHUNKS).map(|c| (c, None));
                match self.state.admit(u64::from(job), job, 1, homeless) {
                    (Ok(()), after) => after,
                    (Err(failure), _) => {
                        if failure.cause
                            != (Cause::NoSurvivor {
                                outstanding: CHUNKS,
                            })
                        {
                            return Err(format!("admission refused with {failure}"));
                        }
                        for chunk in 0..CHUNKS {
                            self.fate(job, chunk).lost += 1;
                        }
                        After::wake(false)
                    }
                }
            }
            Step::Drain { job } => {
                let queued: Vec<usize> = self
                    .state
                    .entries
                    .iter()
                    .filter(|e| e.job == job)
                    .flat_map(|e| e.queues.iter().flatten().copied())
                    .collect();
                let (released, after) = self.state.drain(u64::from(job));
                if released != queued.len() {
                    return Err(format!("drain released {released} of {queued:?}"));
                }
                for chunk in queued {
                    self.fate(job, chunk).drained += 1;
                }
                after
            }
            Step::Close => self.state.close(),
        };
        let wake = !matches!(after, After::Rest);
        if let After::Crash(died, survivors, jobs) = after {
            let Some((machine, mut owed)) = may_die else {
                return Err("a machine died in a step that cannot kill".into());
            };
            let mut back: Vec<(u8, usize)> = jobs
                .iter()
                .flat_map(|(_, job, chunks)| chunks.iter().map(|&c| (*job, c)))
                .collect();
            back.sort_unstable();
            owed.sort_unstable();
            if died != machine || back != owed {
                return Err(format!(
                    "machine {died} gave back {back:?}; machine {machine} owed {owed:?}"
                ));
            }
            if survivors != self.state.dead.contains(&false) {
                return Err("a crash misreported whether anyone survives".into());
            }
            if !survivors {
                for (job, chunk) in back {
                    self.fate(job, chunk).lost += 1;
                }
            }
        }
        if wake {
            for lanes in &mut self.lanes {
                for phase in lanes.iter_mut().filter(|p| **p == Phase::Parked) {
                    *phase = Phase::Asking;
                }
                lanes.sort_unstable();
            }
        } else if let Some(machine) = (0..self.lanes.len()).find(|&m| {
            self.lanes[m].contains(&Phase::Parked) && (!self.parks(m) || self.grantable(m))
        }) {
            return Err(format!(
                "missed wake-up: a parked lane of machine {machine} could go on"
            ));
        }
        if was_finished && !self.state.finished() {
            return Err("the pool stopped being finished".into());
        }
        Ok(())
    }

    /// What `machine`'s crash must hand back: what it holds and what is
    /// queued at its home — or, if it is the last live machine,
    /// anywhere. Nothing once it is dead or the pool finished.
    fn owed_by(&self, machine: usize) -> Vec<(u8, usize)> {
        let st = &self.state;
        if st.dead[machine] || st.finished() {
            return Vec::new();
        }
        let last = st.dead.iter().filter(|&&dead| !dead).count() == 1;
        let mut owed: Vec<(u8, usize)> =
            st.held[machine].iter().map(|h| (h.job, h.chunk)).collect();
        for entry in &st.entries {
            for (slot, queue) in entry.queues.iter().enumerate() {
                if slot == machine || last {
                    owed.extend(queue.iter().map(|&c| (entry.job, c)));
                }
            }
        }
        owed
    }

    /// Whether a lane of `machine` that was granted nothing waits (rather
    /// than leaves), as `Pool::next` decides.
    fn parks(&self, machine: usize) -> bool {
        !self.state.dead[machine] && !self.state.finished()
    }

    /// Whether a lane of `machine` asking now would be granted a chunk:
    /// one at its home or without a home, or — stealing — at any home.
    fn grantable(&self, machine: usize) -> bool {
        let st = &self.state;
        let steals = st.kind == SchedulerKind::WorkStealing;
        let homeless = st.dead.len();
        !st.dead[machine]
            && st.entries.iter().any(|e| {
                let mut queued = e.queues.iter().enumerate().filter(|(_, q)| !q.is_empty());
                queued.any(|(slot, _)| slot == machine || slot == homeless || steals)
            })
    }

    /// The invariants of every reachable state.
    fn check(&self) -> Result<(), String> {
        let st = &self.state;
        let mut places = [[0usize; CHUNKS]; JOBS];
        for entry in &st.entries {
            for &chunk in entry.queues.iter().flatten() {
                places[usize::from(entry.job)][chunk] += 1;
            }
        }
        for h in st.held.iter().flatten() {
            places[usize::from(h.job)][h.chunk] += 1;
        }
        for (job, fates) in self.fates.iter().enumerate() {
            let admitted = job < usize::from(self.admitted);
            for (chunk, fate) in fates.iter().enumerate() {
                let n =
                    places[job][chunk] + usize::from(fate.handed_over + fate.lost + fate.drained);
                if n != usize::from(admitted) {
                    return Err(format!(
                        "job {job} chunk {chunk} is in {n} places ({fate:?})"
                    ));
                }
            }
        }
        if st.entries.iter().any(|e| e.len() == 0) || st.cursor > st.entries.len() {
            return Err("an empty entry, or the cursor out of range".into());
        }
        let mut running = 0;
        for (machine, lanes) in self.lanes.iter().enumerate() {
            let held = &st.held[machine];
            if st.dead[machine] {
                if !held.is_empty() {
                    return Err(format!("dead machine {machine} holds chunks"));
                }
                continue;
            }
            let mut ran = 0;
            for phase in lanes {
                if let Phase::Running { job, chunk } = *phase {
                    let chunk = usize::from(chunk);
                    if !held
                        .iter()
                        .any(|h| !h.done && h.job == job && h.chunk == chunk)
                    {
                        return Err(format!(
                            "machine {machine} runs job {job} chunk {chunk} without holding it"
                        ));
                    }
                    ran += 1;
                }
            }
            if held.iter().filter(|h| !h.done).count() != ran {
                return Err(format!("machine {machine} holds more undone than it runs"));
            }
            running += ran;
        }
        if st.running != running {
            return Err(format!(
                "running = {}, lanes of live machines run {running}",
                st.running
            ));
        }
        if st.finished() && (0..st.dead.len()).any(|m| self.grantable(m)) {
            return Err("granted after finishing".into());
        }
        Ok(())
    }

    /// A state where nothing can move any more.
    fn check_end(&self) -> Result<(), String> {
        let st = &self.state;
        if let Some(machine) = self.lanes.iter().position(|l| l.contains(&Phase::Parked)) {
            return Err(format!(
                "hang: a lane of machine {machine} is parked for good"
            ));
        }
        if !st.finished() || !st.entries.is_empty() {
            return Err("every lane left an unfinished pool".into());
        }
        let lost = self.fates.iter().flatten().any(|fate| fate.lost > 0);
        if lost && st.dead.contains(&false) {
            return Err("a chunk was lost with a machine alive".into());
        }
        Ok(())
    }
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
    let start = Node::initial(&bound);
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
            if let Err(violation) = node.check_end() {
                fail(&bound, &trail, at, None, &violation);
            }
        }
        for &step in &steps {
            let mut next = node.clone();
            // A state seen before was checked when it was first reached.
            let checked = next
                .step(step)
                .and_then(|()| match seen.insert(next.fingerprint()) {
                    true => next.check().map(|()| true),
                    false => Ok(false),
                });
            match checked {
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

/// Explores every bound of `front` under `kind` on 1 to 3 machines.
fn explore_front(front: Front, kind: SchedulerKind, hand_overs: &[HandOver]) {
    let started = Instant::now();
    let (mut states, mut transitions) = (0, 0);
    for machines in 1..=3 {
        for &hand_over in hand_overs {
            for crashes in [Crashes::None, Crashes::AtBoundaries, Crashes::ByUnwinding] {
                let (s, t) = explore(Bound {
                    front,
                    machines,
                    kind,
                    hand_over,
                    crashes,
                });
                states += s;
                transitions += t;
            }
        }
    }
    eprintln!(
        "pool explorer, {front:?} under {kind}: {states} states, {transitions} transitions, {:.1?}",
        started.elapsed()
    );
}

const HAND_OVERS: [HandOver; 2] = [HandOver::PerChunk, HandOver::AtEnd];

#[test]
fn a_static_batch_run_keeps_the_invariants_in_every_interleaving() {
    explore_front(Front::Batch, SchedulerKind::Static, &HAND_OVERS);
}

#[test]
fn a_work_stealing_batch_run_keeps_the_invariants_in_every_interleaving() {
    explore_front(Front::Batch, SchedulerKind::WorkStealing, &HAND_OVERS);
}

/// The service's pool grants homeless chunks only, so the scheduler kind
/// it is built with (`Static`) never applies, and it hands over per chunk.
#[test]
fn the_service_keeps_the_invariants_in_every_interleaving() {
    explore_front(Front::Service, SchedulerKind::Static, &[HandOver::PerChunk]);
}
