//! The lane pool with lanes racing on real threads.
//!
//! Every interleaving of the pool's transitions is checked by
//! `pool::explore` on the bare state machine, up to a bound; here
//! `lane_loop` runs on several threads per machine against a job that
//! only counts — a smoke test that the lanes drive that state machine as
//! it was checked.

use benu_cluster::gate::FaultGate;
use benu_cluster::pool::{
    lane_loop, HandOver, Job, Lane, LanePart, Outcome, Pool, SchedulerKind, Spec,
};
use benu_cluster::transport::Transport;
use benu_cluster::{Cluster, ClusterConfig, DataPath, FaultPlan, Resident};
use benu_engine::{CompiledPlan, MatchSet, SearchTask};
use benu_graph::{gen, VertexId};
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use std::sync::Mutex;

const MACHINES: usize = 3;
const LANES_PER_MACHINE: usize = 2;
const CHUNK_TASKS: usize = 4;
const CRASH_AFTER: u64 = 10;

/// What the lanes told a [`Counter`].
#[derive(Default)]
struct Seen {
    /// `(machine, chunk, stolen)` of every chunk a lane started.
    started: Vec<(usize, usize, bool)>,
    /// Chunks delivered per chunk ([`HandOver::PerChunk`]).
    done: Vec<usize>,
    /// Tasks in the parts of every visit, per machine.
    executed: Vec<usize>,
    dead: Vec<bool>,
    /// `(machine, chunks)` of every hand-back.
    handed_back: Vec<(usize, Vec<usize>)>,
}

/// A triangle count over one task per vertex that records who ran what.
struct Counter {
    compiled: CompiledPlan,
    tasks: Vec<SearchTask>,
    transport: Transport,
    hand_over: HandOver,
    seen: Mutex<Seen>,
}

impl Counter {
    fn new(resident: &Resident, hand_over: HandOver) -> Self {
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        Counter {
            compiled: CompiledPlan::compile(&plan),
            tasks: (0..resident.degrees().len())
                .map(|v| SearchTask::whole(v as VertexId))
                .collect(),
            transport: resident.transport(),
            hand_over,
            seen: Mutex::new(Seen {
                executed: vec![0; MACHINES],
                dead: vec![false; MACHINES],
                ..Seen::default()
            }),
        }
    }

    fn chunks(&self) -> usize {
        self.tasks.len().div_ceil(CHUNK_TASKS)
    }

    fn tasks_of(&self, chunk: usize) -> &[SearchTask] {
        let start = chunk * CHUNK_TASKS;
        &self.tasks[start..self.tasks.len().min(start + CHUNK_TASKS)]
    }
}

impl Job for &Counter {
    fn spec(&self) -> Spec<'_> {
        Spec {
            plan: &self.compiled,
            collect: false,
            hand_over: self.hand_over,
        }
    }

    fn start(&self, machine: usize, chunk: usize, stolen: bool) -> &[SearchTask] {
        let mut seen = self.seen.lock().unwrap();
        seen.started.push((machine, chunk, stolen));
        self.tasks_of(chunk)
    }

    fn reads(&self, _machine: usize) -> (&Transport, Option<&FaultGate>) {
        (&self.transport, None)
    }

    fn stopped(&self) -> bool {
        false
    }

    fn chunk_done(&self, _machine: usize, chunk: usize, outcome: Outcome) {
        assert!(matches!(outcome, Outcome::Done { .. }), "{outcome:?}");
        self.seen.lock().unwrap().done.push(chunk);
    }

    fn lane_done(&self, machine: usize, part: LanePart, _rows: Option<MatchSet>) {
        let mut seen = self.seen.lock().unwrap();
        if !seen.dead[machine] {
            seen.executed[machine] += part.executed;
        }
    }

    fn handed_back(&self, machine: usize, chunks: &[usize]) {
        let mut seen = self.seen.lock().unwrap();
        // What the dead machine ran is void, including what a lane of
        // it has yet to report.
        seen.dead[machine] = true;
        seen.executed[machine] = 0;
        seen.handed_back.push((machine, chunks.to_vec()));
    }

    fn lost(&self, chunks: &[usize], failure: benu_cluster::Failure) {
        panic!("{failure}: {chunks:?}");
    }
}

fn resident() -> Resident {
    let g = gen::barabasi_albert(300, 4, 17);
    Resident::load(&g, MACHINES, MACHINES, &DataPath::default(), 2)
}

/// Runs `job` to the end on `MACHINES × LANES_PER_MACHINE` racing lanes,
/// chunk `c` homed on machine `c % MACHINES`, machine 1 crashing at its
/// boundary after `CRASH_AFTER` tasks.
fn race(resident: &Resident, job: &Counter, kind: SchedulerKind) {
    let crash = FaultPlan::builder(0).crash(1, CRASH_AFTER).build();
    let pool = Pool::new(MACHINES, kind, Some(&crash));
    let chunks = (0..job.chunks()).map(|c| (c, Some(c % MACHINES)));
    pool.admit(0, job, 1, chunks).unwrap();
    pool.close();
    std::thread::scope(|scope| {
        for i in 0..MACHINES * LANES_PER_MACHINE {
            let lane = Lane {
                machine: i / LANES_PER_MACHINE,
                triangle_cache_entries: 64,
                sharers: LANES_PER_MACHINE,
            };
            let pool = &pool;
            scope.spawn(move || lane_loop(pool, resident, lane));
        }
    });
}

/// The smoke test of what `pool::explore` checks exhaustively on the
/// bare state machine: with real lanes racing and one machine crashing,
/// every chunk is delivered exactly once.
#[test]
fn racing_lanes_deliver_every_chunk_exactly_once_through_a_crash() {
    let resident = resident();
    for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
        for hand_over in [HandOver::AtEnd, HandOver::PerChunk] {
            let job = Counter::new(&resident, hand_over);
            race(&resident, &job, kind);
            let all: Vec<usize> = (0..job.chunks()).collect();
            let seen = job.seen.into_inner().unwrap();
            let ctx = format!("{kind}/{hand_over:?}");
            match hand_over {
                // What the dead machine ran is void; what the survivors
                // hand over at the end covers every task once.
                HandOver::AtEnd => {
                    assert_eq!(
                        seen.executed.iter().sum::<usize>(),
                        job.tasks.len(),
                        "{ctx}"
                    );
                    let mut survived: Vec<usize> = seen
                        .started
                        .iter()
                        .filter(|s| !seen.dead[s.0])
                        .map(|s| s.1)
                        .collect();
                    survived.sort_unstable();
                    assert_eq!(survived, all, "{ctx}: survivors ran a chunk twice or never");
                }
                // What machine 1 delivered stays delivered; what it held
                // or had queued went back.
                HandOver::PerChunk => {
                    let mut done = seen.done;
                    done.sort_unstable();
                    assert_eq!(done, all, "{ctx}: a chunk was delivered twice or never");
                }
            }
            // Under work stealing thieves may empty machine 1 before it
            // reaches its boundary; if it died, it died once.
            assert!(seen.handed_back.len() <= 1, "{ctx}");
            if kind == SchedulerKind::Static {
                assert_eq!(seen.handed_back.len(), 1, "{ctx}");
            }
            for (machine, chunks) in &seen.handed_back {
                let mut back = chunks.clone();
                back.sort_unstable();
                back.dedup();
                assert_eq!((*machine, back.len()), (1, chunks.len()), "{ctx}");
            }
        }
    }
}

#[test]
fn two_threads_running_one_cluster_both_get_the_exact_count() {
    let g = gen::barabasi_albert(300, 5, 3);
    let plan = PlanBuilder::new(&queries::q4()).best_plan();
    let expected = benu_engine::count_embeddings(&plan, &g);
    let cluster = Cluster::new(
        &g,
        ClusterConfig::builder()
            .workers(2)
            .threads_per_worker(2)
            .tau(16)
            .build(),
    );
    let cluster = &cluster;
    let plan = &plan;
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| scope.spawn(move || cluster.run(plan).unwrap().total_matches))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(counts, vec![expected, expected]);
}
