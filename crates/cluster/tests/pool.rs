//! The lane pool with lanes racing on real threads.
//!
//! `pool.rs`' own tests drive the queue by hand, one grant at a time;
//! here `lane_loop` runs on several threads per machine against a job
//! that only counts, so the exactly-once and crash guarantees are
//! checked under whatever interleaving the host produces.

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
use std::sync::{Arc, Mutex};

const MACHINES: usize = 3;
const LANES_PER_MACHINE: usize = 2;
const CHUNK_TASKS: usize = 4;

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
            profile: false,
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
    Resident::load(&g, MACHINES, MACHINES, &DataPath::default(), 2, None)
}

/// Runs `job` to the end on `MACHINES × LANES_PER_MACHINE` racing lanes,
/// chunk `c` homed on machine `c % MACHINES` when `homed`.
fn race(
    resident: &Resident,
    job: &Counter,
    kind: SchedulerKind,
    homed: bool,
    crashes: Option<FaultPlan>,
) {
    let pool = Pool::new(MACHINES, kind, crashes.map(Arc::new));
    let chunks = (0..job.chunks()).map(|c| (c, homed.then_some(c % MACHINES)));
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

#[test]
fn every_chunk_is_granted_exactly_once_with_lanes_racing() {
    let resident = resident();
    for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
        for (hand_over, homed) in [(HandOver::AtEnd, true), (HandOver::PerChunk, false)] {
            let job = Counter::new(&resident, hand_over);
            race(&resident, &job, kind, homed, None);
            let seen = job.seen.into_inner().unwrap();
            let mut started: Vec<usize> = seen.started.iter().map(|s| s.1).collect();
            started.sort_unstable();
            let all: Vec<usize> = (0..job.tasks.len().div_ceil(CHUNK_TASKS)).collect();
            assert_eq!(
                started, all,
                "{kind}/{hand_over:?}: a chunk ran twice or never"
            );
            for &(machine, chunk, stolen) in &seen.started {
                if homed && kind == SchedulerKind::Static {
                    assert_eq!(machine, chunk % MACHINES, "static crossed homes");
                }
                assert_eq!(stolen, homed && machine != chunk % MACHINES);
            }
            match hand_over {
                HandOver::AtEnd => {
                    assert_eq!(seen.executed.iter().sum::<usize>(), job.tasks.len());
                    assert!(seen.done.is_empty());
                }
                HandOver::PerChunk => {
                    let mut done = seen.done;
                    done.sort_unstable();
                    assert_eq!(done, all);
                }
            }
        }
    }
}

#[test]
fn a_crash_mid_job_reruns_exactly_what_was_not_handed_over() {
    let resident = resident();
    let all: Vec<usize> = (0..300usize.div_ceil(CHUNK_TASKS)).collect();
    for kind in [SchedulerKind::Static, SchedulerKind::WorkStealing] {
        // AtEnd: everything machine 1 ran dies with it; what the
        // survivors hand over at the end covers every task once.
        let job = Counter::new(&resident, HandOver::AtEnd);
        let plan = FaultPlan::builder(0).crash(1, 10).build();
        race(&resident, &job, kind, true, Some(plan));
        let seen = job.seen.into_inner().unwrap();
        assert_eq!(
            seen.executed.iter().sum::<usize>(),
            job.tasks.len(),
            "{kind}"
        );
        // Under work stealing thieves may empty machine 1 before it
        // reaches its boundary; if it died, it died once, and each chunk
        // went back at most once.
        assert!(seen.handed_back.len() <= 1, "{kind}");
        if kind == SchedulerKind::Static {
            assert_eq!(seen.handed_back.len(), 1);
        }
        for (machine, chunks) in &seen.handed_back {
            assert_eq!(*machine, 1);
            let mut back = chunks.clone();
            back.sort_unstable();
            back.dedup();
            assert_eq!(back.len(), chunks.len(), "{kind}: a chunk went back twice");
            // Everything machine 1 started is among them.
            for &(m, chunk, _) in &seen.started {
                assert!(
                    m != 1 || back.contains(&chunk),
                    "{kind}: chunk {chunk} stranded"
                );
            }
        }
        let mut survived: Vec<usize> = seen
            .started
            .iter()
            .filter(|s| s.0 != 1)
            .map(|s| s.1)
            .collect();
        survived.sort_unstable();
        assert_eq!(survived, all, "{kind}: survivors must run every chunk once");

        // PerChunk: what machine 1 had already delivered stays
        // delivered; what it held or had queued at its home goes back.
        // Either mistake shows as a chunk delivered twice or never.
        let job = Counter::new(&resident, HandOver::PerChunk);
        let plan = FaultPlan::builder(0).crash(1, 10).build();
        race(&resident, &job, kind, true, Some(plan));
        let seen = job.seen.into_inner().unwrap();
        let mut done = seen.done;
        done.sort_unstable();
        assert_eq!(done, all, "{kind}: a chunk was delivered twice or never");
        if kind == SchedulerKind::Static {
            assert_eq!(seen.handed_back.len(), 1);
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
