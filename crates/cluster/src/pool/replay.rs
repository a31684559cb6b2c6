//! The pool in virtual time.
//!
//! [`replay`] drives the pool's own state machine the way a batch run's
//! lanes do — the job admitted and the pool closed, then each lane asks
//! for a grant, runs it, finishes it keeping it ([`HandOver::AtEnd`]) and
//! asks again, and a parked lane asks again when a transition wakes it —
//! with a clock instead of threads: a granted chunk finishes at its grant
//! time plus its vticks. A makespan under either [`SchedulerKind`], at
//! any machine count and with a planned crash, is then a pure function of
//! the chunk layout and the per-task costs, on any host. Lanes that ask
//! at the same instant ask in lane order.
//!
//! [`HandOver::AtEnd`]: super::HandOver::AtEnd

use super::{After, SchedulerKind, State};
use crate::balance;
use benu_fault::FaultPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One chunk of a batch run's layout, as the replay runs it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayChunk {
    /// The machine it is homed on.
    pub home: usize,
    /// Its tasks, counted toward its machine's crash boundary.
    pub tasks: usize,
    /// Its tasks' summed vticks: how long a lane takes to run it.
    pub vticks: u64,
}

/// What one replay measured. Times are in vticks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// When the last lane finished its last chunk.
    pub makespan: u64,
    /// Tasks in chunks granted off another machine's deque.
    pub steals: u64,
    /// The busiest machine's work over the mean machine's (1.0 =
    /// balanced), as `RunOutcome::work_imbalance` has it.
    pub imbalance: f64,
    /// Tasks in chunks a crash handed back to the survivors, as
    /// `RecoveryReport::tasks_requeued` counts them.
    pub handed_back: u64,
    /// Per machine, the vticks of the chunks it ran and kept; zero for a
    /// machine that died, whose work is void.
    pub work: Vec<u64>,
    /// Per machine, the tasks of those chunks.
    pub executed: Vec<usize>,
}

/// Replays a batch run of `chunks` on `machines` machines of `lanes`
/// lanes each, granting homed chunks by `kind` and crashing machines as
/// `crash_plan` schedules.
pub fn replay(
    chunks: &[ReplayChunk],
    machines: usize,
    lanes: usize,
    kind: SchedulerKind,
    crash_plan: Option<&FaultPlan>,
) -> Replay {
    let mut state = State::new(machines, kind, crash_plan);
    let homes = (0..chunks.len()).map(|c| (c, Some(chunks[c].home)));
    let (admitted, _) = state.admit(0, (), 1, homes);
    admitted.expect("a new pool has every machine alive");
    let _ = state.close();

    let mut out = Replay {
        work: vec![0; machines],
        executed: vec![0; machines],
        ..Replay::default()
    };
    let mut granted = vec![None; machines * lanes];
    // Lanes that finish at the same instant finish in lane order.
    let mut running = BinaryHeap::new();
    let mut parked = Vec::new();
    let mut asking: Vec<usize> = (0..machines * lanes).collect();
    loop {
        for lane in asking.drain(..) {
            let machine = lane / lanes;
            match state.grant(machine) {
                Some(grant) => {
                    if grant.stolen {
                        out.steals += chunks[grant.chunk].tasks as u64;
                    }
                    running.push(Reverse((out.makespan + chunks[grant.chunk].vticks, lane)));
                    granted[lane] = Some(grant);
                }
                None if state.dead[machine] || state.finished() => {}
                None => parked.push(lane),
            }
        }
        let Some(Reverse((at, lane))) = running.pop() else {
            break;
        };
        out.makespan = at;
        let machine = lane / lanes;
        let grant = granted[lane].take().expect("a running lane holds a grant");
        let chunk = chunks[grant.chunk];
        let after = state.finish(machine, &grant, chunk.tasks, true);
        if let After::Crash(dead, survivors, jobs) = &after {
            out.work[*dead] = 0;
            out.executed[*dead] = 0;
            if *survivors {
                let back = jobs.iter().flat_map(|(_, _, back)| back);
                out.handed_back += back.map(|&c| chunks[c].tasks as u64).sum::<u64>();
            }
        }
        // A lane whose machine is dead leaves: what it ran is void.
        if !state.dead[machine] {
            out.work[machine] += chunk.vticks;
            out.executed[machine] += chunk.tasks;
            asking.push(lane);
        }
        if !matches!(after, After::Rest) {
            parked.sort_unstable();
            asking.append(&mut parked);
        }
    }
    out.imbalance = balance::imbalance(&out.work);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-task chunks of the given (home, vticks).
    fn homed(costs: &[(usize, u64)]) -> Vec<ReplayChunk> {
        costs
            .iter()
            .map(|&(home, vticks)| ReplayChunk {
                home,
                tasks: 1,
                vticks,
            })
            .collect()
    }

    #[test]
    fn static_runs_each_home_on_its_own_lanes() {
        let chunks = homed(&[(0, 5), (1, 1), (0, 5), (1, 1)]);
        let r = replay(&chunks, 2, 1, SchedulerKind::Static, None);
        assert_eq!(r.makespan, 10);
        assert_eq!((r.work, r.executed), (vec![10, 2], vec![2, 2]));
        assert_eq!(r.steals, 0);
        assert!((r.imbalance - 10.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn stealing_takes_the_back_of_a_busy_deque() {
        let chunks = homed(&[(0, 5), (1, 1), (0, 5), (1, 1)]);
        let r = replay(&chunks, 2, 1, SchedulerKind::WorkStealing, None);
        // Machine 1 runs its two, then steals machine 0's second at t = 2.
        assert_eq!(r.makespan, 7);
        assert_eq!((r.work, r.steals), (vec![5, 7], 1));
    }

    #[test]
    fn two_lanes_of_one_machine_share_its_deque() {
        let chunks = homed(&[(0, 4), (0, 4), (0, 4), (0, 4)]);
        assert_eq!(
            replay(&chunks, 1, 2, SchedulerKind::Static, None).makespan,
            8
        );
        assert_eq!(
            replay(&chunks, 1, 4, SchedulerKind::Static, None).makespan,
            4
        );
    }

    #[test]
    fn a_crash_hands_the_machines_chunks_to_the_survivor() {
        let chunks: Vec<ReplayChunk> = homed(&[(0, 3), (1, 3), (0, 3), (1, 3)])
            .into_iter()
            .map(|chunk| ReplayChunk { tasks: 2, ..chunk })
            .collect();
        let plan = FaultPlan::builder(0).crash(0, 3).build();
        let r = replay(&chunks, 2, 1, SchedulerKind::Static, Some(&plan));
        // Machine 0 reaches 3 tasks at its second chunk boundary (t = 6)
        // and dies there; both of its chunks rerun on machine 1.
        assert_eq!(r.handed_back, 4);
        assert_eq!((r.work, r.executed), (vec![0, 12], vec![0, 8]));
        assert_eq!(r.makespan, 12);
    }

    #[test]
    fn a_crash_wakes_the_parked_survivors_to_rerun_its_chunks() {
        let chunks = homed(&[(0, 10), (1, 1)]);
        let plan = FaultPlan::builder(0).crash(0, 1).build();
        let r = replay(&chunks, 2, 1, SchedulerKind::Static, Some(&plan));
        // Machine 1 parks at t = 1; machine 0 dies at t = 10 and its
        // chunk reruns on machine 1, which the crash woke.
        assert_eq!(r.handed_back, 1);
        assert_eq!((r.work, r.executed), (vec![0, 11], vec![0, 2]));
        assert_eq!(r.makespan, 20);
    }
}
