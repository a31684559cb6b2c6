//! Observed-cost load balancing.
//!
//! Degree-based task splitting (`auto_tau`, paper §V-B) uses the start
//! vertex's degree as a proxy for task cost. The proxy is often wrong:
//! two vertices of equal degree can anchor wildly different amounts of
//! search work depending on how their neighbourhoods close into the
//! pattern. A [`CostProfile`] replaces the proxy with the real thing —
//! the per-start-vertex work a previous run *observed* — and drives both
//! decisions that degree used to drive:
//!
//! * **split thresholds** — a start vertex whose observed cost exceeds
//!   the threshold θ splits into `⌈cost/θ⌉` subtasks (capped by its
//!   candidate bound, the most the range split can physically divide),
//!   with θ chosen by the same budgeted binary search `auto_tau` uses;
//! * **placement and steal priority** — initial assignment is
//!   longest-processing-time-first onto the least-loaded worker, and
//!   each worker's queue is ordered heaviest-first, so under work
//!   stealing the heavy tasks start earliest and thieves steal from the
//!   light tail.
//!
//! Cost is measured in *vticks* — the engine's deterministic instruction
//! counters (ENU candidates + DBQ + INT + TRC executions) — so a
//! profile, and every decision derived from it, is a pure function of
//! the run that produced it.

use benu_engine::task::AUTO_TAU_EXTRA_PER_LANE;
use benu_engine::{SearchTask, SplitSpec, TaskMetrics};
use benu_graph::VertexId;

/// Deterministic work units of one task execution: the engine's
/// instruction counters, which are independent of wall clock, caching
/// and pooling.
pub fn vticks(m: &TaskMetrics) -> u64 {
    m.enu_candidates + m.dbq_executions + m.int_executions + m.trc_executions
}

/// Per-start-vertex observed execution cost from a completed run, in
/// vticks. Built by the cluster when
/// [`ClusterConfig::collect_task_profile`](crate::ClusterConfig::collect_task_profile)
/// is set; install it back with
/// [`Cluster::set_cost_profile`](crate::Cluster::set_cost_profile) to
/// switch splitting and placement to observed costs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// `costs[v]` = total observed vticks of start vertex `v`, summed
    /// over its subtasks.
    costs: Vec<u64>,
}

impl CostProfile {
    /// Builds a profile for `n` start vertices from `(task, vticks)`
    /// records; subtask costs of the same start vertex accumulate.
    pub fn from_task_costs(n: usize, records: impl IntoIterator<Item = (SearchTask, u64)>) -> Self {
        let mut costs = vec![0u64; n];
        for (task, cost) in records {
            if let Some(c) = costs.get_mut(task.start as usize) {
                *c += cost;
            }
        }
        CostProfile { costs }
    }

    /// Observed cost of start vertex `v` (0 for unseen vertices).
    pub fn cost(&self, v: VertexId) -> u64 {
        self.costs.get(v as usize).copied().unwrap_or(0)
    }

    /// Number of start vertices covered.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when the profile covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Total observed vticks across all start vertices.
    pub fn total(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// Estimated cost of one (sub)task: the start vertex's observed cost
    /// divided evenly over its split, since [`SplitSpec::range`] divides
    /// the candidate range into near-equal slices.
    pub fn task_cost(&self, task: &SearchTask) -> u64 {
        let c = self.cost(task.start);
        match task.split {
            Some(split) => c / split.total as u64,
            None => c,
        }
    }

    /// Number of subtasks start vertex `v` splits into at cost threshold
    /// `theta`, capped by its candidate bound (a range of `bound`
    /// candidates cannot be divided further than `bound` ways).
    fn subtasks_at(&self, v: usize, theta: u64, bound: usize) -> usize {
        let c = self.costs[v];
        if theta == 0 || c <= theta || bound < 2 {
            return 1;
        }
        (c.div_ceil(theta) as usize).min(bound)
    }

    /// Generates the task list with cost-driven splitting: the smallest
    /// cost threshold θ whose total extra subtasks stay within
    /// `lanes × AUTO_TAU_EXTRA_PER_LANE` (the same budget `auto_tau`
    /// spends on degree-based splits), found by binary search — extra
    /// subtasks are monotone non-increasing in θ. Returns the tasks and
    /// the chosen θ. Pure function of `(profile, degrees, lanes,
    /// second_adjacent)`.
    pub fn generate_tasks(
        &self,
        degrees: &[u32],
        lanes: usize,
        second_adjacent: bool,
    ) -> (Vec<SearchTask>, u64) {
        let n = degrees.len();
        debug_assert_eq!(self.costs.len(), n, "profile must cover every start vertex");
        let budget = lanes.max(1) * AUTO_TAU_EXTRA_PER_LANE;
        let bound_of = |v: usize| -> usize {
            if second_adjacent {
                degrees[v] as usize
            } else {
                n
            }
        };
        let extra = |theta: u64| -> usize {
            (0..n.min(self.costs.len()))
                .map(|v| self.subtasks_at(v, theta, bound_of(v)) - 1)
                .sum()
        };
        // θ = max cost splits nothing, so the interval is feasible.
        let max_cost = self.costs.iter().copied().max().unwrap_or(0).max(1);
        let (mut lo, mut hi) = (1u64, max_cost);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if extra(mid) <= budget {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let theta = lo;
        let mut tasks = Vec::with_capacity(n + budget);
        for v in 0..n {
            let total = self.subtasks_at(v, theta, bound_of(v));
            if total <= 1 {
                tasks.push(SearchTask::whole(v as VertexId));
            } else {
                let total = u32::try_from(total).expect("subtask count overflows u32");
                for index in 0..total {
                    tasks.push(SearchTask {
                        start: v as VertexId,
                        split: Some(SplitSpec { index, total }),
                    });
                }
            }
        }
        (tasks, theta)
    }

    /// Longest-processing-time-first placement: tasks sorted by
    /// descending estimated cost (ties broken by `(start, split index)`
    /// for determinism), each assigned to the currently least-loaded
    /// worker (ties to the lowest index). Every queue comes out
    /// heaviest-first, which doubles as the steal priority — thieves
    /// take from the back, i.e. the light tail.
    pub fn assign_lpt(&self, tasks: Vec<SearchTask>, workers: usize) -> Vec<Vec<SearchTask>> {
        let workers = workers.max(1);
        let mut order: Vec<SearchTask> = tasks;
        order.sort_by(|a, b| {
            self.task_cost(b)
                .cmp(&self.task_cost(a))
                .then_with(|| a.start.cmp(&b.start))
                .then_with(|| {
                    let ia = a.split.map_or(0, |s| s.index);
                    let ib = b.split.map_or(0, |s| s.index);
                    ia.cmp(&ib)
                })
        });
        let mut queues: Vec<Vec<SearchTask>> = vec![Vec::new(); workers];
        let mut load = vec![0u64; workers];
        for task in order {
            let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap();
            load[w] += self.task_cost(&task).max(1);
            queues[w].push(task);
        }
        queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(costs: Vec<u64>) -> CostProfile {
        CostProfile { costs }
    }

    #[test]
    fn from_task_costs_accumulates_subtasks() {
        let t0 = SearchTask::whole(0);
        let t1a = SearchTask {
            start: 1,
            split: Some(SplitSpec { index: 0, total: 2 }),
        };
        let t1b = SearchTask {
            start: 1,
            split: Some(SplitSpec { index: 1, total: 2 }),
        };
        let p = CostProfile::from_task_costs(3, vec![(t0, 5), (t1a, 7), (t1b, 9)]);
        assert_eq!(p.cost(0), 5);
        assert_eq!(p.cost(1), 16);
        assert_eq!(p.cost(2), 0);
        assert_eq!(p.total(), 21);
        // Subtask cost is the vertex cost spread over the split.
        assert_eq!(p.task_cost(&t1a), 8);
    }

    #[test]
    fn cost_driven_split_respects_budget_and_bounds() {
        // One hub with 100× the cost of everyone else.
        let mut costs = vec![10u64; 50];
        costs[7] = 1000;
        let degrees = vec![20u32; 50];
        let p = profile(costs);
        let lanes = 2;
        let (tasks, theta) = p.generate_tasks(&degrees, lanes, true);
        let extra = tasks.len() - 50;
        assert!(extra > 0, "the hub must split (θ={theta})");
        assert!(extra <= lanes * AUTO_TAU_EXTRA_PER_LANE);
        let hub: Vec<_> = tasks.iter().filter(|t| t.start == 7).collect();
        assert!(hub.len() > 1);
        assert!(hub.len() <= 20, "cannot split beyond the candidate bound");
        // Determinism.
        let (tasks2, theta2) = p.generate_tasks(&degrees, lanes, true);
        assert_eq!(tasks, tasks2);
        assert_eq!(theta, theta2);
    }

    #[test]
    fn split_cap_honours_the_candidate_bound_in_both_arms() {
        // Cost says "split 100 ways" but degree (the second-adjacent
        // bound) is 3 — only 3 subtasks are physically meaningful.
        let mut costs = vec![1u64; 10];
        costs[0] = 10_000;
        let degrees = {
            let mut d = vec![1u32; 10];
            d[0] = 3;
            d
        };
        let p = profile(costs);
        let (tasks, _) = p.generate_tasks(&degrees, 4, true);
        assert_eq!(tasks.iter().filter(|t| t.start == 0).count(), 3);
        // Non-adjacent arm: the bound is |V| = 10.
        let (tasks, _) = p.generate_tasks(&degrees, 4, false);
        let hub = tasks.iter().filter(|t| t.start == 0).count();
        assert!(hub > 3 && hub <= 10, "hub split {hub} ways");
    }

    #[test]
    fn lpt_balances_better_than_round_robin_on_skew() {
        // 1 heavy task (100) + 7 light (1): round robin puts the heavy
        // one plus light ones on worker 0; LPT isolates the heavy task.
        let costs = {
            let mut c = vec![1u64; 8];
            c[0] = 100;
            c
        };
        let p = profile(costs);
        let tasks: Vec<SearchTask> = (0..8).map(|v| SearchTask::whole(v as VertexId)).collect();
        let queues = p.assign_lpt(tasks.clone(), 2);
        let load = |q: &Vec<SearchTask>| q.iter().map(|t| p.task_cost(t)).sum::<u64>();
        let (a, b) = (load(&queues[0]), load(&queues[1]));
        assert_eq!(a.max(b), 100, "heavy task must sit alone: {a} vs {b}");
        // Round robin for comparison: worker 0 gets 100 + 3 lights.
        let rr0: u64 = tasks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, t)| p.task_cost(t))
            .sum();
        assert!(a.max(b) < rr0);
        // Queues are heaviest-first.
        for q in &queues {
            for pair in q.windows(2) {
                assert!(p.task_cost(&pair[0]) >= p.task_cost(&pair[1]));
            }
        }
        // Deterministic.
        assert_eq!(p.assign_lpt(tasks.clone(), 2), queues);
    }
}
