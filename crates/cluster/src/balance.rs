//! Observed-cost placement.
//!
//! The §V-B split divides a hub's task by its degree, a proxy for its
//! cost. Where the task lands is a second decision: the paper deals tasks
//! round-robin. A [`CostProfile`] — the per-start-vertex work a previous
//! run *observed* — makes that decision from the real thing:
//! longest-processing-time-first onto the least-loaded machine, each
//! machine's share ordered heaviest-first, so under work stealing the
//! heavy tasks start earliest and thieves steal from the light tail
//! ([`CostProfile::assign_lpt`]). The split stays the configured τ or
//! `auto_tau`: replaying the pool (`pool::replay`, Fig. 10) showed a
//! threshold on observed cost dominated by LPT placement over a degree
//! split on every row recorded.
//!
//! Cost is measured in *vticks* — the engine's deterministic instruction
//! counters (ENU candidates + DBQ + INT + TRC executions) — so a
//! profile, and the placement derived from it, is a pure function of the
//! run that produced it.

use benu_engine::{SearchTask, TaskMetrics};
use benu_graph::VertexId;
use benu_obs::safe_ratio;
use std::cmp::Reverse;

/// Deterministic work units of one task execution: the engine's
/// instruction counters, which are independent of wall clock, caching
/// and pooling.
pub fn vticks(m: &TaskMetrics) -> u64 {
    m.enu_candidates + m.dbq_executions + m.int_executions + m.trc_executions
}

/// The busiest machine's work over the mean machine's (1.0 = balanced);
/// 0.0 — never NaN — with no machine or no work.
pub fn imbalance(work: &[u64]) -> f64 {
    let mean = safe_ratio(work.iter().sum::<u64>() as f64, work.len() as f64);
    safe_ratio(work.iter().copied().max().unwrap_or(0) as f64, mean)
}

/// Per-start-vertex observed execution cost from a completed run, in
/// vticks. Built by the cluster when
/// [`ClusterConfig::collect_task_profile`](crate::ClusterConfig::collect_task_profile)
/// is set; install it back with
/// [`Cluster::set_cost_profile`](crate::Cluster::set_cost_profile) to
/// place tasks by observed cost.
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
    /// divided evenly over its split, since
    /// [`benu_engine::SplitSpec::range`] divides the candidate range into
    /// near-equal slices.
    pub fn task_cost(&self, task: &SearchTask) -> u64 {
        let c = self.cost(task.start);
        match task.split {
            Some(split) => c / split.total as u64,
            None => c,
        }
    }

    /// Longest-processing-time-first placement: tasks sorted by
    /// descending estimated cost (ties broken by `(start, split index)`
    /// for determinism), each assigned to the currently least-loaded
    /// worker (ties to the lowest index). Every queue comes out
    /// heaviest-first, which doubles as the steal priority — thieves
    /// take from the back, i.e. the light tail.
    pub fn assign_lpt(&self, tasks: Vec<SearchTask>, workers: usize) -> Vec<Vec<SearchTask>> {
        let workers = workers.max(1);
        let mut order = tasks;
        order.sort_by_key(|t| {
            let index = t.split.map_or(0, |s| s.index);
            (Reverse(self.task_cost(t)), t.start, index)
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
    use benu_engine::SplitSpec;

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
