//! Task costs and cost-driven placement.
//!
//! The §V-B split divides a hub's task by its degree, a proxy for its
//! cost. A task's real cost is measured in *vticks* — the engine's
//! deterministic instruction counters (ENU candidates + DBQ + INT + TRC
//! executions) — so it depends on the graph, the plan and the task only,
//! never on where, when or how warm it ran: [`price`] computes it by
//! running each task once in memory. Fig. 9 judges a split by the
//! largest priced task, and Fig. 10 replays the pool (`pool::replay`)
//! over priced tasks.
//!
//! Where a task lands is a second decision: the paper, and the live
//! [`Cluster`](crate::Cluster), deal tasks round-robin. A
//! [`CostProfile`] — per-start-vertex priced work — makes that decision
//! from the real thing in the replay: longest-processing-time-first onto
//! the least-loaded machine, each machine's share ordered heaviest-first,
//! so under work stealing the heavy tasks start earliest and thieves
//! steal from the light tail ([`CostProfile::assign_lpt`]). The split
//! stays the configured τ or `auto_tau`: the replay showed a threshold
//! on observed cost dominated by LPT placement over a degree split on
//! every row recorded.

use benu_engine::{
    CompiledPlan, CountingConsumer, InMemorySource, LocalEngine, SearchTask, TaskMetrics,
};
use benu_graph::{Graph, TotalOrder, VertexId};
use benu_obs::safe_ratio;
use std::cmp::Reverse;

/// Deterministic work units of one task execution: the engine's
/// instruction counters, which are independent of wall clock, caching
/// and pooling.
pub fn vticks(m: &TaskMetrics) -> u64 {
    m.enu_candidates + m.dbq_executions + m.int_executions + m.trc_executions
}

/// The [`vticks`] of each of `tasks` under `plan` on `g`, in task order:
/// every task run once, counting, on one engine over the graph in
/// memory. A task's count does not depend on the engine's history (the
/// triangle cache changes where a TRC's answer comes from, not whether
/// it executes), so this is what any run — DFS or hybrid, on any
/// machine — spends on the task.
pub fn price(g: &Graph, plan: &CompiledPlan, tasks: &[SearchTask]) -> Vec<u64> {
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let mut engine = LocalEngine::new(plan, &source, &order);
    let mut consumer = CountingConsumer::default();
    tasks
        .iter()
        .map(|&task| vticks(&engine.run_task(task, &mut consumer)))
        .collect()
}

/// The busiest machine's work over the mean machine's (1.0 = balanced);
/// 0.0 — never NaN — with no machine or no work.
pub fn imbalance(work: &[u64]) -> f64 {
    let mean = safe_ratio(work.iter().sum::<u64>() as f64, work.len() as f64);
    safe_ratio(work.iter().copied().max().unwrap_or(0) as f64, mean)
}

/// Per-start-vertex execution cost in vticks, built from [`price`]d
/// tasks; [`Layout::new`](crate::Layout::new) places a replayed run's
/// tasks by it (Fig. 10).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// `costs[v]` = total vticks of start vertex `v`, summed over its
    /// subtasks.
    costs: Vec<u64>,
}

impl CostProfile {
    /// Builds a profile for `n` start vertices from `(task, vticks)`
    /// pairs; subtask costs of the same start vertex accumulate.
    pub fn from_task_costs(n: usize, priced: impl IntoIterator<Item = (SearchTask, u64)>) -> Self {
        let mut costs = vec![0u64; n];
        for (task, cost) in priced {
            if let Some(c) = costs.get_mut(task.start as usize) {
                *c += cost;
            }
        }
        CostProfile { costs }
    }

    /// Cost of start vertex `v` (0 for unseen vertices).
    pub fn cost(&self, v: VertexId) -> u64 {
        self.costs.get(v as usize).copied().unwrap_or(0)
    }

    /// Estimated cost of one (sub)task: the start vertex's cost
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
