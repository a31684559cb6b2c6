//! Local search tasks and task splitting (paper §V-B).
//!
//! BENU generates one task per data vertex; the task enumerates every
//! match whose start pattern vertex maps to that data vertex. Power-law
//! degree distributions make a handful of hub tasks dominate the runtime,
//! so tasks whose start degree exceeds a threshold `τ` are split: the
//! candidate set of the *second* pattern vertex is divided into
//! `⌈|C|/τ⌉` equal-sized contiguous ranges, one per subtask.

use benu_graph::{Graph, VertexId};

/// Which slice of the second pattern vertex's candidate set a subtask
/// owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SplitSpec {
    /// This subtask's index in `0..total`.
    pub index: u32,
    /// Total number of subtasks the parent task was split into (≥ 2).
    pub total: u32,
}

impl SplitSpec {
    /// The half-open subrange of a candidate set of length `len` that this
    /// subtask enumerates. Ranges are contiguous, non-overlapping, cover
    /// `0..len`, and differ in size by at most one element.
    pub fn range(&self, len: usize) -> std::ops::Range<usize> {
        let total = self.total as usize;
        let index = self.index as usize;
        let base = len / total;
        let extra = len % total;
        let lo = index * base + index.min(extra);
        let hi = lo + base + usize::from(index < extra);
        lo..hi.min(len)
    }
}

/// One local search task: enumerate all matches with `f_{k1} = start`,
/// optionally restricted to a slice of the second-level candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SearchTask {
    /// The data vertex the first pattern vertex is mapped to.
    pub start: VertexId,
    /// Task-splitting restriction, if the parent task was split.
    pub split: Option<SplitSpec>,
}

impl SearchTask {
    /// An unsplit task.
    pub fn whole(start: VertexId) -> Self {
        SearchTask { start, split: None }
    }
}

/// Generates the task list for a data graph with task splitting at
/// degree threshold `tau` (paper: τ = 500). `second_adjacent` says
/// whether the second pattern vertex is adjacent to the first in the
/// pattern — if so the second-level candidate set size is bounded by the
/// start degree, otherwise by `|V(G)|`.
///
/// Passing `tau = 0` disables splitting.
pub fn generate_tasks(g: &Graph, tau: usize, second_adjacent: bool) -> Vec<SearchTask> {
    let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
    generate_tasks_from_degrees(&degrees, tau, second_adjacent)
}

/// [`generate_tasks`] over a precomputed degree array (`degrees[v]` is
/// the degree of vertex `v`); the cluster runtime keeps this array
/// resident so task generation never re-touches the graph. This is the
/// single implementation of the §V-B split arithmetic — the `Graph`
/// entry point above delegates here, so the split predicate cannot
/// drift between the local and cluster runtimes.
pub fn generate_tasks_from_degrees(
    degrees: &[u32],
    tau: usize,
    second_adjacent: bool,
) -> Vec<SearchTask> {
    let n = degrees.len();
    let mut tasks = Vec::with_capacity(n);
    for (v, &d) in degrees.iter().enumerate() {
        let start = v as VertexId;
        match split_bound(d as usize, n, tau, second_adjacent) {
            Some(bound) => {
                let total = subtask_total(bound, tau);
                let split = (0..total).map(|index| SplitSpec { index, total });
                tasks.extend(split.map(|split| SearchTask {
                    start,
                    split: Some(split),
                }));
            }
            None => tasks.push(SearchTask::whole(start)),
        }
    }
    tasks
}

/// The candidate bound a start vertex of `degree` in a graph of `n`
/// vertices is split over at threshold `tau` (0: never), or `None` if its
/// task stays whole: the one split predicate, which [`auto_tau`] counts
/// with.
fn split_bound(degree: usize, n: usize, tau: usize, second_adjacent: bool) -> Option<usize> {
    let bound = if second_adjacent { degree } else { n };
    (tau > 0 && degree >= tau && bound > tau).then_some(bound)
}

/// Number of subtasks a candidate bound splits into at threshold `tau`.
///
/// # Panics
///
/// Panics if the count does not fit `u32` (an `as` cast here would
/// silently truncate and drop candidate ranges).
fn subtask_total(candidate_bound: usize, tau: usize) -> u32 {
    u32::try_from(candidate_bound.div_ceil(tau))
        .expect("subtask count overflows u32 — raise the split threshold τ")
}

/// How many extra subtasks per execution lane the adaptive threshold
/// targets (a lane is one worker thread). Keeping a handful of splits
/// per lane balances hub-vertex skew without flooding the scheduler.
pub const AUTO_TAU_EXTRA_PER_LANE: usize = 4;

/// Picks a task-splitting threshold τ from the start-vertex degree
/// distribution (journal refinement of paper §V-B): the smallest τ whose
/// total *extra* subtasks — Σ over split vertices of `⌈bound/τ⌉ − 1` —
/// stays within `lanes × AUTO_TAU_EXTRA_PER_LANE`. Smaller τ splits hub
/// tasks finer (better balance); the budget caps the scheduling overhead
/// that buys. The extra-subtask count is monotone non-increasing in τ,
/// so a binary search finds the frontier exactly; the choice is a pure
/// function of `(degrees, lanes, second_adjacent)` and therefore
/// deterministic across runs.
pub fn auto_tau(degrees: &[u32], lanes: usize, second_adjacent: bool) -> usize {
    let n = degrees.len();
    let budget = lanes.max(1) * AUTO_TAU_EXTRA_PER_LANE;
    let extra = |tau: usize| -> usize {
        let split = degrees
            .iter()
            .filter_map(|&d| split_bound(d as usize, n, tau, second_adjacent));
        split.map(|bound| bound.div_ceil(tau) - 1).sum()
    };
    // At τ = max bound nothing splits (extra = 0 ≤ budget), so the
    // search interval always contains a feasible point.
    let max_bound = if second_adjacent {
        degrees.iter().copied().max().unwrap_or(0) as usize
    } else {
        n
    };
    let (mut lo, mut hi) = (1usize, max_bound.max(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if extra(mid) <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    #[test]
    fn ranges_partition_exactly() {
        for len in [0usize, 1, 7, 100, 101, 1024] {
            for total in [2u32, 3, 7, 16] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for index in 0..total {
                    let r = SplitSpec { index, total }.range(len);
                    assert_eq!(r.start, prev_end, "len {len} total {total}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        let total = 7u32;
        let sizes: Vec<usize> = (0..total)
            .map(|index| SplitSpec { index, total }.range(100).len())
            .collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }

    #[test]
    fn splitting_respects_threshold() {
        // Star: centre has degree 50, leaves degree 1.
        let g = gen::star(50);
        let tasks = generate_tasks(&g, 10, true);
        let centre_tasks: Vec<_> = tasks.iter().filter(|t| t.start == 0).collect();
        assert_eq!(centre_tasks.len(), 5); // ceil(50 / 10)
        assert!(centre_tasks.iter().all(|t| t.split.is_some()));
        let leaf_tasks: Vec<_> = tasks.iter().filter(|t| t.start == 1).collect();
        assert_eq!(leaf_tasks.len(), 1);
        assert!(leaf_tasks[0].split.is_none());
    }

    #[test]
    fn non_adjacent_second_vertex_splits_by_graph_size() {
        let g = gen::star(50); // 51 vertices
        let tasks = generate_tasks(&g, 10, false);
        let centre_tasks = tasks.iter().filter(|t| t.start == 0).count();
        assert_eq!(centre_tasks, 51usize.div_ceil(10));
    }

    #[test]
    fn zero_tau_disables_splitting() {
        let g = gen::star(50);
        let tasks = generate_tasks(&g, 0, true);
        assert_eq!(tasks.len(), g.num_vertices());
        assert!(tasks.iter().all(|t| t.split.is_none()));
    }

    /// The §V-B audit: for degrees straddling every τ boundary, the
    /// generated subtask ranges must exactly partition the unsplit
    /// candidate range — no gap, no overlap, no truncation — and the
    /// split predicate must fire exactly when `degree ≥ τ ∧ bound > τ`.
    #[test]
    fn split_tasks_partition_the_candidate_range_at_tau_boundaries() {
        for tau in [2usize, 5, 7, 16, 500] {
            let boundary_degrees = [
                tau - 1,
                tau,
                tau + 1,
                2 * tau - 1,
                2 * tau,
                2 * tau + 1,
                7 * tau + 3,
            ];
            for &degree in &boundary_degrees {
                for second_adjacent in [true, false] {
                    // Vertex 0 carries the probed degree; padding vertices
                    // set |V(G)| (the non-adjacent bound) above τ.
                    let mut degrees = vec![0u32; tau + 2];
                    degrees[0] = degree as u32;
                    let n = degrees.len();
                    let bound = if second_adjacent { degree } else { n };
                    let tasks = generate_tasks_from_degrees(&degrees, tau, second_adjacent);
                    let mine: Vec<&SearchTask> = tasks.iter().filter(|t| t.start == 0).collect();
                    let should_split = degree >= tau && bound > tau;
                    if !should_split {
                        assert_eq!(mine.len(), 1, "τ={tau} degree={degree}");
                        assert!(mine[0].split.is_none());
                        continue;
                    }
                    let total = bound.div_ceil(tau) as u32;
                    assert_eq!(mine.len(), total as usize, "τ={tau} degree={degree}");
                    let mut covered = 0usize;
                    for (i, t) in mine.iter().enumerate() {
                        let split = t.split.expect("split task carries its spec");
                        assert_eq!(split.index, i as u32);
                        assert_eq!(split.total, total);
                        let r = split.range(bound);
                        assert_eq!(
                            r.start, covered,
                            "gap or overlap at τ={tau} degree={degree} index={i}"
                        );
                        covered = r.end;
                    }
                    assert_eq!(
                        covered, bound,
                        "subtasks must cover the whole range (τ={tau} degree={degree})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn subtask_total_refuses_silent_truncation() {
        // (u32::MAX + 1) subtasks cannot be represented; the old `as u32`
        // cast silently wrapped here and dropped candidate ranges.
        subtask_total(u32::MAX as usize + 1, 1);
    }

    #[test]
    fn auto_tau_is_deterministic_and_respects_the_budget() {
        let g = gen::barabasi_albert(2000, 4, 9);
        let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        for lanes in [1usize, 4, 16] {
            let tau = auto_tau(&degrees, lanes, true);
            assert_eq!(tau, auto_tau(&degrees, lanes, true), "must be pure");
            assert!(tau >= 1);
            let base = generate_tasks_from_degrees(&degrees, 0, true).len();
            let split = generate_tasks_from_degrees(&degrees, tau, true).len();
            assert!(
                split - base <= lanes * AUTO_TAU_EXTRA_PER_LANE,
                "lanes={lanes}: {} extra subtasks exceed the budget",
                split - base
            );
        }
        // More lanes can only split finer (τ non-increasing in lanes).
        assert!(auto_tau(&degrees, 16, true) <= auto_tau(&degrees, 1, true));
    }

    #[test]
    fn auto_tau_splits_the_hub_of_a_star() {
        // Star hub: one degree-400 vertex among degree-1 leaves. The
        // adaptive threshold must split the hub into roughly the budget
        // of extra subtasks instead of leaving it whole.
        let g = gen::star(400);
        let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        let lanes = 4;
        let tau = auto_tau(&degrees, lanes, true);
        let tasks = generate_tasks_from_degrees(&degrees, tau, true);
        let hub_tasks = tasks.iter().filter(|t| t.start == 0).count();
        let budget = lanes * AUTO_TAU_EXTRA_PER_LANE;
        assert!(hub_tasks > 1, "the hub must split (τ={tau})");
        assert!(
            hub_tasks <= budget + 1,
            "hub split into {hub_tasks} subtasks, budget is {budget} extra"
        );
        // Exactness: split and unsplit task lists enumerate the same work.
        let plan = benu_plan::PlanBuilder::new(&benu_pattern::queries::triangle()).best_plan();
        let compiled = crate::CompiledPlan::compile(&plan);
        let source = crate::InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = crate::LocalEngine::new(&compiled, &source, &order);
        let mut c = crate::CountingConsumer::default();
        let whole = engine.run_all_vertices(&mut c).matches;
        let mut split_total = 0u64;
        for t in generate_tasks_from_degrees(&degrees, tau, compiled.second_adjacent) {
            split_total += engine.run_task(t, &mut c).matches;
        }
        assert_eq!(whole, split_total, "adaptive τ changed the count");
    }

    /// The audit for `auto_tau`'s internal extra-subtask estimate: its
    /// closure (`⌈bound/τ⌉ − 1` where `degree ≥ τ ∧ bound > τ`) must
    /// agree with what `generate_tasks_from_degrees` actually emits, at
    /// the τ boundary and under both `second_adjacent` arms. If the two
    /// predicates drifted, the chosen τ could blow the scheduling budget
    /// or leave hubs unsplit.
    #[test]
    fn auto_tau_estimate_matches_actual_partition_at_the_boundary() {
        // Mirrors auto_tau's internal closure exactly.
        let estimate = |degrees: &[u32], tau: usize, second_adjacent: bool| -> usize {
            let n = degrees.len();
            degrees
                .iter()
                .map(|&d| {
                    let degree = d as usize;
                    let bound = if second_adjacent { degree } else { n };
                    if degree >= tau && bound > tau {
                        bound.div_ceil(tau) - 1
                    } else {
                        0
                    }
                })
                .sum()
        };
        let actual = |degrees: &[u32], tau: usize, second_adjacent: bool| -> usize {
            generate_tasks_from_degrees(degrees, tau, second_adjacent).len() - degrees.len()
        };
        for tau in [2usize, 5, 16, 500] {
            for second_adjacent in [true, false] {
                // Degree mixes straddling the boundary, including n vs τ
                // interactions for the non-adjacent bound (n = len).
                let cases: Vec<Vec<u32>> = vec![
                    vec![0; tau],                    // n == τ: nothing splits
                    vec![0; tau + 1],                // n == τ+1: bound n just over
                    vec![tau as u32; tau + 1],       // every degree at τ
                    vec![(tau - 1) as u32; tau + 2], // degrees just under τ
                    {
                        let mut d = vec![1u32; 2 * tau + 1]; // one hub far over τ
                        d[0] = (7 * tau + 3) as u32;
                        d
                    },
                    {
                        let mut d = vec![0u32; tau + 2]; // boundary sweep
                        d[0] = (tau - 1) as u32;
                        d[1] = tau as u32;
                        d[2] = (tau + 1) as u32;
                        d
                    },
                ];
                for degrees in &cases {
                    assert_eq!(
                        estimate(degrees, tau, second_adjacent),
                        actual(degrees, tau, second_adjacent),
                        "τ={tau} second_adjacent={second_adjacent} degrees={degrees:?}"
                    );
                }
            }
        }
        // And on a power-law degree distribution at the auto-chosen τ
        // itself, for both arms.
        let g = gen::barabasi_albert(1500, 4, 13);
        let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        for second_adjacent in [true, false] {
            for lanes in [1usize, 8] {
                let tau = auto_tau(&degrees, lanes, second_adjacent);
                let est = estimate(&degrees, tau, second_adjacent);
                assert_eq!(est, actual(&degrees, tau, second_adjacent));
                assert!(est <= lanes * AUTO_TAU_EXTRA_PER_LANE);
            }
        }
    }

    #[test]
    fn task_count_grows_only_slightly() {
        // Paper Exp-4: 3.07M → 3.12M tasks. On a power-law mini graph,
        // splitting should add a small fraction of extra tasks.
        let g = gen::barabasi_albert(2000, 4, 9);
        let unsplit = generate_tasks(&g, 0, true).len();
        let split = generate_tasks(&g, 50, true).len();
        assert!(split > unsplit);
        assert!((split as f64) < (unsplit as f64) * 1.5);
    }
}
