//! The paper's evaluation (§VII) as data, and the guarantees of the
//! extensions beyond it.
//!
//! One function per table or figure returns its rows, and [`claims`]
//! restates the paper's relative claims about that table as named
//! predicates over the same rows. Three more experiments do the same for
//! the extensions: hybrid execution under a memory budget, exact counts
//! under injected faults, and the cardinality estimators. The `paper`
//! bin prints rows and verdicts and writes both with `--json`;
//! `tests/paper_claims.rs` asserts them at a small scale.
//!
//! Rows are [`Report`]s, so the text table, the JSON dump and the
//! claims read one set of values. Every value a claim reads is a
//! deterministic count: vticks and instruction executions, store bytes,
//! plan-search α / β, match counts, and whether a baseline hit its cap.
//! Cluster cells run one lane per machine, where those counts replay
//! (DESIGN §4c *What replays*). Wall-clock columns are named with the
//! host's core count, because on a host with fewer cores than simulated
//! lanes they measure the host.

use crate::load_dataset;
use benu_baselines::{starjoin, wcoj, BaselineOutcome};
use benu_cluster::{
    balance, pool, Cluster, ClusterConfig, ClusterConfigBuilder, CodecKind, CostProfile, ExecMode,
    FaultPlan, Layout, RunOutcome, SchedulerKind, Split,
};
use benu_engine::{CompiledPlan, SearchTask};
use benu_graph::datasets::Dataset;
use benu_graph::{gen, stats, Graph};
use benu_obs::{Report, ReportMode, Value};
use benu_pattern::automorphism::automorphism_count;
use benu_pattern::{queries, Pattern};
use benu_plan::optimize::OptLevel;
use benu_plan::{
    CardinalityEstimator, ChungLuEstimator, FeedbackEstimator, GraphStatsEstimator, PlanBuilder,
    SearchStats,
};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// The paper's tables and figures, in its order, then the extensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Table I: motif counts of the five data graphs.
    Table1,
    /// Exp-1 / Table IV: best-plan search effort (α, β).
    Table4,
    /// Exp-2 / Fig. 7: cumulative plan optimizations.
    Fig7,
    /// Exp-3 / Fig. 8: database-cache capacity.
    Fig8,
    /// Exp-4 / Fig. 9: task splitting.
    Fig9,
    /// Exp-5 / Table V: BENU vs the join-based baseline.
    Table5,
    /// Exp-6 / Table VI: BENU vs worst-case-optimal joins.
    Table6,
    /// Fig. 10: machine scalability.
    Fig10,
    /// Hybrid execution under a memory budget against DFS.
    Budget,
    /// Match counts under transient faults, a crash and dark shards.
    Faults,
    /// Cardinality estimators against true counts.
    Estimators,
}

impl Experiment {
    /// Every experiment: the paper's, in its order, then the extensions.
    pub const ALL: [Experiment; 11] = [
        Experiment::Table1,
        Experiment::Table4,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Table5,
        Experiment::Table6,
        Experiment::Fig10,
        Experiment::Budget,
        Experiment::Faults,
        Experiment::Estimators,
    ];

    /// The extensions beyond the paper.
    pub const EXT: [Experiment; 3] = [
        Experiment::Budget,
        Experiment::Faults,
        Experiment::Estimators,
    ];

    /// The name the `paper` bin takes.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table4 => "table4",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Table5 => "table5",
            Experiment::Table6 => "table6",
            Experiment::Fig10 => "fig10",
            Experiment::Budget => "budget",
            Experiment::Faults => "faults",
            Experiment::Estimators => "estimators",
        }
    }

    /// Parses [`Experiment::name`].
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The dataset scale the experiment runs at unless one is given:
    /// large enough that the paper's effects show, small enough for a
    /// few minutes on a laptop-class host. Table IV uses no data graph.
    pub fn default_scale(self) -> f64 {
        match self {
            Experiment::Table1 => 0.2,
            Experiment::Table4 => 0.0,
            Experiment::Fig7 | Experiment::Fig8 | Experiment::Fig9 => 0.15,
            Experiment::Table5 | Experiment::Fig10 => 0.08,
            Experiment::Table6 => 0.03,
            Experiment::Budget | Experiment::Estimators => 0.05,
            Experiment::Faults => 0.1,
        }
    }

    fn title(self) -> &'static str {
        match self {
            Experiment::Table1 => "Table I — match counts of the core motifs",
            Experiment::Table4 => "Table IV — best execution plan search effort",
            Experiment::Fig7 => "Fig. 7 — cumulative plan optimizations (lj, 1 worker × 1 lane)",
            Experiment::Fig8 => "Fig. 8 — database-cache capacity (ok, 4 workers × 1 lane)",
            Experiment::Fig9 => "Fig. 9 — task splitting, q5 on ok (4 workers × 1 lane)",
            Experiment::Table5 => "Table V — BENU vs the join baseline (4 workers × 1 lane)",
            Experiment::Table6 => "Table VI — BENU vs WCOJ (4 workers × 1 lane)",
            Experiment::Fig10 => "Fig. 10 — the pool replayed in vticks, 2 lanes per machine",
            Experiment::Budget => {
                "Hybrid execution under a memory budget (ok, 4 workers × 1 lane, no cache, τ 32)"
            }
            Experiment::Faults => "Exact counts under faults, q3 on as (4 workers × 1 lane)",
            Experiment::Estimators => "Cardinality estimators: Erdős–Rényi, Chung-Lu, feedback",
        }
    }
}

/// What an experiment runs on.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Dataset scale; `None` runs each experiment at its
    /// [`Experiment::default_scale`].
    pub scale: Option<f64>,
    /// Replaces the datasets Tables I, V, VI, Fig. 10 and the estimator
    /// comparison sweep.
    pub datasets: Option<Vec<Dataset>>,
    /// Replaces the queries Tables V, VI, Fig. 10 and the estimator
    /// comparison sweep.
    pub queries: Option<Vec<String>>,
    /// Table IV: random connected patterns averaged per size (the paper
    /// averages 1000).
    pub random_patterns: usize,
    /// Table V: the join baseline's memory cap.
    pub join_cap_bytes: u64,
    /// Table VI: the WCOJ baseline's memory cap.
    pub wcoj_cap_bytes: u64,
    /// Table VI: the WCOJ baseline's work budget, in extension steps.
    pub wcoj_work_budget: u64,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            scale: None,
            datasets: None,
            queries: None,
            random_patterns: 100,
            join_cap_bytes: 512 << 20,
            wcoj_cap_bytes: 512 << 20,
            wcoj_work_budget: 300_000_000,
        }
    }
}

impl Setup {
    /// The datasets a sweep runs: the given ones, else the experiment's.
    fn datasets(&self, default: &[Dataset]) -> Vec<Dataset> {
        self.datasets.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The queries a sweep runs: the given ones, else the experiment's.
    fn queries(&self, default: &[&str]) -> Vec<(String, Pattern)> {
        let names = self
            .queries
            .clone()
            .unwrap_or_else(|| default.iter().map(|q| q.to_string()).collect());
        names
            .into_iter()
            .map(|q| {
                let p = named_pattern(&q);
                (q, p)
            })
            .collect()
    }
}

/// One experiment's result: its rows at the scale it ran.
#[derive(Clone, Debug)]
pub struct Table {
    /// The experiment.
    pub experiment: Experiment,
    /// The dataset scale it ran at.
    pub scale: f64,
    /// One report per row; rows of one shape print as one table.
    pub rows: Vec<Report>,
}

/// Runs one experiment.
pub fn run(experiment: Experiment, setup: &Setup) -> Table {
    let scale = setup.scale.unwrap_or(experiment.default_scale());
    let rows = match experiment {
        Experiment::Table1 => table1(setup, scale),
        Experiment::Table4 => table4(setup),
        Experiment::Fig7 => fig7(scale),
        Experiment::Fig8 => fig8(scale),
        Experiment::Fig9 => fig9(scale),
        Experiment::Table5 => table5(setup, scale),
        Experiment::Table6 => table6(setup, scale),
        Experiment::Fig10 => fig10(setup, scale),
        Experiment::Budget => budget(scale),
        Experiment::Faults => faults(scale),
        Experiment::Estimators => estimators(setup, scale),
    };
    Table {
        experiment,
        scale,
        rows,
    }
}

/// One claim, the paper's or an extension's, judged on a table's rows.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What is claimed, in terms of the rows.
    pub name: String,
    /// Whether the rows bear it out.
    pub holds: bool,
    /// Whether the `paper` bin fails when it does not hold. Only a claim
    /// the stand-in graphs are known not to bear out at any scale is
    /// reported without failing the run.
    pub gated: bool,
    /// The values it was judged on.
    pub evidence: String,
}

impl Table {
    /// Prints the title, the rows (one text table per row shape) and
    /// each claim's verdict.
    pub fn print(&self, claims: &[Claim]) {
        println!("\n{} (scale {}):", self.experiment.title(), self.scale);
        let mut start = 0;
        while start < self.rows.len() {
            let keys = |r: &Report| r.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            let headers = keys(&self.rows[start]);
            let end = start
                + self.rows[start..]
                    .iter()
                    .take_while(|r| keys(r) == headers)
                    .count();
            let cells: Vec<Vec<String>> = self.rows[start..end]
                .iter()
                .map(|r| r.iter().map(|(_, v)| cell(v)).collect())
                .collect();
            let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
            crate::print_table(&headers, &cells);
            start = end;
        }
        for c in claims {
            let verdict = match (c.holds, c.gated) {
                (true, _) => "holds",
                (false, true) => "DOES NOT HOLD",
                (false, false) => "does not hold, not gated",
            };
            println!("  [{verdict}] {} — {}", c.name, c.evidence);
        }
    }

    /// The table and its verdicts as one report row of the bench dump.
    pub fn report(&self, claims: &[Claim]) -> Report {
        let mut r = Report::new();
        r.set("experiment", self.experiment.name());
        r.set("scale", self.scale);
        r.set(
            "rows",
            Value::List(self.rows.iter().cloned().map(Value::Tree).collect()),
        );
        let verdicts = claims.iter().map(|c| {
            let mut v = Report::new();
            v.set("claim", c.name.as_str());
            v.set("holds", c.holds);
            v.set("gated", c.gated);
            v.set("evidence", c.evidence.as_str());
            Value::Tree(v)
        });
        r.set("claims", Value::List(verdicts.collect()));
        r
    }
}

fn cell(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:.3}"),
        Value::Str(s) => s.clone(),
        other => other.render_json().trim_end().to_string(),
    }
}

/// Logical cores of this host, named in every wall-clock column.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The name of a wall-clock column: seconds on this host's cores.
fn wall(what: &str) -> String {
    format!("{what}_s_{}cores", cores())
}

fn row<const N: usize>(cells: [(&str, Value); N]) -> Report {
    let mut r = Report::new();
    for (key, value) in cells {
        r.set(key, value);
    }
    r
}

fn named_pattern(name: &str) -> Pattern {
    match name {
        "triangle" => queries::triangle(),
        "clique4" => queries::clique(4),
        "clique5" => queries::clique(5),
        "chordal_square" => queries::chordal_square(),
        "demo" => queries::demo_pattern(),
        q => queries::by_name(q).unwrap_or_else(|| panic!("unknown query {q:?}")),
    }
}

/// `workers` machines of one lane each, with a 64 MB cache.
fn lanes(workers: usize) -> ClusterConfigBuilder {
    ClusterConfig::builder()
        .workers(workers)
        .threads_per_worker(1)
        .cache_capacity_bytes(64 << 20)
}

fn best_plan(g: &Graph, pattern: &Pattern, compressed: bool) -> benu_plan::ExecutionPlan {
    PlanBuilder::new(pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(compressed)
        .best_plan()
}

fn table1(setup: &Setup, scale: f64) -> Vec<Report> {
    let motifs = ["triangle", "clique4", "chordal_square"];
    setup
        .datasets(&Dataset::ALL)
        .into_iter()
        .map(|dataset| {
            let g = load_dataset(dataset, scale);
            let counts: Vec<u64> = motifs
                .iter()
                .map(|&m| {
                    benu_engine::count_embeddings(&best_plan(&g, &named_pattern(m), true), &g)
                })
                .collect();
            row([
                ("graph", dataset.abbrev().into()),
                ("edges", g.num_edges().into()),
                ("triangles", counts[0].into()),
                ("cliques4", counts[1].into()),
                ("chordal_squares", counts[2].into()),
                ("triangles_oracle", stats::count_triangles(&g).into()),
            ])
        })
        .collect()
}

fn table4(setup: &Setup) -> Vec<Report> {
    let measure = |case: String, patterns: &[Pattern]| {
        let n = patterns[0].num_vertices();
        let (mut alpha, mut beta, mut secs) = (0.0, 0.0, 0.0);
        for p in patterns {
            let stats = PlanBuilder::new(p).best_plan_result().stats;
            alpha += stats.alpha as f64;
            beta += stats.beta as f64;
            secs += stats.elapsed.as_secs_f64();
        }
        let k = patterns.len() as f64;
        let (alpha, beta) = (alpha / k, beta / k);
        let orders = SearchStats::beta_upper_bound(n);
        row([
            ("case", case.into()),
            ("alpha", alpha.into()),
            (
                "alpha_rel_pct",
                (100.0 * alpha / SearchStats::alpha_upper_bound(n)).into(),
            ),
            ("beta", beta.into()),
            ("orders", orders.into()),
            ("beta_rel_pct", (100.0 * beta / orders).into()),
            (&wall("search"), (secs / k).into()),
        ])
    };
    let mut rows: Vec<Report> = queries::evaluation_queries()
        .into_iter()
        .map(|(name, p)| measure(name.to_string(), &[p]))
        .collect();
    rows.extend((4..=10).map(|n| measure(format!("clique{n}"), &[queries::clique(n)])));
    for n in 4..=8 {
        // Edge counts run from a tree (n − 1) to a moderately dense graph.
        let random: Vec<Pattern> = (0..setup.random_patterns as u64)
            .map(|seed| {
                let extra = seed as usize % (n * (n - 1) / 2 - (n - 1) + 1);
                let g = gen::random_connected(n, extra, 0xE1_0001 ^ seed);
                let edges: Vec<(usize, usize)> =
                    g.edges().map(|(x, y)| (x as usize, y as usize)).collect();
                Pattern::from_edges(n, &edges)
            })
            .collect();
        rows.push(measure(
            format!("random{n} (mean of {})", random.len()),
            &random,
        ));
    }
    rows
}

fn fig7(scale: f64) -> Vec<Report> {
    let g = load_dataset(Dataset::LiveJournal, scale);
    let cluster = Cluster::new(&g, lanes(1).build());
    // Compression is off where it would hide the optimizations (as in
    // the paper); the matching order is fixed per case — the paper's
    // running order for the demo pattern, the best order otherwise — so
    // stages differ only in the rewriting applied to it.
    let cases = [("q2", false), ("q4", false), ("demo", false), ("q1", true)];
    let mut rows = Vec::new();
    for (name, compressed) in cases {
        let pattern = named_pattern(name);
        let order = if name == "demo" {
            vec![0, 2, 4, 1, 5, 3]
        } else {
            best_plan(&g, &pattern, false).matching_order
        };
        for level in OptLevel::LADDER {
            let plan = PlanBuilder::new(&pattern)
                .matching_order(order.clone())
                .optimizations(level)
                .compressed(compressed)
                .build();
            cluster.clear_caches();
            let o = cluster.run(&plan).expect("cluster run failed");
            rows.push(row([
                ("case", name.into()),
                ("compressed", compressed.into()),
                ("stage", level.label().into()),
                ("vticks", balance::vticks(&o.metrics).into()),
                ("int_executions", o.metrics.int_executions.into()),
                ("trc_executions", o.metrics.trc_executions.into()),
                ("matches", o.total_matches.into()),
                (&wall("makespan"), o.makespan().as_secs_f64().into()),
            ]));
        }
    }
    rows
}

fn fig8(scale: f64) -> Vec<Report> {
    let g = load_dataset(Dataset::Orkut, scale);
    let mut rows = Vec::new();
    for name in ["q4", "q5"] {
        let plan = best_plan(&g, &named_pattern(name), true);
        for pct in [5u64, 10, 20, 40, 60, 80, 100] {
            let capacity = g.adjacency_bytes() * pct as usize / 100;
            let config = lanes(4).cache_capacity_bytes(capacity).build();
            let o = Cluster::new(&g, config)
                .run(&plan)
                .expect("cluster run failed");
            rows.push(row([
                ("query", name.into()),
                ("capacity_pct", pct.into()),
                ("hit_rate_pct", (100.0 * o.cache_hit_rate()).into()),
                ("comm_bytes", o.communication_bytes().into()),
            ]));
        }
    }
    rows
}

/// The vticks of each of `tasks`, in order, pricing through
/// [`balance::price`] only the tasks `priced` does not hold yet. A task's
/// vticks depend on the graph, the plan and the task alone, so one map
/// per (graph, query) serves every τ: their task lists share each task
/// whose start vertex none of them splits. For the same reason the new
/// tasks are priced on every core, one engine per core.
fn price_new(
    g: &Graph,
    compiled: &CompiledPlan,
    tasks: &[SearchTask],
    priced: &mut HashMap<SearchTask, u64>,
) -> Vec<u64> {
    let new: Vec<SearchTask> = tasks
        .iter()
        .filter(|t| !priced.contains_key(t))
        .copied()
        .collect();
    // Dealt round-robin rather than cut into contiguous ranges: hubs
    // cluster in the id order, so the two halves of a Fig. 9 task list
    // differ in work by 2.5–9 ×.
    let cores = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(new.len());
    let dealt: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores)
            .map(|core| {
                let hand: Vec<SearchTask> = new.iter().skip(core).step_by(cores).copied().collect();
                scope.spawn(move || balance::price(g, compiled, &hand))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pricing thread panicked"))
            .collect()
    });
    let costs = (0..new.len()).map(|i| dealt[i % cores][i / cores]);
    priced.extend(new.iter().copied().zip(costs));
    tasks.iter().map(|t| priced[t]).collect()
}

fn fig9(scale: f64) -> Vec<Report> {
    let g = load_dataset(Dataset::Orkut, scale);
    let plan = best_plan(&g, &queries::q5(), true);
    let compiled = CompiledPlan::compile(&plan);
    let mut priced = HashMap::new();
    [0, 24, 64]
        .into_iter()
        .map(|tau| {
            let cluster = Cluster::new(&g, lanes(4).tau(tau).build());
            let o = cluster.run(&plan).expect("cluster run failed");
            let (tasks, _) = cluster.resident().tasks(&compiled, Split::Fixed(tau));
            let mut costs = price_new(&g, &compiled, &tasks, &mut priced);
            costs.sort_unstable();
            let p99 = costs[(costs.len() * 99 / 100).min(costs.len() - 1)];
            row([
                ("tau", tau.into()),
                ("hub_degree", g.max_degree().into()),
                ("tasks", o.total_tasks.into()),
                ("max_task_vticks", costs.last().copied().unwrap_or(0).into()),
                ("p99_task_vticks", p99.into()),
                ("work_imbalance", o.work_imbalance().into()),
                ("matches", o.total_matches.into()),
            ])
        })
        .collect()
}

/// BENU on a cold cluster: caches are cleared first, so a cell's
/// communication does not depend on which query ran before it.
fn benu_run(cluster: &Cluster, g: &Graph, pattern: &Pattern) -> RunOutcome {
    cluster.clear_caches();
    cluster
        .run(&best_plan(g, pattern, true))
        .expect("cluster run failed")
}

/// A baseline's verdict: finished, or which cap stopped it.
fn status(o: &BaselineOutcome) -> &'static str {
    match (o.completed, o.budget_exceeded) {
        (true, _) => "done",
        (false, true) => "work budget",
        (false, false) => "memory cap",
    }
}

fn table5(setup: &Setup, scale: f64) -> Vec<Report> {
    let mut rows = Vec::new();
    // The other three stand-ins take hours at the default scale: the
    // join runs into its cap slowly and BENU enumerates 10⁹–10¹¹ matches.
    for dataset in setup.datasets(&[Dataset::AsSkitter, Dataset::FriendSter]) {
        let g = load_dataset(dataset, scale);
        let cluster = Cluster::new(&g, lanes(4).build());
        let all = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"];
        for (name, pattern) in setup.queries(&all) {
            let benu = benu_run(&cluster, &g, &pattern);
            let config = starjoin::StarJoinConfig {
                memory_cap_bytes: setup.join_cap_bytes,
            };
            let join = starjoin::run(&g, &pattern, &config);
            rows.push(row([
                ("graph", dataset.abbrev().into()),
                ("query", name.as_str().into()),
                ("matches", benu.total_matches.into()),
                ("join", status(&join).into()),
                ("join_matches", join.matches.into()),
                ("benu_comm_bytes", benu.communication_bytes().into()),
                ("join_shuffle_bytes", join.shuffled_bytes.into()),
                (&wall("benu"), benu.makespan().as_secs_f64().into()),
                (&wall("join"), join.elapsed.as_secs_f64().into()),
            ]));
        }
    }
    rows
}

fn table6(setup: &Setup, scale: f64) -> Vec<Report> {
    let mut rows = Vec::new();
    for dataset in setup.datasets(&[Dataset::Orkut, Dataset::FriendSter]) {
        let g = load_dataset(dataset, scale);
        let cluster = Cluster::new(&g, lanes(4).build());
        for (name, pattern) in setup.queries(&["triangle", "clique4", "clique5", "q4", "q5"]) {
            let wcoj = |mode| {
                let config = wcoj::WcojConfig {
                    mode,
                    batch_size: 100_000,
                    memory_cap_bytes: setup.wcoj_cap_bytes,
                    work_budget: setup.wcoj_work_budget,
                };
                wcoj::run(&g, &pattern, &config)
            };
            let shared = wcoj(wcoj::WcojMode::SharedMemory);
            let distributed = wcoj(wcoj::WcojMode::Distributed);
            let benu = benu_run(&cluster, &g, &pattern);
            rows.push(row([
                ("graph", dataset.abbrev().into()),
                ("query", name.as_str().into()),
                ("matches", benu.total_matches.into()),
                ("wcoj_s", status(&shared).into()),
                ("wcoj_s_matches", shared.matches.into()),
                ("wcoj_d", status(&distributed).into()),
                ("wcoj_d_matches", distributed.matches.into()),
                (&wall("benu"), benu.makespan().as_secs_f64().into()),
                (&wall("wcoj_s"), shared.elapsed.as_secs_f64().into()),
                (&wall("wcoj_d"), distributed.elapsed.as_secs_f64().into()),
            ]));
        }
    }
    rows
}

/// Lanes per machine in Fig. 10's replays.
const FIG10_LANES: usize = 2;

/// Every {scheduler kind × split × placement} at 1–16 machines, the lane
/// pool replayed over per-task vticks. The workloads are q5 on ok, q5 and
/// q9 on fs, and q5 on a Barabási–Albert graph (6 edges per new vertex,
/// seed 7), whose hubs are what splitting and placement are for. The BA
/// graph has 3 125 000 × scale² vertices: 20 000 at the default × 0.08,
/// 312 at × 0.01. `--datasets` replaces ok and fs, `--queries` every
/// graph's queries. q9 on ok, the paper's fourth curve, does not finish
/// in minutes even at × 0.03: the dense graph holds ≫ 10¹⁰ of its
/// matches.
fn fig10(setup: &Setup, scale: f64) -> Vec<Report> {
    let mut graphs: Vec<(&str, Graph, &[&str])> = setup
        .datasets(&[Dataset::Orkut, Dataset::FriendSter])
        .into_iter()
        .map(|d| {
            let queries: &[&str] = if d == Dataset::FriendSter {
                &["q5", "q9"]
            } else {
                &["q5"]
            };
            (d.abbrev(), load_dataset(d, scale), queries)
        })
        .collect();
    let ba_vertices = (3_125_000.0 * scale * scale).round() as usize;
    eprintln!("[workload] ba: barabasi_albert({ba_vertices}, 6, 7)");
    graphs.push(("ba", gen::barabasi_albert(ba_vertices, 6, 7), &["q5"]));
    let mut rows = Vec::new();
    for (graph, g, queries) in &graphs {
        // Only the task list is read off this cluster.
        let probe = Cluster::new(g, lanes(1).build());
        for (query, pattern) in setup.queries(queries) {
            let plan = best_plan(g, &pattern, true);
            let compiled = CompiledPlan::compile(&plan);
            // Each split threshold's task list is priced once — only the
            // tasks no earlier threshold priced — into the per-vertex
            // profile LPT places by, and every layout of it is replayed.
            let mut priced = HashMap::new();
            let mut profiles = BTreeMap::new();
            // The paper's τ, a fine τ, and `auto_tau`.
            let splits = [("tau 500", Some(500)), ("tau 24", Some(24)), ("auto", None)];
            for ((split, fixed), lpt) in splits.into_iter().flat_map(|s| [(s, false), (s, true)]) {
                let mut base = [0; 2];
                for machines in [1usize, 2, 4, 8, 16] {
                    let lanes = machines * FIG10_LANES;
                    let split_at = fixed.map_or(Split::Auto { lanes }, Split::Fixed);
                    let (tasks, tau) = probe.resident().tasks(&compiled, split_at);
                    let profile = profiles.entry(tau).or_insert_with(|| {
                        let costs = price_new(g, &compiled, &tasks, &mut priced);
                        CostProfile::from_task_costs(
                            g.num_vertices(),
                            tasks.iter().copied().zip(costs),
                        )
                    });
                    let n = tasks.len();
                    let profile = lpt.then_some(&*profile);
                    let layout = Layout::new(tasks, machines, FIG10_LANES, ExecMode::Dfs, profile);
                    let chunks = layout.replay_chunks(|t| priced[t]);
                    for (k, kind) in [SchedulerKind::Static, SchedulerKind::WorkStealing]
                        .into_iter()
                        .enumerate()
                    {
                        let r = pool::replay(&chunks, machines, FIG10_LANES, kind, None);
                        if machines == 1 {
                            base[k] = r.makespan;
                        }
                        let speedup = base[k] as f64 / r.makespan.max(1) as f64;
                        rows.push(row([
                            ("graph", (*graph).into()),
                            ("query", query.as_str().into()),
                            ("kind", kind.name().into()),
                            ("split", split.into()),
                            ("placement", if lpt { "lpt" } else { "round-robin" }.into()),
                            ("machines", machines.into()),
                            ("tau", tau.into()),
                            ("tasks", n.into()),
                            ("makespan_vticks", r.makespan.into()),
                            ("speedup", speedup.into()),
                            ("steals", r.steals.into()),
                            ("imbalance", r.imbalance.into()),
                        ]));
                    }
                }
            }
        }
    }
    rows
}

/// DFS once per store codec, then hybrid execution at budgets from one
/// that must spill to unbounded (0), all over the raw codec.
const BUDGET_ARMS: [(&str, CodecKind, ExecMode, usize); 6] = [
    ("dfs", CodecKind::RawU32, ExecMode::Dfs, 0),
    ("dfs", CodecKind::DeltaVarint, ExecMode::Dfs, 0),
    ("hybrid 4 KB", CodecKind::RawU32, ExecMode::Hybrid, 4 << 10),
    (
        "hybrid 64 KB",
        CodecKind::RawU32,
        ExecMode::Hybrid,
        64 << 10,
    ),
    ("hybrid 1 MB", CodecKind::RawU32, ExecMode::Hybrid, 1 << 20),
    ("hybrid unbounded", CodecKind::RawU32, ExecMode::Hybrid, 0),
];

fn budget(scale: f64) -> Vec<Report> {
    let g = load_dataset(Dataset::Orkut, scale);
    let mut rows = Vec::new();
    for name in ["q5", "clique4"] {
        let plan = best_plan(&g, &named_pattern(name), false);
        for (arm, codec, mode, budget) in BUDGET_ARMS {
            // A fresh cluster with no database cache: every adjacency read
            // is a store round trip, so batching shows in the count.
            let config = lanes(4)
                .cache_capacity_bytes(0)
                .tau(32)
                .codec(codec)
                .exec_mode(mode)
                .memory_budget_bytes(budget)
                .build();
            let o = Cluster::new(&g, config)
                .run(&plan)
                .expect("a tight budget spills, it does not fail");
            rows.push(row([
                ("query", name.into()),
                ("arm", arm.into()),
                ("codec", codec.name().into()),
                ("matches", o.total_matches.into()),
                ("round_trips", o.kv.requests.into()),
                ("store_bytes", o.kv.bytes.into()),
                ("expansions", o.frontier.expansions.into()),
                ("spills", o.frontier.spill_events.into()),
                ("peak_frontier_bytes", o.frontier.peak_bytes.into()),
            ]));
        }
    }
    rows
}

/// A fingerprint of a report, equal for equal reports.
fn digest(report: &Report) -> String {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    Value::Tree(report.clone()).render_json().hash(&mut hasher);
    format!("{:016x}", hasher.finish())
}

fn faults(scale: f64) -> Vec<Report> {
    let g = load_dataset(Dataset::AsSkitter, scale);
    let plan = best_plan(&g, &queries::q3(), true);
    let run = |replication: usize, faults: Option<FaultPlan>| {
        let mut cluster = Cluster::new(&g, lanes(4).replication(replication).build());
        cluster.set_fault_plan(faults);
        cluster.run(&plan).expect("every fault here is survivable")
    };
    let mut rows = Vec::new();
    // Every rate also crashes worker 1 after its fifth task.
    for rate in [0.0, 0.001, 0.01, 0.05] {
        let faults = FaultPlan::builder(0).transient_rate(rate).crash(1, 5);
        let o = run(1, Some(faults.build()));
        rows.push(row([
            ("fault_rate_pct", (100.0 * rate).into()),
            ("matches", o.total_matches.into()),
            ("faults", o.recovery.transient_faults.into()),
            ("retries", o.recovery.retries.into()),
            ("crashes", o.recovery.worker_crashes.into()),
            ("requeued", o.recovery.tasks_requeued.into()),
        ]));
    }
    // Whole shards dark from the first pass under two copies of every
    // value; shards 0 and 2 share no placement group.
    for dark in [&[][..], &[0], &[0, 2]] {
        let faults = dark
            .iter()
            .fold(FaultPlan::builder(0), |f, &shard| f.shard_outage(shard, 1));
        let o = run(2, Some(faults.build()));
        let label: Vec<String> = dark.iter().map(usize::to_string).collect();
        rows.push(row([
            ("replication", 2usize.into()),
            ("dark_shards", label.join("+").into()),
            ("matches", o.total_matches.into()),
            ("failover_reads", o.recovery.failover_reads.into()),
            ("retries", o.recovery.retries.into()),
        ]));
    }
    // A fault-free run, where every field of the report replays, twice
    // on fresh clusters.
    for replay in [1usize, 2] {
        let o = run(1, None);
        let report = o.report(ReportMode::Deterministic);
        rows.push(row([
            ("replay", replay.into()),
            ("matches", o.total_matches.into()),
            ("report_digest", digest(&report).into()),
        ]));
    }
    rows
}

/// `max(estimate / truth, truth / estimate)`, both floored away from
/// zero: 1 is exact.
fn q_error(estimate: f64, truth: f64) -> f64 {
    let (e, t) = (estimate.max(1e-9), truth.max(1e-9));
    (e / t).max(t / e)
}

fn estimators(setup: &Setup, scale: f64) -> Vec<Report> {
    let mut rows = Vec::new();
    let all = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"];
    let sweep = [
        Dataset::AsSkitter,
        Dataset::LiveJournal,
        Dataset::FriendSter,
    ];
    for dataset in setup.datasets(&sweep) {
        let g = load_dataset(dataset, scale);
        let er = GraphStatsEstimator::new(g.num_vertices(), g.num_edges());
        let cl = ChungLuEstimator::from_graph(&g);
        let cluster = Cluster::new(&g, lanes(4).build());
        for (name, pattern) in setup.queries(&all) {
            // Uncompressed: a compressed plan drops the last enumeration
            // levels, and with them the slots the feedback model reads.
            let plan = best_plan(&g, &pattern, false);
            let o = cluster.run(&plan).expect("cluster run failed");
            let fb = FeedbackEstimator::new(cl.clone(), &plan, &o.metrics.obs);
            // Ordered maps, as the models count them.
            let truth = o.total_matches * automorphism_count(&pattern) as u64;
            let everything = (1u64 << pattern.num_vertices()) - 1;
            let q = |model: &dyn CardinalityEstimator| {
                q_error(
                    model.estimate_pattern_subset(&pattern, everything),
                    truth as f64,
                )
            };
            rows.push(row([
                ("graph", dataset.abbrev().into()),
                ("query", name.as_str().into()),
                ("ordered_matches", truth.into()),
                ("er_q_error", q(&er).into()),
                ("cl_q_error", q(&cl).into()),
                ("fb_q_error", q(&fb).into()),
            ]));
        }
    }
    rows
}

fn num(r: &Report, key: &str) -> f64 {
    r.get_f64(key)
        .unwrap_or_else(|| panic!("row has no number {key:?}"))
}

fn text<'a>(r: &'a Report, key: &str) -> &'a str {
    match r.get(key) {
        Some(Value::Str(s)) => s,
        _ => panic!("row has no text {key:?}"),
    }
}

/// The rows of `t` that have `key` set to `value`.
fn rows_where<'a>(t: &'a Table, key: &str, value: &str) -> Vec<&'a Report> {
    select(
        t,
        |r| matches!(r.get(key), Some(Value::Str(s)) if s == value),
    )
}

/// The row of `rows` that has `key` set to `value`.
fn only<'a>(rows: &[&'a Report], key: &str, value: &str) -> &'a Report {
    let found = rows.iter().find(|r| text(r, key) == value);
    found.unwrap_or_else(|| panic!("no row with {key} {value:?}"))
}

fn select(t: &Table, keep: impl Fn(&Report) -> bool) -> Vec<&Report> {
    t.rows.iter().filter(|r| keep(r)).collect()
}

fn claim(name: impl Into<String>, holds: bool, evidence: impl Into<String>) -> Claim {
    Claim {
        name: name.into(),
        holds,
        gated: true,
        evidence: evidence.into(),
    }
}

/// A claim judged on every group of `rows` that agree on `keys`: it holds
/// when `judge` says so for each group, and the evidence lists each
/// group's values.
fn per_group(
    rows: &[&Report],
    keys: &[&str],
    name: &str,
    judge: impl Fn(&[&Report]) -> (bool, String),
) -> Claim {
    let mut groups: Vec<(String, Vec<&Report>)> = Vec::new();
    for &r in rows {
        let label: Vec<String> = keys.iter().map(|k| cell(r.get(k).expect(k))).collect();
        let label = label.join(" ");
        match groups.iter_mut().find(|(l, _)| *l == label) {
            Some((_, group)) => group.push(r),
            None => groups.push((label, vec![r])),
        }
    }
    let (mut holds, mut evidence) = (true, Vec::new());
    for (label, group) in &groups {
        let (ok, values) = judge(group);
        holds &= ok;
        evidence.push(format!("{label}: {values}"));
    }
    claim(name, holds, evidence.join("; "))
}

fn series(rows: &[&Report], key: &str) -> Vec<f64> {
    rows.iter().map(|r| num(r, key)).collect()
}

fn shown(values: &[f64]) -> String {
    let values: Vec<String> = values
        .iter()
        .map(|v| cell(&Value::Float(*v)).trim_end_matches(".000").to_string())
        .collect();
    values.join(" → ")
}

fn never_rises(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] <= w[0])
}

fn never_falls(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] >= w[0])
}

/// The paper's claims about `t`, as predicates on its rows.
pub fn claims(t: &Table) -> Vec<Claim> {
    let all: Vec<&Report> = t.rows.iter().collect();
    match t.experiment {
        Experiment::Table1 => vec![
            per_group(
                &all,
                &["graph"],
                "the triangle column equals stats::count_triangles",
                |r| {
                    let (a, b) = (num(r[0], "triangles"), num(r[0], "triangles_oracle"));
                    (a == b, shown(&[a, b]))
                },
            ),
            // Not gated: the sparse as, lj and fs stand-ins hold fewer
            // 4-cliques than edges at every scale recorded (0.03 and 0.2).
            Claim {
                gated: false,
                ..per_group(&all, &["graph"], "every motif count exceeds |E|", |r| {
                    let counts = ["triangles", "cliques4", "chordal_squares"].map(|k| num(r[0], k));
                    let (min, edges) = (
                        counts.into_iter().fold(f64::INFINITY, f64::min),
                        num(r[0], "edges"),
                    );
                    (min > edges, format!("min motif {min} vs |E| {edges}"))
                })
            },
        ],
        Experiment::Table4 => {
            let case = |c: &str| rows_where(t, "case", c)[0];
            let rel: Vec<String> = ["clique4", "clique5", "clique6"]
                .map(|c| format!("{:.2}", num(case(c), "beta_rel_pct")))
                .to_vec();
            let q5 = (num(case("q5"), "beta"), num(case("q5"), "orders"));
            let others = ["q1", "q2", "q3", "q4", "q6", "q7", "q8", "q9"]
                .map(|q| num(case(q), "beta_rel_pct"));
            let worst = others.into_iter().fold(0.0, f64::max);
            vec![
                claim(
                    "clique 4/5/6 relative β is 4.17 / 0.83 / 0.14 %",
                    rel == ["4.17", "0.83", "0.14"],
                    rel.join(" / "),
                ),
                claim(
                    "q5 keeps 40 of its 120 orders",
                    q5 == (40.0, 120.0),
                    format!("{} of {}", q5.0, q5.1),
                ),
                claim(
                    "every other query keeps at most 13.3 % of its orders",
                    worst <= 13.3,
                    format!("largest {worst:.2} %"),
                ),
            ]
        }
        Experiment::Fig7 => {
            let vticks = |c: &str| series(&rows_where(t, "case", c), "vticks");
            let (q4, demo) = (vticks("q4"), vticks("demo"));
            vec![
                per_group(&all, &["case"], "no stage changes the match count", |r| {
                    let m = series(r, "matches");
                    (m.iter().all(|&x| x == m[0]), shown(&m[..1]))
                }),
                per_group(
                    &all,
                    &["case"],
                    "vticks never rise along raw → +opt1 → +opt2 → +opt3",
                    |r| {
                        let v = series(r, "vticks");
                        (never_rises(&v), shown(&v))
                    },
                ),
                claim("+opt1 cuts q4's vticks", q4[1] < q4[0], shown(&q4[..2])),
                claim(
                    "+opt2 cuts the running example's vticks",
                    demo[2] < demo[1],
                    shown(&demo[1..3]),
                ),
                per_group(
                    &all,
                    &["case"],
                    "+opt3 turns INTs into TRCs one for one",
                    |r| {
                        let (int, trc) = (series(r, "int_executions"), series(r, "trc_executions"));
                        (
                            trc[3] > 0.0 && trc[2] == 0.0 && int[2] - int[3] == trc[3],
                            format!("INT {} → {}, TRC {}", int[2], int[3], trc[3]),
                        )
                    },
                ),
            ]
        }
        Experiment::Fig8 => {
            let from_40 = select(t, |r| num(r, "capacity_pct") >= 40.0);
            vec![
                per_group(
                    &all,
                    &["query"],
                    "the hit rate never falls as capacity grows",
                    |r| {
                        let h = series(r, "hit_rate_pct");
                        (never_falls(&h), shown(&h))
                    },
                ),
                per_group(
                    &all,
                    &["query"],
                    "communication never rises as capacity grows",
                    |r| {
                        let c = series(r, "comm_bytes");
                        (never_rises(&c), shown(&c))
                    },
                ),
                per_group(
                    &all,
                    &["query"],
                    "the largest cache hits more and sends less than the smallest",
                    |r| {
                        let (h, c) = (series(r, "hit_rate_pct"), series(r, "comm_bytes"));
                        let (hit, comm) = ([h[0], h[h.len() - 1]], [c[0], c[c.len() - 1]]);
                        (
                            hit[1] > hit[0] && comm[1] < comm[0],
                            format!("hit {}, comm {}", shown(&hit), shown(&comm)),
                        )
                    },
                ),
                per_group(
                    &from_40,
                    &["capacity_pct"],
                    "q4's hit rate beats q5's from 40 % capacity on",
                    |r| {
                        let h = series(r, "hit_rate_pct");
                        (h[0] > h[1], format!("{:.2} vs {:.2}", h[0], h[1]))
                    },
                ),
            ]
        }
        Experiment::Fig9 => {
            let (off, split) = (t.rows[0].clone(), &t.rows[1..]);
            let hub = num(&off, "hub_degree");
            let finest = split
                .iter()
                .map(|r| (num(r, "tau"), num(r, "max_task_vticks")));
            let finest = finest
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("a split variant");
            let below = select(t, |r| num(r, "tau") > 0.0 && num(r, "tau") < hub);
            vec![
                per_group(
                    &all,
                    &["tau"],
                    "splitting never changes the match count",
                    |r| {
                        (
                            num(r[0], "matches") == num(&off, "matches"),
                            shown(&[num(r[0], "matches")]),
                        )
                    },
                ),
                per_group(
                    &below,
                    &["tau"],
                    "every τ below the hub degree adds tasks and none enlarges the largest task",
                    |r| {
                        let (tasks, max) = (num(r[0], "tasks"), num(r[0], "max_task_vticks"));
                        (
                            tasks > num(&off, "tasks") && max <= num(&off, "max_task_vticks"),
                            format!(
                                "{tasks} tasks, max {max} (off: {}, {})",
                                num(&off, "tasks"),
                                num(&off, "max_task_vticks")
                            ),
                        )
                    },
                ),
                claim(
                    "the finest τ shrinks the largest task",
                    finest.1 < num(&off, "max_task_vticks"),
                    shown(&[num(&off, "max_task_vticks"), finest.1]),
                ),
            ]
        }
        Experiment::Table5 => {
            let cell = ["graph", "query"];
            let done = select(t, |r| text(r, "join") == "done");
            let capped = select(t, |r| matches!(text(r, "query"), "q3" | "q6" | "q7" | "q9"));
            vec![
                per_group(
                    &done,
                    &cell,
                    "BENU and the join agree wherever the join finishes",
                    |r| {
                        let m = series(r, "matches");
                        (m == series(r, "join_matches"), shown(&m))
                    },
                ),
                per_group(
                    &done,
                    &cell,
                    "BENU's cold comm is ≥ 100× below the join's shuffle where it finishes",
                    |r| {
                        let (benu, join) = (
                            num(r[0], "benu_comm_bytes"),
                            num(r[0], "join_shuffle_bytes"),
                        );
                        (100.0 * benu <= join, format!("{benu} vs {join}"))
                    },
                ),
                per_group(
                    &capped,
                    &cell,
                    "the join hits its memory cap on q3, q6, q7 and q9",
                    |r| {
                        (
                            text(r[0], "join") == "memory cap",
                            text(r[0], "join").to_string(),
                        )
                    },
                ),
            ]
        }
        Experiment::Table6 => {
            let cell = ["graph", "query"];
            let modes = |r: &Report| format!("S {} / D {}", text(r, "wcoj_s"), text(r, "wcoj_d"));
            let dense = select(t, |r| {
                text(r, "graph") == "ok" && matches!(text(r, "query"), "q4" | "q5")
            });
            let fs = rows_where(t, "graph", "fs");
            vec![
                per_group(
                    &all,
                    &cell,
                    "both WCOJ modes agree with BENU wherever they finish",
                    |r| {
                        let agree = |m: &str| {
                            text(r[0], m) != "done"
                                || num(r[0], &format!("{m}_matches")) == num(r[0], "matches")
                        };
                        (agree("wcoj_s") && agree("wcoj_d"), modes(r[0]))
                    },
                ),
                per_group(
                    &dense,
                    &cell,
                    "on ok q4 / q5 WCOJ(S) exceeds its memory cap and WCOJ(D) its work budget",
                    |r| {
                        (
                            text(r[0], "wcoj_s") == "memory cap"
                                && text(r[0], "wcoj_d") == "work budget",
                            modes(r[0]),
                        )
                    },
                ),
                per_group(
                    &fs,
                    &cell,
                    "both WCOJ modes finish every pattern on fs",
                    |r| {
                        (
                            text(r[0], "wcoj_s") == "done" && text(r[0], "wcoj_d") == "done",
                            modes(r[0]),
                        )
                    },
                ),
            ]
        }
        Experiment::Fig10 => {
            let spread = select(t, |r| num(r, "machines") >= 2.0);
            vec![
                per_group(
                    &all,
                    &["graph", "query", "kind", "split", "placement"],
                    "the replayed speedup never falls as machines are added",
                    |r| {
                        let s = series(r, "speedup");
                        (never_falls(&s), shown(&s))
                    },
                ),
                per_group(
                    &spread,
                    &["graph", "query", "kind", "split", "machines"],
                    "with ≥ 2 machines LPT placement's makespan is ≤ round-robin's under the same split",
                    |r| {
                        let makespan = |p| num(only(r, "placement", p), "makespan_vticks");
                        let (rr, lpt) = (makespan("round-robin"), makespan("lpt"));
                        (lpt <= rr, shown(&[rr, lpt]))
                    },
                ),
                per_group(
                    &all,
                    &["graph", "query", "split", "placement", "machines"],
                    "work stealing's makespan is ≤ static's under the same split and placement",
                    |r| {
                        let makespan = |k| num(only(r, "kind", k), "makespan_vticks");
                        let (fixed, stealing) = (makespan("static"), makespan("work-stealing"));
                        (stealing <= fixed, shown(&[fixed, stealing]))
                    },
                ),
            ]
        }
        Experiment::Budget => {
            let (dfs, hybrid) = (
                rows_where(t, "arm", "dfs"),
                select(t, |r| text(r, "arm") != "dfs"),
            );
            vec![
                per_group(&all, &["query"], "every arm counts what DFS counts", |r| {
                    let m = series(r, "matches");
                    (m.iter().all(|&x| x == m[0]), shown(&m[..1]))
                }),
                per_group(
                    &hybrid,
                    &["query"],
                    "round trips never rise as the budget grows",
                    |r| {
                        let trips = series(r, "round_trips");
                        (never_rises(&trips), shown(&trips))
                    },
                ),
                per_group(
                    &hybrid,
                    &["query"],
                    "the 4 KB budget spills and the unbounded one does not",
                    |r| {
                        let (tight, free) = (
                            num(only(r, "arm", "hybrid 4 KB"), "spills"),
                            num(only(r, "arm", "hybrid unbounded"), "spills"),
                        );
                        (tight > 0.0 && free == 0.0, shown(&[tight, free]))
                    },
                ),
                per_group(
                    &all,
                    &["query"],
                    "unbounded hybrid cuts DFS's round trips ≥ 100×",
                    |r| {
                        // A group's first row is DFS over the raw codec.
                        let (dfs, hybrid) = (
                            num(r[0], "round_trips"),
                            num(only(r, "arm", "hybrid unbounded"), "round_trips"),
                        );
                        (100.0 * hybrid <= dfs, shown(&[dfs, hybrid]))
                    },
                ),
                per_group(
                    &dfs,
                    &["query"],
                    "DFS store bytes under delta-varint are ≤ 0.3 × raw",
                    |r| {
                        let bytes = |codec| num(only(r, "codec", codec), "store_bytes");
                        let share = bytes("delta-varint") / bytes("raw-u32");
                        (share <= 0.3, format!("{share:.3}"))
                    },
                ),
            ]
        }
        Experiment::Faults => {
            let rates = select(t, |r| r.get("fault_rate_pct").is_some());
            let faulted = select(t, |r| r.get_f64("fault_rate_pct").is_some_and(|p| p > 0.0));
            let dark = select(
                t,
                |r| matches!(r.get("dark_shards"), Some(Value::Str(s)) if !s.is_empty()),
            );
            let digests = select(t, |r| r.get("replay").is_some())
                .into_iter()
                .map(|r| text(r, "report_digest"))
                .collect::<Vec<_>>();
            let matches = series(&all, "matches");
            vec![
                claim(
                    "no fault, crash or dark shard changes the count",
                    matches.iter().all(|&m| m == matches[0]),
                    shown(&matches),
                ),
                per_group(
                    &faulted,
                    &["fault_rate_pct"],
                    "every non-zero rate injects a fault",
                    |r| {
                        let f = num(r[0], "faults");
                        (f >= 1.0, shown(&[f]))
                    },
                ),
                per_group(
                    &rates,
                    &["fault_rate_pct"],
                    "worker 1 crashes once and its tasks are requeued",
                    |r| {
                        let (crashes, requeued) = (num(r[0], "crashes"), num(r[0], "requeued"));
                        (
                            crashes == 1.0 && requeued > 0.0,
                            format!("{crashes} crash, {requeued} requeued"),
                        )
                    },
                ),
                claim(
                    "a fault-free run's deterministic report replays byte-identically",
                    digests[0] == digests[1],
                    digests.join(" vs "),
                ),
                per_group(
                    &dark,
                    &["dark_shards"],
                    "with two copies, dark shards' reads fail over without a retry",
                    |r| {
                        let (reads, retries) = (num(r[0], "failover_reads"), num(r[0], "retries"));
                        (
                            reads > 0.0 && retries == 0.0,
                            format!("{reads} failover reads, {retries} retries"),
                        )
                    },
                ),
            ]
        }
        Experiment::Estimators => {
            let mean = |key| {
                let q = series(&all, key);
                q.iter().sum::<f64>() / q.len().max(1) as f64
            };
            let (fb, cl, er) = (mean("fb_q_error"), mean("cl_q_error"), mean("er_q_error"));
            vec![claim(
                "mean q-error: feedback < Chung-Lu < Erdős–Rényi",
                fb < cl && cl < er,
                format!("{fb:.2} < {cl:.2} < {er:.2}"),
            )]
        }
    }
}
