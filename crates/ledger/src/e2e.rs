//! The untraced pass: what a user of the system sees.
//!
//! Calls only `PlanBuilder`, `CompiledPlan::compile` (for `plan_sweep`,
//! whose operation is "plan and compile"), `Cluster::{new, run,
//! run_collect, clear_caches}` and `QueryService::{new, submit, wait}`,
//! and sets only the configuration fields a workload names.
//!
//! Every workload reports the same four metrics:
//!
//! * `setup_s` — median over [`SETUPS`] repetitions of building the
//!   inputs, loading them into the program and one warm-up repetition;
//! * `op_p05_ms` — wall-clock of one operation, 5th percentile of the
//!   measured repetitions: one plan + run (batch), one sweep over the
//!   pattern set, or one query of a solo-phase block (the block's
//!   wall-clock over its 20 queries — blocks are the same work, queries
//!   are not);
//! * `work_per_s` — work completed per second: matches (batch) or
//!   patterns planned and compiled over `op_p05_ms`, or loaded-phase
//!   queries over the loaded phase's wall-clock;
//! * `peak_heap_mb` — high-water mark of live heap bytes while
//!   measuring.
//!
//! Why the 5th percentile and not the median is in the crate's
//! README.md (*Noise*); the repetitions' minimum, quartiles and median
//! are kept in the JSON report.

use crate::inputs::{
    self, Batch, PlanSweep, RunParams, ServeMix, ServeQuery, SERVE_BLOCK, THREADS,
};
use crate::{alloc, fast, ratio, PassResult};
use benu_cluster::{Cluster, ClusterConfig};
use benu_engine::CompiledPlan;
use benu_graph::gen::{chung_lu_power_law, PowerLawConfig};
use benu_graph::Graph;
use benu_pattern::Pattern;
use benu_plan::PlanBuilder;
use benu_service::{QueryOptions, QueryResult, QueryService, ResultMode, ServiceConfig, Terminal};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Fewest measured repetitions a time-boxed run accepts.
const MIN_REPS: usize = 3;
/// `serve_mix` blocks per client and phase for each second of
/// `--seconds`.
const SERVE_BLOCKS_PER_SECOND: f64 = 3.2;

/// Runs `workload` untraced.
pub fn run(workload: &str, p: &RunParams) -> PassResult {
    match (workload, Batch::by_name(workload)) {
        (_, Some(spec)) => batch(spec, p),
        ("plan_sweep", _) => plan_sweep(p),
        ("serve_mix", _) => serve_mix(p),
        _ => panic!("unknown workload '{workload}'"),
    }
}

/// Runs `setup` [`SETUPS`] times, dropping each product before building
/// the next, and returns the last product with every duration.
fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUPS);
    let mut product = None;
    for _ in 0..SETUPS {
        drop(product.take());
        let t = Instant::now();
        product = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    (product.expect("SETUPS >= 1"), samples)
}

/// Repeats `op` for `--seconds` and returns each repetition's
/// wall-clock in milliseconds.
fn measure(p: &RunParams, mut op: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut op_ms = Vec::new();
    while op_ms.len() < MIN_REPS || started.elapsed().as_secs_f64() < p.seconds {
        let t = Instant::now();
        op();
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    op_ms
}

/// `op_ms` holds one operation time per repetition.
fn report(out: &mut PassResult, setups: &[f64], op_ms: &[f64], work_per_s: f64, peak_bytes: u64) {
    out.put_median("setup_s", setups, "s");
    out.put_fast("op_p05_ms", op_ms, "ms");
    out.put("work_per_s", work_per_s, "1/s");
    out.put("peak_heap_mb", peak_bytes as f64 / 1e6, "MB");
}

/// One batch operation: plan, then run on the cluster. Returns the match
/// count, or why the operation failed.
fn batch_op(spec: &Batch, pattern: &Pattern, g: &Graph, cluster: &Cluster) -> Result<u64, String> {
    let plan = PlanBuilder::new(pattern)
        .graph_stats(g.num_vertices(), g.num_edges())
        .compressed(spec.collect_compressed)
        .best_plan();
    if spec.collect_compressed {
        let (outcome, matches) = cluster.run_collect(&plan).map_err(|e| e.to_string())?;
        if matches.len() as u64 != outcome.total_matches {
            return Err(format!(
                "{} embeddings materialised for {} counted",
                matches.len(),
                outcome.total_matches
            ));
        }
        Ok(outcome.total_matches)
    } else {
        cluster
            .run(&plan)
            .map(|o| o.total_matches)
            .map_err(|e| e.to_string())
    }
}

/// The expected match count of `spec` on `g`: the closed-form oracle,
/// which on the preset itself must also equal the pinned count.
pub fn expected_matches(spec: &Batch, g: &Graph, p: &RunParams, out: &mut PassResult) -> u64 {
    let expected = (spec.oracle)(g);
    if p.seed == 0 && p.size_factor == 1.0 {
        out.check(expected == spec.pinned, || {
            format!(
                "{}: the oracle counts {expected}, the pinned count is {}",
                spec.name, spec.pinned
            )
        });
    }
    expected
}

fn batch(spec: &Batch, p: &RunParams) -> PassResult {
    let mut out = PassResult::default();
    let pattern = (spec.pattern)();
    let graph_config = spec.graph_config(p);
    let ((g, cluster, warm), setups) = repeat_setup(|| {
        let g = chung_lu_power_law(graph_config);
        let cluster = Cluster::new(&g, spec.cluster_config(&g, spec.threads));
        let warm = batch_op(spec, &pattern, &g, &cluster);
        (g, cluster, warm)
    });
    let expected = expected_matches(spec, &g, p, &mut out);
    out.matches = expected;
    let mut check = |got: Result<u64, String>| {
        out.check(got == Ok(expected), || {
            format!("{}: run returned {got:?}, expected {expected}", spec.name)
        });
    };
    check(warm);

    alloc::reset_peak();
    let op_ms = measure(p, || {
        if spec.cold.is_some() {
            cluster.clear_caches();
        }
        check(batch_op(spec, &pattern, &g, &cluster));
    });
    let peak = alloc::peak_bytes();
    let op_s = fast(&op_ms) / 1e3;
    report(
        &mut out,
        &setups,
        &op_ms,
        ratio(expected as f64, op_s),
        peak,
    );
    out
}

/// One sweep: best plan, then compile, for every pattern. Returns
/// whether every plan validated and kept its pattern's vertex count.
fn sweep_op(sweep: &PlanSweep) -> bool {
    let mut ok = true;
    for pattern in &sweep.patterns {
        let plan = PlanBuilder::new(pattern)
            .graph_stats(sweep.graph_vertices, sweep.graph_edges)
            .best_plan();
        let compiled = CompiledPlan::compile(&plan);
        ok &= plan.validate().is_ok() && compiled.num_pattern_vertices == pattern.num_vertices();
        std::hint::black_box(&compiled);
    }
    ok
}

fn plan_sweep(p: &RunParams) -> PassResult {
    let mut out = PassResult::default();
    let ((sweep, warm), setups) = repeat_setup(|| {
        let sweep = inputs::plan_sweep(p);
        let warm = sweep_op(&sweep);
        (sweep, warm)
    });
    let mut check = |ok: bool| out.check(ok, || "plan_sweep: a pattern got an invalid plan".into());
    check(warm);

    alloc::reset_peak();
    let op_ms = measure(p, || check(sweep_op(&sweep)));
    let peak = alloc::peak_bytes();
    let op_s = fast(&op_ms) / 1e3;
    let patterns = sweep.patterns.len() as f64;
    report(&mut out, &setups, &op_ms, ratio(patterns, op_s), peak);
    out
}

/// Ground truth for `serve_mix` on `g`: one solo `Cluster::run` per query
/// class, which must agree with the closed-form count (and on the preset
/// itself with the pinned one).
pub fn serve_expected(g: &Graph, p: &RunParams, out: &mut PassResult) -> [u64; 5] {
    let config = ClusterConfig::builder()
        .workers(1)
        .threads_per_worker(THREADS)
        .build();
    let cluster = Cluster::new(g, config);
    let counts = inputs::serve_counts(g);
    if p.seed == 0 && p.size_factor == 1.0 {
        out.check(counts == inputs::SERVE_PINNED, || {
            format!(
                "serve_mix: the oracles count {counts:?}, the pinned counts are {:?}",
                inputs::SERVE_PINNED
            )
        });
    }
    for ((name, pattern), &count) in inputs::serve_patterns().iter().zip(&counts) {
        let solo = cluster
            .run(&PlanBuilder::new(pattern).best_plan())
            .map(|o| o.total_matches)
            .map_err(|e| e.to_string());
        out.check(solo == Ok(count), || {
            format!("serve_mix: a solo run of {name} returned {solo:?}, expected {count}")
        });
    }
    counts
}

/// What one client observed for one query.
pub struct Observed<'a> {
    pub query: &'a ServeQuery,
    /// Time inside `submit`.
    pub submit: Duration,
    /// `submit` → `wait` return.
    pub latency: Duration,
    pub result: &'a QueryResult,
}

/// What one closed-loop client did.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub failed: u64,
    /// Every query's client-observed latency, in order.
    pub latency_ms: Vec<f64>,
    /// Wall-clock of each block of [`SERVE_BLOCK`] queries.
    pub block_s: Vec<f64>,
}

/// One closed-loop client: serves `blocks` blocks of `mix`, submitting
/// each query only after the previous one returned. `seen` observes
/// every query.
pub fn serve_client(
    service: &QueryService,
    expected: &[u64; 5],
    mix: &mut ServeMix,
    blocks: usize,
    mut seen: impl FnMut(Observed<'_>),
) -> ClientRun {
    let mut run = ClientRun::default();
    for _ in 0..blocks {
        let block_started = Instant::now();
        for query in mix.take(SERVE_BLOCK) {
            let mode = if query.collect {
                ResultMode::Collect
            } else {
                ResultMode::CountOnly
            };
            let t = Instant::now();
            let id = service.submit(&query.pattern, QueryOptions::new().mode(mode));
            let submit = t.elapsed();
            let result = service.wait(id);
            let latency = t.elapsed();
            run.latency_ms.push(latency.as_secs_f64() * 1e3);
            let ok = result.terminal == Terminal::Completed
                && result.matches_found == expected[query.class]
                && (!query.collect || result.matches.len() as u64 == result.matches_found);
            if !ok {
                run.failed += 1;
                eprintln!(
                    "[ledger] CHECK FAILED: serve_mix class {} settled {:?} with {} matches \
                     ({} materialised), expected {}",
                    query.class,
                    result.terminal,
                    result.matches_found,
                    result.matches.len(),
                    expected[query.class]
                );
            }
            seen(Observed {
                query: &query,
                submit,
                latency,
                result: &result,
            });
        }
        run.block_s.push(block_started.elapsed().as_secs_f64());
    }
    run
}

/// Loads the service and serves one warm-up block (observed by `seen`),
/// after which every class's plan is cached.
pub fn serve_setup(
    graph_config: PowerLawConfig,
    p: &RunParams,
    expected: &[u64; 5],
    seen: impl FnMut(Observed<'_>),
) -> (QueryService, ClientRun) {
    let g = chung_lu_power_law(graph_config);
    let service = QueryService::new(&g, ServiceConfig::builder().workers(THREADS).build());
    let warm = serve_client(&service, expected, &mut ServeMix::new(p.seed, 0), 1, seen);
    (service, warm)
}

/// Blocks each client serves in each phase. Fixed by `--seconds` rather
/// than by a deadline: the service keeps every result it ever produced,
/// so `peak_heap_mb` is only comparable between runs that served the
/// same queries. At the commit that added the benchmark the solo phase
/// takes about a third of `--seconds` and the loaded phase two thirds.
pub fn serve_blocks_per_client(p: &RunParams) -> usize {
    ((p.seconds * SERVE_BLOCKS_PER_SECOND).ceil() as usize).max(1)
}

/// The loaded phase: [`THREADS`] clients in closed loops. `seen` is
/// called with the client index for every query. Returns what each
/// client did and the phase's wall-clock in seconds.
pub fn serve_loaded(
    service: &QueryService,
    expected: &[u64; 5],
    p: &RunParams,
    seen: impl Fn(usize, Observed<'_>) + Sync,
) -> (Vec<ClientRun>, f64) {
    let blocks = serve_blocks_per_client(p);
    let started = Instant::now();
    let clients = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|c| {
                let seen = &seen;
                scope.spawn(move || {
                    let mut mix = ServeMix::new(p.seed, 2 + c as u64);
                    serve_client(service, expected, &mut mix, blocks, |o| seen(c, o))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("serve_mix client panicked"))
            .collect()
    });
    (clients, started.elapsed().as_secs_f64())
}

/// Mean client-observed time per query of each block.
fn block_query_ms(run: &ClientRun) -> Vec<f64> {
    run.block_s
        .iter()
        .map(|s| s * 1e3 / SERVE_BLOCK as f64)
        .collect()
}

fn serve_mix(p: &RunParams) -> PassResult {
    let mut out = PassResult::default();
    let graph_config = inputs::serve_graph_config(p);
    let expected = serve_expected(&chung_lu_power_law(graph_config), p, &mut out);
    let ((service, warm), setups) =
        repeat_setup(|| serve_setup(graph_config, p, &expected, |_| {}));

    alloc::reset_peak();
    let solo = serve_client(
        &service,
        &expected,
        &mut ServeMix::new(p.seed, 1),
        serve_blocks_per_client(p),
        |_| {},
    );
    let (loaded, loaded_s) = serve_loaded(&service, &expected, p, |_, _| {});
    let peak = alloc::peak_bytes();
    let loaded_queries: usize = loaded.iter().map(|c| c.latency_ms.len()).sum();

    for client in [&warm, &solo].into_iter().chain(&loaded) {
        out.attempted += client.latency_ms.len() as u64;
        out.failed += client.failed;
    }
    report(
        &mut out,
        &setups,
        &block_query_ms(&solo),
        ratio(loaded_queries as f64, loaded_s),
        peak,
    );
    out
}
