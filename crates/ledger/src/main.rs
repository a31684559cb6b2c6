//! `ledger`: runs the benchmark's workloads and prints every metric as
//! `workload metric value unit`.
//!
//! ```text
//! ledger [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
//!        [--size-factor F] [--json OUT] [--benchmark BENCHMARK.json]
//! ledger compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! Without `--workload` all seven run; without `--trace` each runs
//! untraced (end-to-end metrics) and then traced (per-layer metrics);
//! without `--seconds` a pass measures for `BENCHMARK.json`'s
//! `run_seconds`.
//! When exactly one workload and one pass ran, the last line of standard
//! output is the result object the benchmark driver reads. The traced
//! pass writes its spans to `ledger-trace.json` in the working
//! directory. The exit code is non-zero if any operation or cross-check
//! failed.

use benu_ledger::alloc::PeakAlloc;
use benu_ledger::inputs::{RunParams, THREADS, WORKLOADS};
use benu_ledger::json::{self, Value};
use benu_ledger::{compare, e2e, host_cores, traced, PassResult};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

struct Args(Vec<String>);

impl Args {
    /// The value following `--name`, parsed.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        let at = self.0.iter().position(|a| *a == flag)?;
        let raw = self
            .0
            .get(at + 1)
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        Some(
            raw.parse()
                .unwrap_or_else(|_| fail(&format!("bad value '{raw}' for {flag}"))),
        )
    }
}

fn fail(message: &str) -> ! {
    eprintln!("ledger: {message}");
    std::process::exit(2);
}

/// First line of a command's output, or "unknown" (the benchmark also
/// runs from checkouts that are not git repositories).
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `run_seconds` of the benchmark description at `path`.
fn run_seconds(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (pass --seconds or --benchmark)"))?;
    json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no run_seconds"))
}

fn print_rows(workload: &str, result: &PassResult) {
    for m in &result.metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let benchmark: String = args
        .get("benchmark")
        .unwrap_or_else(|| "BENCHMARK.json".into());
    if args.0.first().map(String::as_str) == Some("compare") {
        let [a, b] = [1, 2].map(|i| {
            args.0
                .get(i)
                .unwrap_or_else(|| fail("usage: ledger compare A.json B.json"))
        });
        return match compare::run(a, b, &benchmark) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("ledger: {n} regressed");
                ExitCode::FAILURE
            }
            Err(e) => fail(&e),
        };
    }

    let params = RunParams {
        seed: args.get("seed").unwrap_or(0),
        seconds: args
            .get("seconds")
            .unwrap_or_else(|| run_seconds(&benchmark).unwrap_or_else(|e| fail(&e))),
        size_factor: args.get("size-factor").unwrap_or(1.0),
    };
    let workloads: Vec<&str> = match args.get::<String>("workload") {
        Some(name) => match WORKLOADS.iter().find(|w| **w == name) {
            Some(w) => vec![w],
            None => fail(&format!("unknown workload '{name}' (one of {WORKLOADS:?})")),
        },
        None => WORKLOADS.to_vec(),
    };
    let passes: &[bool] = match args.get::<u8>("trace") {
        Some(0) => &[false],
        Some(1) => &[true],
        Some(_) => fail("--trace takes 0 or 1"),
        None => &[false, true],
    };
    let cores = host_cores();
    if cores < THREADS {
        fail(&format!(
            "every workload runs {THREADS} threads but this host has {cores} core(s)"
        ));
    }

    let mut reports: Vec<(&str, Vec<(String, Value)>)> =
        workloads.iter().map(|w| (*w, Vec::new())).collect();
    let mut traces = Vec::new();
    let mut last = None;
    let mut failed = 0;
    for &traced_pass in passes {
        for (workload, report) in &mut reports {
            let result = if traced_pass {
                let (result, trace) = traced::run(workload, &params);
                traces.push(trace.to_json());
                result
            } else {
                e2e::run(workload, &params)
            };
            print_rows(workload, &result);
            failed += result.failed;
            let section = if traced_pass {
                "per_layer"
            } else {
                "end_to_end"
            };
            report.push((section.into(), result.metrics_json(true)));
            for (key, n) in [("attempted", result.attempted), ("failed", result.failed)] {
                report.push((format!("{section}.{key}"), Value::Num(n as f64)));
            }
            last = Some(result);
        }
    }

    if !traces.is_empty() {
        let spans: Vec<Value> = traces
            .into_iter()
            .flat_map(|t| match t {
                Value::Arr(spans) => spans,
                _ => unreachable!("a trace renders as an array"),
            })
            .collect();
        std::fs::write("ledger-trace.json", Value::Arr(spans).render())
            .unwrap_or_else(|e| fail(&format!("ledger-trace.json: {e}")));
    }
    if let Some(path) = args.get::<String>("json") {
        let header = json::obj([
            ("seed", Value::Num(params.seed as f64)),
            ("seconds", Value::Num(params.seconds)),
            ("size_factor", Value::Num(params.size_factor)),
            ("host.cores", Value::Num(cores as f64)),
            ("rustc", Value::Str(probe("rustc", &["--version"]))),
            (
                "git_commit",
                Value::Str(probe("git", &["rev-parse", "HEAD"])),
            ),
        ]);
        let doc = json::obj([
            ("header", header),
            (
                "workloads",
                json::obj(reports.into_iter().map(|(w, r)| (w, Value::Obj(r)))),
            ),
        ]);
        std::fs::write(&path, doc.render_pretty())
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    }
    if let (1, 1, Some(result)) = (workloads.len(), passes.len(), &last) {
        let line = json::obj([
            ("correct", Value::Bool(result.correct())),
            ("attempted", Value::Num(result.attempted as f64)),
            ("failed", Value::Num(result.failed as f64)),
            ("metrics", result.metrics_json(false)),
        ]);
        println!("{}", line.render());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: {failed} operations or cross-checks failed");
        ExitCode::FAILURE
    }
}
