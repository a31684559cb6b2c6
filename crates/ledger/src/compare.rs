//! `ledger compare A.json B.json`: applies each metric's direction and
//! bound to two ledger reports made with the same parameters.
//!
//! Gated are every end-to-end metric of `BENCHMARK.json`, with the bound
//! recorded there, and the per-layer metrics of [`GATED_PER_LAYER`]:
//! `BENCHMARK.json` reports every end-to-end metric, never 0, on every
//! workload, so a metric that exists on some workloads only (bytes
//! fetched, tail latency of the service) is a per-layer metric there and
//! gets its bound here. A run with failed operations is `regressed`.

use crate::json::{self, Value};

/// `(per-layer metric, bound)`; direction comes from `BENCHMARK.json`.
/// A cell that reads 0 in both reports does not apply to its workload
/// and is skipped. The byte counts repeat exactly (the cold workloads
/// run one thread). Over eight traced runs of one program the tails
/// spread by 17 % and 9 % of their median (interquartile range) and any
/// two runs differed by at most 32 %.
pub const GATED_PER_LAYER: [(&str, f64); 4] = [
    ("cluster.comm_mb", 0.02),
    ("kvstore.bytes", 0.02),
    ("service.solo_p95_ms", 0.35),
    ("service.loaded_p95_ms", 0.35),
];

/// `(metric, change in its unit)` below which a change is not judged,
/// however large a share of a small value it is.
const FLOORS: [(&str, f64); 2] = [("setup_s", 0.05), ("cluster.comm_mb", 0.05)];

/// Header fields two comparable reports agree on.
const SAME_RUN: [&str; 4] = ["seed", "seconds", "size_factor", "host.cores"];

/// How run B stands against run A on one (workload, metric) cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// Inside the bound, but the fastest quarter of one run's
    /// repetitions spreads wider than the bound, so "unchanged" cannot
    /// be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `worse` is the share of A's value by which B is worse (negative:
/// better); `spread` the wider of the two runs' [`cell`] spreads.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One metric cell of a report: its value, and as a share of it the
/// distance from the fastest repetition to their first quartile — how
/// well the repetitions pin down the low percentile a timing reports
/// (0 when no repetitions are recorded).
fn cell(report: &Value, workload: &str, section: &str, metric: &str) -> Option<(f64, f64)> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("min"), m.get("q1")) {
        (Some(min), Some(q1)) => (q1.as_f64()? - min.as_f64()?) / value,
        _ => 0.0,
    };
    Some((value, spread))
}

/// Operations of `workload` that failed, over both passes.
fn failed(report: &Value, workload: &str) -> f64 {
    ["end_to_end.failed", "per_layer.failed"]
        .iter()
        .filter_map(|key| report.get("workloads")?.get(workload)?.get(key)?.as_f64())
        .sum()
}

/// Prints one row per gated (workload, metric) cell and returns the
/// number of `regressed` rows.
pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<usize, String> {
    judge(&load(a_path)?, &load(b_path)?, &load(benchmark_path)?)
}

/// [`run`] over parsed reports `a` and `b` and the parsed benchmark
/// description `bench`.
pub fn judge(a: &Value, b: &Value, bench: &Value) -> Result<usize, String> {
    for key in SAME_RUN {
        let of = |report: &Value| report.get("header").and_then(|h| h.get(key)).cloned();
        if of(a) != of(b) {
            return Err(format!(
                "the reports were not made with the same {key}: {:?} and {:?}",
                of(a),
                of(b)
            ));
        }
    }
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("the benchmark description has no '{key}' list"))
    };
    // (section, name, direction, bound) of every gated metric.
    let mut gates = Vec::new();
    for (section, metrics) in [
        ("end_to_end", list("end_to_end")?),
        ("per_layer", list("per_layer")?),
    ] {
        for metric in metrics {
            let field = |key: &str| metric.get(key).and_then(Value::as_str).unwrap_or("?");
            let name = field("name");
            let bound = match section {
                "end_to_end" => metric.get("bound").and_then(Value::as_f64),
                _ => GATED_PER_LAYER
                    .iter()
                    .find(|(gated, _)| *gated == name)
                    .map(|(_, bound)| *bound),
            };
            if let Some(bound) = bound {
                gates.push((section, name, field("better") == "higher", bound));
            } else if section == "end_to_end" {
                return Err(format!("the benchmark description gives {name} no bound"));
            }
        }
    }

    let (mut rows, mut regressed) = (0, 0);
    println!("workload metric A B change verdict");
    for workload in list("workloads")? {
        let workload = workload.get("name").and_then(Value::as_str).unwrap_or("?");
        for &(section, name, higher_is_better, bound) in &gates {
            let (va, sa, vb, sb) = match (
                cell(a, workload, section, name),
                cell(b, workload, section, name),
            ) {
                (Some((va, sa)), Some((vb, sb))) => (va, sa, vb, sb),
                // A report of one workload or one pass holds fewer cells.
                (None, None) => continue,
                _ => return Err(format!("{workload} {name}: missing from one report")),
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let floor = FLOORS
                .iter()
                .find(|(floored, _)| *floored == name)
                .map_or(0.0, |(_, floor)| *floor);
            let change = if (vb - va).abs() <= floor {
                0.0
            } else {
                (vb - va) / va
            };
            let worse = if higher_is_better { -change } else { change };
            let v = verdict(worse, sa.max(sb), bound);
            rows += 1;
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload} {name} {va} {vb} {:+.1}% {}",
                (vb - va) / va * 100.0,
                v.name()
            );
        }
        let (fa, fb) = (failed(a, workload), failed(b, workload));
        if fb > 0.0 {
            regressed += 1;
            println!("{workload} failed {fa} {fb} - regressed");
        }
    }
    if rows == 0 {
        return Err("the reports share no gated cell".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(verdict(0.05, 0.01, 0.1), Verdict::Ok);
        assert_eq!(verdict(0.11, 0.01, 0.1), Verdict::Regressed);
        assert_eq!(verdict(-0.2, 0.01, 0.1), Verdict::Improved);
        assert_eq!(verdict(0.05, 0.3, 0.1), Verdict::Unresolved);
        // A change beyond the bound is reported as such however noisy.
        assert_eq!(verdict(0.5, 0.3, 0.1), Verdict::Regressed);
    }

    const BENCH: &str = r#"{
        "workloads": [{"name": "cold"}, {"name": "warm"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "cluster.comm_mb", "unit": "MB", "better": "lower"},
                      {"name": "engine.run_s", "unit": "s", "better": "lower"}]}"#;

    /// A report of both workloads; `comm_mb` applies to `cold` only.
    fn report(seed: u64, setup_s: f64, op_ms: f64, comm_mb: f64, run_s: f64) -> Value {
        let workload = |comm_mb: f64| {
            format!(
                r#"{{"end_to_end": {{"setup_s": {{"value": {setup_s}}}, "op_ms": {{"value": {op_ms}}}}},
                    "per_layer": {{"cluster.comm_mb": {{"value": {comm_mb}}},
                                   "engine.run_s": {{"value": {run_s}}}}}}}"#
            )
        };
        json::parse(&format!(
            r#"{{"header": {{"seed": {seed}, "seconds": 10, "size_factor": 1, "host.cores": 2}},
                "workloads": {{"cold": {}, "warm": {}}}}}"#,
            workload(comm_mb),
            workload(0.0)
        ))
        .expect("valid json")
    }

    #[test]
    fn gates_cover_bytes_fetched_but_not_ungated_layers() {
        let bench = json::parse(BENCH).expect("valid json");
        let base = report(0, 0.10, 100.0, 5.0, 1.0);
        assert_eq!(judge(&base, &base, &bench), Ok(0));
        // Ungated per-layer time doubles, set-up moves 40 % but under its
        // 0.05 s floor: nothing regressed.
        assert_eq!(
            judge(&base, &report(0, 0.14, 100.0, 5.0, 2.0), &bench),
            Ok(0)
        );
        // 4 % more bytes fetched on the workload that fetches.
        assert_eq!(
            judge(&base, &report(0, 0.10, 100.0, 5.2, 1.0), &bench),
            Ok(1)
        );
        // Both workloads slow down by 30 %.
        assert_eq!(
            judge(&base, &report(0, 0.10, 130.0, 5.0, 1.0), &bench),
            Ok(2)
        );
    }

    #[test]
    fn reports_of_different_runs_are_refused() {
        let bench = json::parse(BENCH).expect("valid json");
        let a = report(0, 0.10, 100.0, 5.0, 1.0);
        let b = report(1, 0.10, 100.0, 5.0, 1.0);
        assert!(judge(&a, &b, &bench).unwrap_err().contains("seed"));
    }
}
