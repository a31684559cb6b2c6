//! Runs the `ledger` bin at a tenth of its size and checks its output
//! against the contract in `BENCHMARK.json`: every workload and metric
//! named there is reported exactly once, with the declared unit and a
//! finite value; nothing failed; the trace's spans nest and the stage
//! spans sum to their root.

use benu_ledger::json::{self, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

fn benchmark() -> Value {
    json::parse(&std::fs::read_to_string(BENCHMARK).expect("BENCHMARK.json")).expect("valid json")
}

/// A fresh working directory under the test target directory.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

fn ledger(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .args(["--size-factor", "0.1", "--seconds", "0.1"])
        .current_dir(dir)
        .output()
        .expect("run the ledger bin")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks that `reported` holds exactly the `declared` metrics, each
/// once, with its unit and a finite value.
fn check_metrics(context: &str, reported: &Value, declared: &[(String, String)], nonzero: bool) {
    let members = reported
        .as_obj()
        .unwrap_or_else(|| panic!("{context}: metrics must be an object"));
    assert_eq!(
        members.len(),
        declared.len(),
        "{context}: reports {} metrics, BENCHMARK.json declares {}",
        members.len(),
        declared.len()
    );
    for (name, unit) in declared {
        assert!(well_formed(name), "{context}: bad metric name {name:?}");
        let hits: Vec<_> = members.iter().filter(|(k, _)| k == name).collect();
        assert_eq!(
            hits.len(),
            1,
            "{context}: {name} reported {} times",
            hits.len()
        );
        let metric = &hits[0].1;
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{context}: {name} has no numeric value"));
        assert!(value.is_finite(), "{context}: {name} = {value}");
        assert!(
            !nonzero || value != 0.0,
            "{context}: {name} must never be 0"
        );
    }
}

#[test]
fn full_run_matches_the_contract() {
    let dir = workdir("full");
    let run = ledger(&dir, &["--json", "out.json"]);
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(
        run.status.success(),
        "ledger failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let bench = benchmark();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let report = json::parse(&std::fs::read_to_string(dir.join("out.json")).expect("out.json"))
        .expect("the report is valid json");
    let header = report.get("header").expect("header");
    for key in ["seed", "host.cores", "rustc", "git_commit"] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }

    let mut rows: HashMap<(&str, &str), usize> = HashMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(
            fields.len(),
            4,
            "row is not `workload metric value unit`: {line}"
        );
        assert!(fields[2].parse::<f64>().is_ok(), "value of row: {line}");
        *rows.entry((fields[0], fields[1])).or_default() += 1;
    }

    let workloads = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(
        report
            .get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::len),
        Some(workloads.len()),
        "the report covers exactly the declared workloads"
    );
    for workload in workloads {
        let name = workload.get("name").and_then(Value::as_str).expect("name");
        assert!(well_formed(name), "bad workload name {name:?}");
        let section = report
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        for (list, metrics, nonzero) in [
            ("end_to_end", &end_to_end, true),
            ("per_layer", &per_layer, false),
        ] {
            let context = format!("{name} {list}");
            check_metrics(&context, section.get(list).expect(list), metrics, nonzero);
            assert_eq!(
                section
                    .get(&format!("{list}.failed"))
                    .and_then(Value::as_f64),
                Some(0.0),
                "{context}: failed operations"
            );
            for (metric, _) in metrics {
                assert_eq!(
                    rows.get(&(name, metric.as_str())),
                    Some(&1),
                    "{name} {metric} must be printed exactly once"
                );
            }
        }
    }

    check_trace(&dir.join("ledger-trace.json"));

    // A run never regresses against itself.
    let same = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["compare", "out.json", "out.json", "--benchmark", BENCHMARK])
        .current_dir(&dir)
        .output()
        .expect("run ledger compare");
    let table = String::from_utf8_lossy(&same.stdout).into_owned();
    assert!(same.status.success(), "compare failed:\n{table}");
    assert!(!table.contains("regressed"));
    let judged = |workload: &str, metric: &str| {
        let row = format!("{workload} {metric} ");
        table.lines().filter(|l| l.starts_with(&row)).count()
    };
    for workload in workloads {
        let name = workload.get("name").and_then(Value::as_str).expect("name");
        for (metric, _) in &end_to_end {
            assert_eq!(judged(name, metric), 1, "{name} {metric}:\n{table}");
        }
        // Bytes fetched are gated where a workload fetches, tails where
        // it serves, and skipped elsewhere.
        let cold = usize::from(name.ends_with("_cold"));
        assert_eq!(judged(name, "cluster.comm_mb"), cold, "{table}");
        assert_eq!(judged(name, "kvstore.bytes"), cold, "{table}");
        let serves = usize::from(name == "serve_mix");
        assert_eq!(judged(name, "service.solo_p95_ms"), serves, "{table}");
        assert_eq!(judged(name, "service.loaded_p95_ms"), serves, "{table}");
    }
}

/// Spans nest inside their parents, and the direct children of every
/// `staged` root sum to it within 2 %.
fn check_trace(path: &Path) {
    let trace = json::parse(&std::fs::read_to_string(path).expect("ledger-trace.json"))
        .expect("the trace is valid json");
    let spans = trace.as_arr().expect("the trace is an array of spans");
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect(k);
    let text = |s: &Value, k: &str| s.get(k).and_then(Value::as_str).expect(k).to_string();
    let by_id: HashMap<(String, u64), &Value> = spans
        .iter()
        .map(|s| ((text(s, "workload"), num(s, "id") as u64), s))
        .collect();
    assert_eq!(by_id.len(), spans.len(), "(workload, id) identifies a span");

    let mut child_sum: HashMap<(String, u64), f64> = HashMap::new();
    for s in spans {
        assert!(
            num(s, "start_ns") <= num(s, "end_ns"),
            "span ends before it starts"
        );
        let Some(parent) = s.get("parent").and_then(Value::as_f64) else {
            continue;
        };
        let key = (text(s, "workload"), parent as u64);
        let p = by_id
            .get(&key)
            .unwrap_or_else(|| panic!("span names a missing parent {key:?}"));
        assert!(
            num(p, "start_ns") <= num(s, "start_ns") && num(s, "end_ns") <= num(p, "end_ns"),
            "{} does not nest inside {}",
            text(s, "name"),
            text(p, "name")
        );
        *child_sum.entry(key).or_default() += num(s, "end_ns") - num(s, "start_ns");
    }
    let mut roots = 0;
    for s in spans.iter().filter(|s| text(s, "name") == "staged") {
        roots += 1;
        let whole = num(s, "end_ns") - num(s, "start_ns");
        let parts = child_sum[&(text(s, "workload"), num(s, "id") as u64)];
        assert!(
            (whole - parts).abs() <= 0.02 * whole,
            "{}: stages cover {parts} ns of a {whole} ns root",
            text(s, "workload")
        );
    }
    assert_eq!(
        roots, 6,
        "five batch workloads and plan_sweep each stage a drive"
    );
}

/// The shape the benchmark driver reads: one workload, one pass, and a
/// last line holding exactly `correct`, `attempted`, `failed`, `metrics`.
#[test]
fn single_pass_ends_with_the_result_object() {
    let bench = benchmark();
    for (trace, list, nonzero) in [("0", "end_to_end", true), ("1", "per_layer", false)] {
        let dir = workdir(&format!("single-{trace}"));
        let run = ledger(
            &dir,
            &["--workload", "fetch_cold", "--seed", "3", "--trace", trace],
        );
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
        let result = json::parse(stdout.lines().last().expect("some output")).expect("result json");
        let keys: Vec<&str> = result
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
        let metrics = result.get("metrics").expect("metrics");
        check_metrics(list, metrics, &declared(&bench, list), nonzero);
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let dir = workdir("refused");
    let run = ledger(&dir, &["--workload", "no_such_workload"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
