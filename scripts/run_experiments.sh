#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation, and the
# extension experiments, with the `paper` bin: rewrites
# experiment_logs.txt and the bench_results/*.json files named below, and
# nothing else. Pass a scale override as $1
# (default: each experiment's own default scale). Exits non-zero when a
# gated claim does not hold; the remaining experiments still run.
set -uo pipefail
cd "$(dirname "$0")/.."

SCALE_ARG=()
if [[ $# -ge 1 ]]; then
  SCALE_ARG=(--scale "$1")
fi

mkdir -p bench_results
: > experiment_logs.txt
cargo build --release -p benu-bench --bin paper

status=0
run() {
  local json="$1"; shift
  echo "=== paper $* ===" | tee -a experiment_logs.txt
  target/release/paper "$@" "${SCALE_ARG[@]}" --json "bench_results/$json" 2>&1 | tee -a experiment_logs.txt
  [[ ${PIPESTATUS[0]} -eq 0 ]] || status=1
  echo | tee -a experiment_logs.txt
}

run table1.json table1
run table4.json table4
run fig7.json fig7
run fig8.json fig8
run fig9.json fig9
# Table V one stand-in per file; uk runs q1-q5 only, its other cells
# take hours.
run table5_as.json table5 --datasets as
run table5_fs.json table5 --datasets fs
run table5_uk.json table5 --datasets uk --queries q1,q2,q3,q4,q5
run table6.json table6
run fig10.json fig10
# budget, faults and estimators in one file.
run ext.json ext

echo "All experiments written to experiment_logs.txt and bench_results/*.json"
exit $status
