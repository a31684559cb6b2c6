#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation: rewrites
# experiment_logs.txt and the bench_results/*.json files named below, and
# nothing else. Pass a scale override as $1 (default: each binary's own
# default, tuned for a laptop-class host).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARG=()
if [[ $# -ge 1 ]]; then
  SCALE_ARG=(--scale "$1")
fi

mkdir -p bench_results
: > experiment_logs.txt

run() {
  local bin="$1"; shift
  echo "=== $bin $* ===" | tee -a experiment_logs.txt
  cargo run --release -p benu-bench --bin "$bin" -- "$@" 2>&1 | tee -a experiment_logs.txt
  echo | tee -a experiment_logs.txt
}

run table1       "${SCALE_ARG[@]}" --json bench_results/table1.json
run table4_exp1  --json bench_results/table4.json
run fig7_exp2    "${SCALE_ARG[@]}" --json bench_results/fig7.json
run fig8_exp3    "${SCALE_ARG[@]}" --json bench_results/fig8.json
run fig9_exp4    "${SCALE_ARG[@]}" --json bench_results/fig9.json
# Table V and Fig. 10 are recorded as the slices that finish on a small
# host (the file name says which); run the bins without --datasets /
# --queries for the full grids.
run table5_exp5  "${SCALE_ARG[@]}" --datasets fs --json bench_results/table5_fs.json
run table5_exp5  "${SCALE_ARG[@]}" --datasets uk --queries q1,q2,q3,q4,q5 --json bench_results/table5_uk.json
run table6_exp6  "${SCALE_ARG[@]}" --json bench_results/table6.json
run fig10_scal   "${SCALE_ARG[@]}" --datasets fs --queries q9 --json bench_results/fig10_fsq9.json

echo "All experiments written to experiment_logs.txt and bench_results/*.json"
