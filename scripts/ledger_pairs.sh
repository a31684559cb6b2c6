#!/usr/bin/env bash
# Paired parent-vs-change runs of the performance ledger, as the
# choosing-metrics protocol asks for a change that claims a gain (or
# claims none): both sides built once, N alternating pairs per workload,
# and the CHANGES.md table printed at the end.
#
#   scripts/ledger_pairs.sh <parent-rev> [--pairs 10] [--workloads a,b]
#                           [--seed 0] [--seconds S] [--dir DIR]
#
# "change" is the working tree; "parent" is <parent-rev>, exported with
# `git archive` into DIR (default: a temporary directory, removed on
# exit) and built into its own target directory. Each side runs
# `ledger --workload W --trace 0 --seed S` from its own root, for
# BENCHMARK.json's `run_seconds` unless --seconds is given. Bounds and
# directions are read from the working tree's BENCHMARK.json.
#
# Verdicts, per (workload, metric):
#   improved    change better in >= 9/10 of the pairs and the medians
#               differ by more than the parent's interquartile range
#   unresolved  the run-to-run spread ((max-min)/median, either side) is
#               wider than the metric's bound, and it is not the case
#               that every change run beats every parent run
#   regressed   change median worse than the parent's by more than the bound
#   within bound otherwise
# Exit code: 1 if any run failed (non-zero exit of the ledger), else 0.
set -euo pipefail

usage() { sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1; shift
pairs=10 workloads="" seed=0 seconds="" dir=""
while [ $# -gt 0 ]; do
  case $1 in
    --pairs) pairs=$2 ;;
    --workloads) workloads=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --dir) dir=$2 ;;
    *) usage ;;
  esac
  shift 2
done

root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "unknown revision: $rev" >&2; exit 2; }
if [ -z "$dir" ]; then
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir/parent"
dir=$(cd "$dir" && pwd)
[ -n "$workloads" ] || workloads=$(awk -F'"' '/"why"/ { printf "%s%s", sep, $4; sep = "," }' BENCHMARK.json)

echo "exporting $(git rev-parse --short "$rev") and building both sides (release, offline)" >&2
git archive "$rev" | tar -x -C "$dir/parent"
for side in parent change; do
  [ $side = parent ] && src=$dir/parent || src=$root
  CARGO_TARGET_DIR=$dir/target-$side cargo build --release --offline --quiet \
    --manifest-path "$src/crates/ledger/Cargo.toml" --bin ledger
  cp "$dir/target-$side/release/ledger" "$dir/ledger-$side"
done

runs=$dir/runs.txt
: >"$runs"
failed=0
run_side() { # side workload pair
  local src=$root
  [ "$1" = parent ] && src=$dir/parent
  if ! (cd "$src" && "$dir/ledger-$1" --workload "$2" --trace 0 --seed "$seed" \
        ${seconds:+--seconds "$seconds"}) >"$dir/out.txt"; then
    echo "FAILED: $1 $2 pair $3" >&2
    failed=1
  fi
  awk -v w="$2" -v side="$1" -v pair="$3" 'NF == 4 && $1 == w { print w, $2, side, pair, $3 }' \
    "$dir/out.txt" >>"$runs"
}
for w in ${workloads//,/ }; do
  for pair in $(seq 1 "$pairs"); do
    # Alternate which side runs first, so drift of the host within a
    # pair falls on each side equally often.
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do run_side "$side" "$w" "$pair"; done
    echo "$w: pair $pair/$pairs done" >&2
  done
done

echo
echo "parent \`$(git rev-parse --short "$rev")\`, $pairs alternating pairs, seed $seed, ${seconds:-$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json)} s per run, $(nproc) cores"
echo
echo "| workload | metric | parent median (q1–q3; min–max) | change median (q1–q3; min–max) | change vs parent | pairs change better | verdict |"
echo "|---|---|---|---|---|---|---|"
awk '
function sort(a, n,    i, j, t) {
  for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function quantile(a, n, p,    h, lo) {
  h = (n - 1) * p + 1; lo = int(h)
  return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function fmt(x) { return sprintf("%.4g", x) }
function summary(a, n) {
  return fmt(quantile(a, n, 0.5)) " (" fmt(quantile(a, n, 0.25)) "–" fmt(quantile(a, n, 0.75)) "; " fmt(a[1]) "–" fmt(a[n]) ")"
}
function spread(a, n,    m) { m = quantile(a, n, 0.5); return m == 0 ? 0 : (a[n] - a[1]) / m }
# First file: BENCHMARK.json, one end-to-end metric per line.
FNR == NR {
  if ($0 ~ /"bound"/) {
    split($0, q, "\""); name = q[4]; lower[name] = (q[12] == "lower")
    sub(/.*"bound": */, ""); bound[name] = $0 + 0; metrics[++nm] = name
  }
  next
}
{ key = $1 SUBSEP $2; value[key, $3, $4] = $5; if ($4 > npairs[key]) npairs[key] = $4
  if (!($1 in seen)) { seen[$1]; wl[++nw] = $1 } }
END {
  for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
    w = wl[wi]; m = metrics[mi]; key = w SUBSEP m; n = npairs[key]; if (!n) continue
    sign = lower[m] ? 1 : -1; wins = 0; np = nc = 0
    for (i = 1; i <= n; i++) {
      pv = value[key, "parent", i]; cv = value[key, "change", i]
      if (pv == "" || cv == "") continue
      p[++np] = pv; c[++nc] = cv; if (sign * (pv - cv) > 0) wins++
    }
    sort(p, np); sort(c, nc)
    pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
    worse = pm == 0 ? 0 : sign * (cm - pm) / pm            # > 0: change is worse
    iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
    sp = spread(p, np) > spread(c, nc) ? spread(p, np) : spread(c, nc)
    all_better = lower[m] ? c[nc] < p[1] : c[1] > p[np]
    if (wins >= 0.9 * np && sign * (pm - cm) > iqr) verdict = "**improved**"
    else if (sp > bound[m] && !all_better) verdict = sprintf("unresolved (spread %.0f%% > bound)", 100 * sp)
    else if (worse > bound[m]) verdict = "**regressed**"
    else verdict = "within bound"
    printf "| %s | %s | %s | %s | %+.1f%% | %d/%d | %s |\n", w, m, summary(p, np), summary(c, nc), \
      pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, np, verdict
  }
}' BENCHMARK.json "$runs"
exit $failed
