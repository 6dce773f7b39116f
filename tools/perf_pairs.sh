#!/bin/sh
# Compares two checkouts on one repository-benchmark workload by the pair
# protocol: PAIRS pairs of runs, one pair per seed from FIRST_SEED up, each
# pair one run of
#
#   bash bench/perf/run.sh --workload WORKLOAD --seed S --seconds SECONDS \
#     --trace 0 --json FILE
#
# in each checkout. The order within a pair alternates (parent first on
# even pairs, change first on odd ones), so a drift in host speed
# lands on both sides.
#
# Usage: sh tools/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS SECONDS FIRST_SEED
#
# Prints, per end-to-end metric: each side's median and quartiles
# (linear interpolation), the median change, how many pairs the change
# won (by the metric's direction in CHANGE_TREE/BENCHMARK.json; a tie is
# no win), and whether the gap between the medians exceeds the parent's
# interquartile range. Then the number of pairs whose simulated-result
# fingerprints are equal, and the failed operations on each side. Each
# run's JSON line is kept in a temporary directory, removed on exit.
set -eu

if [ "$#" -ne 6 ]; then
  echo "usage: sh tools/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS SECONDS FIRST_SEED" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=$5
first=$6
for tree in "$parent" "$change"; do
  if [ ! -f "$tree/bench/perf/run.sh" ]; then
    echo "perf_pairs: $tree is not a marlin checkout (no bench/perf/run.sh)" >&2
    exit 2
  fi
done

out=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT INT TERM

run() { # side tree seed
  (cd "$2" && bash bench/perf/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 --json "$out/$1.$3.jsonl" > /dev/null)
}

i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((first + i))
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  echo "perf_pairs: pair $((i + 1))/$pairs (seed $seed) done" >&2
  i=$((i + 1))
done

# One "side seed key value" row per metric, plus the fingerprint and the
# failed count of each run.
for f in "$out"/*.jsonl; do
  base=$(basename "$f" .jsonl)
  side=${base%%.*}
  seed=${base#*.}
  awk -v side="$side" -v seed="$seed" '{
    line = $0
    if (match(line, /"fingerprint":"[0-9a-f]*"/))
      print side, seed, "@fingerprint", substr(line, RSTART + 15, RLENGTH - 16)
    if (match(line, /"failed":[0-9]+/))
      print side, seed, "@failed", substr(line, RSTART + 9, RLENGTH - 9)
    rest = substr(line, index(line, "\"metrics\":"))
    while (match(rest, /"[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
      m = substr(rest, RSTART + 1, RLENGTH - 1)
      name = substr(m, 1, index(m, "\"") - 1)
      print side, seed, name, substr(m, index(m, "\"value\":") + 8)
      rest = substr(rest, RSTART + RLENGTH)
    }
  }' "$f"
done > "$out/rows"

awk -v pairs="$pairs" -v workload="$workload" '
  # BENCHMARK.json: each end-to-end metric name, then its direction.
  FNR == NR {
    if (match($0, /"name": *"[a-z0-9_]+"/)) {
      last = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", last); sub(/"$/, "", last)
    }
    if (match($0, /"better": *"(lower|higher)"/)) better[last] = ($0 ~ /lower/) ? "lower" : "higher"
    next
  }
  $3 == "@fingerprint" { fp[$1, $2] = $4; seeds[$2] = 1; next }
  $3 == "@failed" { failed[$1] += $4; next }
  {
    if (!($3 in known)) { known[$3] = 1; order[++nm] = $3 }
    v[$1, $3, $2] = $4
  }
  function quantile(a, n, p,   h, lo) {
    h = p * (n - 1); lo = int(h)
    return (lo + 1 < n) ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
  }
  function stats(side, metric,   s, n, a, i, j, t) {
    n = 0
    for (s in seeds) if ((side, metric, s) in v) a[n++] = v[side, metric, s] + 0
    for (i = 1; i < n; i++) { t = a[i]; for (j = i - 1; j >= 0 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    q1[side] = quantile(a, n, 0.25); med[side] = quantile(a, n, 0.5); q3[side] = quantile(a, n, 0.75)
    return n
  }
  END {
    printf "perf_pairs: %s, %d pairs\n", workload, pairs
    printf "%-22s %-40s %-40s %8s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "gap > parent IQR"
    for (k = 1; k <= nm; k++) {
      m = order[k]
      if (!(m in better)) continue
      if (stats("parent", m) == 0 || stats("change", m) == 0) continue
      wins = 0; n = 0
      for (s in seeds) {
        if (!((("parent", m, s) in v) && (("change", m, s) in v))) continue
        n++; p = v["parent", m, s] + 0; c = v["change", m, s] + 0
        if ((better[m] == "lower" && c < p) || (better[m] == "higher" && c > p)) wins++
      }
      gap = med["change"] - med["parent"]; if (gap < 0) gap = -gap
      rel = (med["parent"] != 0) ? sprintf("%+.1f%%", 100 * (med["change"] - med["parent"]) / med["parent"]) : "n/a"
      printf "%-22s %-40s %-40s %8s %3d/%-2d %s\n", m,
        sprintf("%.6g [%.6g, %.6g]", med["parent"], q1["parent"], q3["parent"]),
        sprintf("%.6g [%.6g, %.6g]", med["change"], q1["change"], q3["change"]),
        rel, wins, n, (gap > q3["parent"] - q1["parent"]) ? "yes" : "no"
    }
    same = 0; n = 0
    for (s in seeds) { n++; if (fp["parent", s] == fp["change", s]) same++ }
    printf "fingerprints equal: %d/%d pairs; failed operations: parent %d, change %d\n", same, n, failed["parent"], failed["change"]
  }' "$change/BENCHMARK.json" "$out/rows"
