#!/bin/sh
# The full gate: build, `dune build @check` (every module of every
# stanza type-checks, which also leaves the .cmt files the lint reads),
# then the marlin_lint static-analysis pass (`dune build @lint`: one
# engine over the typed trees of every lib/ bench/ test/ examples/
# module and of the lint CLI tools/lint/main.ml, running the idiom rules
# (comparison, ordering, float equality, top-level state, interfaces)
# and the interprocedural ones (effect inference, the one determinism
# check; quorum-arithmetic provenance; linearity; exhaustive payload
# dispatch; dead exports, a lib/ .mli value no other unit refers to),
# plus the seeded-violation
# fixture check and the compile-fail check that deprecated calls are
# compiler errors),
# then tier-1 tests, then the four bench regression gates against the
# committed baselines (bench/baselines/*.json). Each gate compares every
# simulated field exactly, ignores wall_seconds and holds one wall budget
# per target (none for smoke; 120 s scaling and load; 240 s attribution).
# Any difference fails the script.
# Lint runs before the tests because it is the cheapest gate with the
# highest signal-per-second: a raw `2*f` or a nested broadcast should
# fail CI in seconds, not after the full suite.
#
# After the alias gate, the lint runs once more with a real clock to
# write _build/lint-report.json — the marlin-lint/1 document with
# per-rule timings, kept as a CI artifact for lint-performance tracking.
# (The alias runs themselves use the null clock so their JSON stays
# byte-identical run to run.) The script fails unless the report's file
# count equals the number of .ml files under lib/ bench/ test/ examples/
# plus tools/lint/main.ml, so no directory can silently drop out of the
# lint's coverage (a dropped caller would also turn its callees into
# dead exports).
#
# After the tests, the four examples and `bench/main.exe fig2-demo` run
# (under 20 ms each): each exits 1 unless the outcome it prints holds
# (the Figure 2 strawman stuck at one block, Marlin committing the hidden
# b2 with agreement, the bank's balances matching, the replicas agreeing).
#
# The smoke run includes a deterministic fault scenario (leader crash),
# so the gate also covers recovery latency and view-change
# message/authenticator counts from the marlin_faults subsystem.
#
# The scaling gate (`dune build @bench-scaling`) sweeps every registry
# protocol over n up to 64 and compares message/authenticator counts,
# peak event-queue occupancy and the rest of each row with its own
# baseline, under a wall budget, so a broadcast or event-queue
# regression fails CI even when the small-n smoke numbers are unchanged.
#
# The load gate (`dune build @bench-load`) sweeps open-loop offered load
# (Poisson arrivals, 1M client keys) over the bounded mempool for every
# registry protocol at n in {4, 32}, and compares goodput, drop
# accounting and tail latency with its baseline, the sweep under a wall
# budget.
#
# The attribution gate (`dune build @bench-attribution`) locates each
# protocol's saturation knee, re-runs traced at and past it with
# windowed timeseries attached, and compares the bottleneck verdicts
# (which resource binds first: cpu / serialize / nic-queue / propagate /
# quorum-wait / mempool-backpressure), knee rates and segment shares
# against its baseline — so a change that silently moves a protocol's
# binding resource fails CI.
#
# The tests run under one qcheck seed: QCHECK_SEED when set, else one
# drawn here and echoed first. They also run under a 600 s limit, far
# above the suite's normal time of seconds, so a property that hangs on
# some seed fails CI with that seed to replay instead of stalling it.
#
# Last, `bash bench/perf/run.sh smoke` runs each repository-benchmark
# workload (BENCHMARK.json) once at a twentieth of its length, untraced and
# traced, and fails unless both give identical simulated results, span
# self times sum to their roots, and perf.exe's metric and workload lists
# match BENCHMARK.json. It takes about 6 s. Its four fingerprints (one
# per workload, a digest of every simulated result) must then equal
# bench/baselines/perf_smoke_fingerprints.txt, so a change meant to cost
# only host time (crypto, codec, queue) fails CI if it moves any
# simulated number.
#
# To re-bless the baselines after an intentional change:
#   dune exec bench/main.exe -- smoke --json bench/baselines/BENCH_smoke.json
#   dune exec bench/main.exe -- scaling --smoke --json bench/baselines/BENCH_scaling.json
#   dune exec bench/main.exe -- load --smoke --json bench/baselines/BENCH_load.json
#   dune exec bench/main.exe -- attribution --smoke --json bench/baselines/BENCH_attribution.json
#   bash bench/perf/run.sh smoke | awk '/fingerprint/ {print $2, $NF}' > bench/baselines/perf_smoke_fingerprints.txt
set -eu
cd "$(dirname "$0")/.."

dune build
dune build @check
dune build @lint
(cd _build/default \
 && ./tools/lint/main.exe --quiet --time --json ../lint-report.json \
      lib bench test examples tools/lint/.main.eobjs)
echo "ci: lint report with per-rule timings at _build/lint-report.json"
sources=$(find lib bench test examples tools/lint/main.ml -name '*.ml' \
  | wc -l | tr -d ' ')
scanned=$(sed -n 's/.*"files":\([0-9]*\).*/\1/p' _build/lint-report.json)
if [ "$scanned" != "$sources" ]; then
  echo "ci: lint scanned $scanned units but lib/ bench/ test/ examples/ and tools/lint/main.ml hold $sources .ml files" >&2
  exit 1
fi
QCHECK_SEED=${QCHECK_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}
export QCHECK_SEED
echo "ci: QCHECK_SEED=$QCHECK_SEED"
status=0
timeout --kill-after=10 600 dune runtest || status=$?
if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
  echo "ci: dune runtest exceeded 600 s; replay: QCHECK_SEED=$QCHECK_SEED dune runtest" >&2
  exit 1
elif [ "$status" -ne 0 ]; then
  echo "ci: dune runtest failed; replay: QCHECK_SEED=$QCHECK_SEED dune runtest" >&2
  exit "$status"
fi
demo() {
  if ! out=$("$@" 2>&1); then
    echo "$out"
    echo "ci: $* did not reach the outcome it prints" >&2
    exit 1
  fi
}
for example in quickstart kv_bank view_change_demo byzantine_demo; do
  demo "_build/default/examples/$example.exe"
done
demo _build/default/bench/main.exe fig2-demo
echo "ci: examples and fig2-demo reached their outcomes"
dune build @bench-smoke
dune build @bench-scaling
dune build @bench-load
dune build @bench-attribution
status=0
bash bench/perf/run.sh smoke > _build/perf-smoke.txt || status=$?
cat _build/perf-smoke.txt
[ "$status" -eq 0 ] || exit "$status"
awk '/fingerprint/ {print $2, $NF}' _build/perf-smoke.txt > _build/perf-smoke-fingerprints.txt
if ! diff -u bench/baselines/perf_smoke_fingerprints.txt _build/perf-smoke-fingerprints.txt; then
  echo "ci: perf smoke fingerprints differ from bench/baselines/perf_smoke_fingerprints.txt" >&2
  exit 1
fi

echo "ci: build + check + lint + tests + bench-smoke + bench-scaling + bench-load + bench-attribution gates + perf smoke fingerprints all green"
