#!/usr/bin/env bash
# Builds perf.exe from the sources of this checkout, then runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash bench/perf/run.sh --workload happy-n256 --seed 1 --seconds 20 --trace 0
#
# The first call compiles the libraries into _build/; later calls only
# check that nothing changed.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: not the root of a marlin checkout (need dune-project, lib/, bench/perf/)" >&2
  exit 2
fi

# dune's shared cache lives in the home directory; build inside the checkout only.
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
