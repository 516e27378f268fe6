#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run it from the repository root, e.g.
#   bash bench/perf/run.sh --workload steady --seed 1 --seconds 20 --trace 0
# Build output goes to standard error, so the last line of standard output
# stays the run's JSON result.
set -euo pipefail
if [ ! -f dune-project ]; then
  echo "run.sh: run this from the repository root (no dune-project here)" >&2
  exit 2
fi
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
