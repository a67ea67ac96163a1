#!/usr/bin/env bash
# The benchmark command (BENCHMARK.json): build perf.exe from this checkout,
# then run it with the given arguments, for example
#
#   bash perf/run.sh --workload churn-4k --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the run's last stdout line stays its JSON
# result. Fails without printing a result when the build fails.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled ./perf/perf.exe >&2
exec ./_build/default/perf/perf.exe "$@"
