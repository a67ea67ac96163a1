#!/usr/bin/env bash
# Alternating benchmark runs of two checkouts of this repository, then a
# verdict per (metric, workload):
#
#   bash perf/pairs.sh BASE_TREE CHANGE_TREE OUT_DIR [PAIRS [SEED]]
#
# Pair i runs every workload once on each tree for 10 seconds (BENCHMARK.json
# run_seconds), base first in odd pairs and change first in even ones, both
# with seed SEED if given, else seed i. Run records go to OUT_DIR/base and
# OUT_DIR/change, the comparison to OUT_DIR/compare.txt. PAIRS defaults to
# 10. Passing the same tree twice measures the benchmark's own noise.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 BASE_TREE CHANGE_TREE OUT_DIR [PAIRS [SEED]]" >&2; exit 2; }
base=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3/base" "$3/change"
out=$(cd "$3" && pwd)
pairs=${4:-10}
seed=${5:-}
workloads="ycsb-c-100k churn-4k svc-a-detect crash-recover"

run() { # TREE SIDE WORKLOAD PAIR
  bash "$1/perf/run.sh" --workload "$3" --seed "${seed:-$4}" --seconds 10 \
    --json "$out/$2/$3-$(printf %02d "$4").json" >/dev/null
}

for i in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((i % 2)) -eq 1 ]; then
      run "$base" base "$w" "$i"
      run "$change" change "$w" "$i"
    else
      run "$change" change "$w" "$i"
      run "$base" base "$w" "$i"
    fi
  done
done
"$change/_build/default/perf/perf.exe" compare "$out/base" "$out/change" | tee "$out/compare.txt"
