#!/bin/sh
# Layout cost regression check: the layout ablation's per-op simulated
# costs (cache misses, flushes, fences) must stay within a small tolerance
# of the checked-in baseline. Runs are deterministic and seeded, so the
# tolerance only absorbs benign scheduling shifts from unrelated changes —
# a real layout regression (an extra line per hop, a lost flush
# coalescing) blows through it and fails `dune runtest`.
#
# Usage: check_layout_regression.sh <path-to-json_check>

set -eu

JSON_CHECK="$1"
TOL=0.05  # relative tolerance
ABS=0.05  # absolute floor, for counters near zero

# Emit "section/op counter value" triples for the hot per-op counters,
# read from the metrics document's leaves (sections.S.name,
# sections.S.ops.O.op, sections.S.ops.O.per_op.COUNTER).
extract() {
  "$JSON_CHECK" "$1" > "$1.leaves"
  awk -F'\t' '
    { n = split($1, p, ".") }
    n == 3 && p[1] == "sections" && p[3] == "name" { sec[p[2]] = $2 }
    n == 5 && p[3] == "ops" && p[5] == "op" { op[p[2] "." p[4]] = $2 }
    n == 6 && p[5] == "per_op" && p[6] ~ /^(load_misses|flushes|fences|store_misses)$/ {
      print sec[p[2]] "/" op[p[2] "." p[4]], p[6], $2
    }' "$1.leaves"
}

extract layout_baseline.json > baseline.metrics
extract bench_layout.json > current.metrics

if [ "$(wc -l < current.metrics)" -eq 0 ]; then
  echo "check_layout_regression: no metrics extracted" >&2
  exit 1
fi

paste baseline.metrics current.metrics | awk -v tol="$TOL" -v abs="$ABS" '
  {
    if ($1 != $4 || $2 != $5) {
      print "metric list mismatch (regenerate layout_baseline.json?): " $0
      bad = 1
      next
    }
    b = $3 + 0; c = $6 + 0
    d = c - b; if (d < 0) d = -d
    lim = b * tol; if (lim < abs) lim = abs
    if (d > lim) {
      # every counter is a cost: a drop still fails (the baseline must
      # describe the current layout) but is not reported as a regression
      label = (c < b) ? "IMPROVED (re-record layout_baseline.json)" : "REGRESSION"
      printf "%s %s %s: baseline %.4f, current %.4f (tol %.4f)\n", \
        label, $1, $2, b, c, lim
      bad = 1
    }
  }
  END { exit bad }
'

echo "layout regression check: $(wc -l < current.metrics | tr -d ' ') per-op metrics within tolerance of baseline"
