#!/bin/sh
# Byte-identity check for the -j flag: a parallel bench run must produce
# exactly the sequential report and --json samples. Host wall-clock lines
# ("[x finished in y s]", "total wall time") are the only permitted
# differences in the report; the --json document carries no wall clock
# and must match whole.

set -eu

strip_wall() {
  grep -v -e 'finished in' -e 'total wall time' -e 'perf trajectory written' "$1"
}

strip_wall smoke_j1.out > j1.stripped
strip_wall smoke_j4.out > j4.stripped
if ! cmp -s j1.stripped j4.stripped; then
  echo "bench stdout differs between -j 1 and -j 4:" >&2
  diff j1.stripped j4.stripped >&2 || true
  exit 1
fi

if ! cmp -s smoke_j1.json smoke_j4.json; then
  echo "bench --json samples differ between -j 1 and -j 4:" >&2
  diff smoke_j1.json smoke_j4.json >&2 || true
  exit 1
fi

echo "-j determinism: smoke report and JSON byte-identical (j1 vs j4)"
