#!/bin/sh
# Lint: no new toplevel mutable globals in the simulation core or the
# service layers.
#
# lib/sim, lib/pmem, lib/mem, lib/core, lib/svc, lib/obs and lib/detect
# must stay safe to run on concurrent domains (Sim.Pool fans independent simulations out in
# parallel, and Svc.Domains pins one shard station per worker domain).
# All run-scoped mutable state lives either inside a per-run/per-instance
# record or in Domain.DLS; a toplevel `ref`, mutable array, hashtable, or
# buffer would be silently shared across domains and break the
# byte-identical-output guarantee of `bench -j N` and `--domains N`.
#
# Usage: check_no_global_state.sh DIR...
# Exits non-zero and prints the offending lines if any are found.

set -eu

status=0
for dir in "$@"; do
  # toplevel = column 0; values whose RHS starts with a mutable constructor
  matches=$(grep -nE \
    "^let [a-zA-Z_0-9']+( *: *[^=]*)? = *(ref |Array\.(make|create|init)|Hashtbl\.create|Buffer\.create|Bytes\.(make|create)|Queue\.create|Stack\.create)" \
    "$dir"/*.ml 2>/dev/null) || continue
  if [ -n "$matches" ]; then
    echo "toplevel mutable global(s) in $dir (move into the run/instance state or Domain.DLS):" >&2
    echo "$matches" >&2
    status=1
  fi
done
exit $status
