#!/bin/sh
# Span conservation gate: run the service simulation with span recording
# on the smoke workloads and fail unless every recorded span's phase
# durations sum to its SLO-recorded end-to-end latency exactly (at ns
# resolution: max residual 0.000000 ns, zero violations), and at least
# one span was actually recorded.
#
# Usage: check_span_conservation.sh <path-to-upskip_cli> <path-to-json_check>
set -eu

CLI="$1"
# `json_check FILE PATH` prints one field; under set -e a missing field or
# an invalid document fails the gate.
JSON_CHECK="$2"
tmp="${TMPDIR:-/tmp}/span_conservation.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

check() {
  wl="$1"
  out="$tmp/spans_$wl.json"
  "$CLI" serve-sim --workload "$wl" --clients 8 --requests 128 --seed 42 \
    --spans --span-json "$out" >"$tmp/stdout_$wl" 2>&1
  violations=$("$JSON_CHECK" "$out" spans.residual_violations)
  [ "$violations" = 0 ] || {
    echo "FAIL: workload $wl: residual_violations != 0" >&2
    exit 1
  }
  # the document prints the residual with 6 decimals; it reads back as 0
  # exactly when it printed 0.000000
  residual=$("$JSON_CHECK" "$out" spans.residual_max_ns)
  [ "$residual" = 0 ] || {
    echo "FAIL: workload $wl: residual_max_ns != 0.000000" >&2
    exit 1
  }
  count=$("$JSON_CHECK" "$out" spans.count)
  [ "$count" -gt 0 ] || {
    echo "FAIL: workload $wl: no spans recorded" >&2
    exit 1
  }
  echo "ok: workload $wl: $count spans, residual 0.000000 ns, 0 violations"
}

check c
check a
echo "span conservation holds"
