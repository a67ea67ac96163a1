#!/bin/sh
# Exactly-once gate: seeded crash-replay campaigns with detectable
# operations must (a) report zero duplicate applies and zero lost acks,
# (b) actually exercise the replay path, (c) be byte-identical across
# repeated runs and across -j1/-j4, (d) catch the skip_resolve mutant
# (recovery that omits the descriptor resolve pass double-applies), and
# (e) lose nothing in a service-level shard power failure.
#
# Usage: check_exactly_once.sh <path-to-upskip_cli> <path-to-json_check>
set -eu

CLI="$1"
# `json_check FILE PATH` prints one field; under set -e a missing field or
# an invalid document fails the gate.
JSON_CHECK="$2"
tmp="${TMPDIR:-/tmp}/exactly_once.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

campaign() {
  # $1 = output json, $2 = jobs, $3 = mutant; exit status passed through
  "$CLI" crash-sweep detect=on mutant="$3" -j "$2" \
    mode=striped threads=4 keyspace=60 ops=60 depth=1 draw=43 \
    --origin 1500 --stride 900 --points 6 --jitter 300 --draws 2 \
    --json-out "$1"
}

# clean campaign, twice: zero violations, replay path exercised,
# byte-identical reruns
campaign "$tmp/a.json" 1 none >"$tmp/a.out" 2>&1
campaign "$tmp/b.json" 1 none >"$tmp/b.out" 2>&1
cmp -s "$tmp/a.json" "$tmp/b.json" || {
  echo "FAIL: campaign summary not deterministic across reruns" >&2
  exit 1
}
violations=$("$JSON_CHECK" "$tmp/a.json" violation_trials)
[ "$violations" = 0 ] || {
  echo "FAIL: clean campaign reported exactly-once violations" >&2
  exit 1
}
audit_failures=$("$JSON_CHECK" "$tmp/a.json" audit_failures)
[ "$audit_failures" = 0 ] || {
  echo "FAIL: clean campaign reported audit failures" >&2
  exit 1
}
replays=$("$JSON_CHECK" "$tmp/a.json" replays)
[ "$replays" -gt 0 ] || {
  echo "FAIL: campaign never exercised the replay path" >&2
  exit 1
}

# domain-parallel verdict parity
campaign "$tmp/j4.json" 4 none >"$tmp/j4.out" 2>&1
cmp -s "$tmp/a.json" "$tmp/j4.json" || {
  echo "FAIL: -j1 and -j4 campaign summaries differ" >&2
  exit 1
}
echo "ok: clean campaign, $replays replays, deterministic, -j1/-j4 identical"

# the mutant that skips the recovery resolve pass must be caught
if campaign "$tmp/mut.json" 1 skip_resolve >"$tmp/mut.out" 2>&1; then
  echo "FAIL: skip_resolve mutant not caught (exit 0)" >&2
  exit 1
fi
mut_violations=$("$JSON_CHECK" "$tmp/mut.json" violation_trials)
[ "$mut_violations" = 0 ] && {
  echo "FAIL: skip_resolve mutant caught but no violation trials recorded" >&2
  exit 1
}
echo "ok: skip_resolve mutant caught"

# service-level shard power failure: with detect=on nothing is lost and
# stranded work is replayed. The clients send their 1600 requests over the
# first ~40 us, so at 35 us shard 1 still has a backlog to strand.
"$CLI" serve-sim detect=on shards=4 zones=4 clients=4 requests=400 \
  load=40 workload=a queue_cap=64 keys=10000 latency=uniform mode=striped \
  crash=1@35000 --json-out "$tmp/svc.json" \
  >"$tmp/svc.out" 2>&1
svc_lost=$("$JSON_CHECK" "$tmp/svc.json" lost)
[ "$svc_lost" = 0 ] || {
  echo "FAIL: detectable service crash lost $svc_lost requests" >&2
  exit 1
}
svc_replayed=$("$JSON_CHECK" "$tmp/svc.json" replayed)
[ "$svc_replayed" -gt 0 ] || {
  echo "FAIL: detectable service crash stranded no work (replayed=0)" >&2
  exit 1
}
echo "ok: service power failure: lost 0, replayed $svc_replayed"
echo "exactly-once holds"
