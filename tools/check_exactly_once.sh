#!/bin/sh
# Exactly-once gate: seeded crash-replay campaigns with detectable
# operations must (a) report zero duplicate applies and zero lost acks,
# (b) actually exercise the replay path, (c) be byte-identical across
# repeated runs and across -j1/-j4, (d) catch the skip_resolve mutant
# (recovery that omits the descriptor resolve pass double-applies), and
# (e) lose nothing in a service-level shard power failure.
#
# Usage: check_exactly_once.sh <path-to-upskip_cli>
set -eu

CLI="$1"
tmp="${TMPDIR:-/tmp}/exactly_once.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# First value of integer field $1 in one-line JSON file $2. The SLO
# report's top-level totals precede its per-shard and per-client objects,
# which reuse the same keys, so the first match is the run total.
first_int() {
  grep -o "\"$1\":[0-9]*" "$2" | head -1 | cut -d: -f2
}

campaign() {
  # $1 = output json, $2 = jobs, $3 = mutant; exit status passed through
  "$CLI" crash-sweep --detect --mutant "$3" -j "$2" \
    --threads 4 --keyspace 60 --ops-per-thread 60 \
    --origin 1500 --stride 900 --points 6 --jitter 300 --draws 2 --depth 1 \
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
grep -q '"violation_trials":0[,}]' "$tmp/a.json" || {
  echo "FAIL: clean campaign reported exactly-once violations" >&2
  exit 1
}
grep -q '"audit_failures":0[,}]' "$tmp/a.json" || {
  echo "FAIL: clean campaign reported audit failures" >&2
  exit 1
}
replays=$(sed -n 's/.*"replays":\([0-9][0-9]*\).*/\1/p' "$tmp/a.json")
[ "${replays:-0}" -gt 0 ] || {
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
grep -q '"violation_trials":0[,}]' "$tmp/mut.json" && {
  echo "FAIL: skip_resolve mutant caught but no violation trials recorded" >&2
  exit 1
}
echo "ok: skip_resolve mutant caught"

# service-level shard power failure: with --detect nothing is lost and
# stranded work is replayed
"$CLI" serve-sim --detect --shards 4 --zones 4 --clients 4 --requests 400 \
  --load 40 --workload a --queue-cap 64 --latency uniform \
  --crash-shard 1 --crash-at-us 50 --json-out "$tmp/svc.json" \
  >"$tmp/svc.out" 2>&1
svc_lost=$(first_int lost "$tmp/svc.json")
[ "${svc_lost:-}" = 0 ] || {
  echo "FAIL: detectable service crash lost ${svc_lost:-?} requests" >&2
  exit 1
}
svc_replayed=$(first_int replayed "$tmp/svc.json")
[ "${svc_replayed:-0}" -gt 0 ] || {
  echo "FAIL: detectable service crash stranded no work (replayed=0)" >&2
  exit 1
}
echo "ok: service power failure: lost 0, replayed $svc_replayed"
echo "exactly-once holds"
