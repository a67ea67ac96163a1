#!/bin/sh
# Domain-parallel service gate: the epoch-exchange engine must produce
# byte-identical reports regardless of how many domains execute it.
#
# (a) serve-sim --domains 1 (sequential round-robin) and --domains 4
#     (shard stations pinned to worker domains) on the smoke workload
#     must emit byte-identical SLO JSON, span JSON, and Obs totals;
# (b) a mid-run one-shard power failure under --domains 4 with detect=on must
#     recover in-line with zero lost requests, a non-empty replay and the
#     recorded per-shard completed-in-outage counts, while the report stays
#     byte-identical to --domains 1.
#
# Usage: check_domains.sh <path-to-upskip_cli> <path-to-json_check>
set -eu

CLI="$1"
# `json_check FILE PATH` prints one field; under set -e a missing field or
# an invalid document fails the gate.
JSON_CHECK="$2"
tmp="${TMPDIR:-/tmp}/svc_domains.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

smoke() {
  # $1 = domains, $2 = output prefix
  "$CLI" serve-sim shards=4 zones=2 clients=8 requests=200 load=40 \
    workload=a queue_cap=64 keys=10000 latency=uniform mode=striped \
    spans=on --domains "$1" \
    --json-out "$2.json" --span-json "$2.spans.json" --obs-out "$2.obs.json" \
    >"$2.out" 2>&1
}

smoke 1 "$tmp/d1"
smoke 4 "$tmp/d4"
for kind in json spans.json obs.json; do
  cmp -s "$tmp/d1.$kind" "$tmp/d4.$kind" || {
    echo "FAIL: --domains 1 and --domains 4 differ on $kind" >&2
    cmp "$tmp/d1.$kind" "$tmp/d4.$kind" >&2 || true
    exit 1
  }
done
echo "ok: smoke workload byte-identical across --domains 1/4 (slo, spans, obs)"

crash() {
  # $1 = domains, $2 = output prefix
  "$CLI" serve-sim detect=on shards=4 zones=2 clients=8 requests=400 \
    load=40 workload=a queue_cap=64 keys=10000 latency=uniform \
    mode=striped crash=1@30000 --domains "$1" \
    --json-out "$2.json" >"$2.out" 2>&1
}

crash 1 "$tmp/c1"
crash 4 "$tmp/c4"
cmp -s "$tmp/c1.json" "$tmp/c4.json" || {
  echo "FAIL: crash report differs between --domains 1 and --domains 4" >&2
  exit 1
}
lost=$("$JSON_CHECK" "$tmp/c4.json" lost)
[ "$lost" = 0 ] || {
  echo "FAIL: detectable crash under --domains 4 lost $lost requests" >&2
  exit 1
}
replayed=$("$JSON_CHECK" "$tmp/c4.json" replayed)
[ "$replayed" -gt 0 ] || {
  echo "FAIL: detectable crash under --domains 4 replayed nothing" >&2
  exit 1
}
# completions over the rounds the outage spans, per shard: a capture one
# round early or late moves them
for pin in 0:606 1:8 2:396 3:572; do
  s=${pin%%:*}
  want=${pin#*:}
  got=$("$JSON_CHECK" "$tmp/c4.json" "shards.$s.completed_in_outage")
  [ "$got" = "$want" ] || {
    echo "FAIL: shard $s completed $got requests in the outage, want $want" >&2
    exit 1
  }
done
echo "ok: power failure under --domains 4: lost 0, replayed $replayed, identical to --domains 1"
echo "domain-parallel service is deterministic"
