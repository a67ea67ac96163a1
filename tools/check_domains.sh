#!/bin/sh
# Domain-parallel service gate: the epoch-exchange engine must produce
# byte-identical reports regardless of how many domains execute it.
#
# (a) serve-sim --domains 1 (sequential round-robin) and --domains 4
#     (shard stations pinned to worker domains) on the smoke workload
#     must emit byte-identical SLO JSON, span JSON, and Obs totals;
# (b) a mid-run one-shard power failure under --domains 4 --detect must
#     recover in-line with zero lost requests and a non-empty replay,
#     while the report stays byte-identical to --domains 1.
#
# Usage: check_domains.sh <path-to-upskip_cli>
set -eu

CLI="$1"
tmp="${TMPDIR:-/tmp}/svc_domains.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# First value of integer field $1 in one-line JSON file $2. The SLO
# report's top-level totals precede its per-shard and per-client objects,
# which reuse the same keys, so the first match is the run total.
first_int() {
  grep -o "\"$1\":[0-9]*" "$2" | head -1 | cut -d: -f2
}

smoke() {
  # $1 = domains, $2 = output prefix
  "$CLI" serve-sim --domains "$1" --shards 4 --zones 2 --clients 8 \
    --requests 200 --load 40 --workload a --queue-cap 64 \
    --latency uniform --spans \
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
  "$CLI" serve-sim --domains "$1" --detect --shards 4 --zones 2 \
    --clients 8 --requests 400 --load 40 --workload a --queue-cap 64 \
    --latency uniform --crash-shard 1 --crash-at-us 30 \
    --json-out "$2.json" >"$2.out" 2>&1
}

crash 1 "$tmp/c1"
crash 4 "$tmp/c4"
cmp -s "$tmp/c1.json" "$tmp/c4.json" || {
  echo "FAIL: crash report differs between --domains 1 and --domains 4" >&2
  exit 1
}
lost=$(first_int lost "$tmp/c4.json")
[ "${lost:-}" = 0 ] || {
  echo "FAIL: detectable crash under --domains 4 lost ${lost:-?} requests" >&2
  exit 1
}
replayed=$(first_int replayed "$tmp/c4.json")
[ "${replayed:-0}" -gt 0 ] || {
  echo "FAIL: detectable crash under --domains 4 replayed nothing" >&2
  exit 1
}
echo "ok: power failure under --domains 4: lost 0, replayed $replayed, identical to --domains 1"
echo "domain-parallel service is deterministic"
