#!/usr/bin/env bash
# Runs the socket-server load benchmark — 10,000 concurrent loopback
# connections of framed `branches`/`log_page` reads plus concurrent push
# traffic against one hub process, plus the overload scenario
# (2x-capacity offered load against a capped server, measuring shed rate
# and served p99) — and writes the headline numbers (connection count,
# latency percentiles, throughput, the inline-hex vs side-channel bundle
# byte ratio, and the overload shed numbers) to BENCH_load.json at the
# repository root, so the server's capacity is tracked PR over PR.
#
# The bundle_bytes keys keep their historical names: `line`/`v2_line`
# is the bundle with its objects inline as hex, `binary`/`v3_binary` the
# same bundle on the compressed side channel.
#
# Usage: scripts/bench_load.sh [output.json]
# Env:   GITCITE_LOAD_CONNS=<n> overrides the 10k connection target.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_load.json}"

# Each side of the loopback needs one fd per connection; raise the soft
# limit as far as this shell may.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

raw="$(cargo bench --bench hub_load 2>&1)"
echo "$raw"

# The bench emits data lines:
#   hub_load_conns target=10000 achieved=10000
#   hub_load_latency p50_us=20968 p99_us=57256 mean_us=23024
#   hub_load_throughput requests=30040 wall_ms=14535 req_per_s=2067
#   hub_load_pushes writers=8 pushes=40
#   hub_load_bundle_bytes commits=5000 line=3311256 binary=854558 ratio=3.87
#   hub_load_overload capacity=256 offered=512 served=256 shed=256 shed_rate=0.50 p99_uncontended_us=900 p99_served_us=1100
echo "$raw" | awk '
$1 ~ /^hub_load_/ {
    section = substr($1, 10)
    for (i = 2; i <= NF; i++) {
        split($i, kv, "=")
        v[section "." kv[1]] = kv[2]
    }
}
END {
    printf "{\n  \"benchmark\": \"hub_load\",\n"
    printf "  \"workload\": \"%d concurrent loopback connections, %d mixed read/push requests\",\n", \
        v["conns.target"], v["throughput.requests"]
    printf "  \"connections\": {\"target\": %d, \"achieved\": %d},\n", \
        v["conns.target"], v["conns.achieved"]
    printf "  \"latency_us\": {\"p50\": %d, \"p99\": %d, \"mean\": %d},\n", \
        v["latency.p50_us"], v["latency.p99_us"], v["latency.mean_us"]
    printf "  \"throughput\": {\"requests\": %d, \"wall_ms\": %d, \"req_per_s\": %d},\n", \
        v["throughput.requests"], v["throughput.wall_ms"], v["throughput.req_per_s"]
    printf "  \"pushes\": {\"writers\": %d, \"completed\": %d},\n", \
        v["pushes.writers"], v["pushes.pushes"]
    printf "  \"bundle_bytes\": {\"commits\": %d, \"v2_line\": %d, \"v3_binary\": %d, \"ratio\": %.2f},\n", \
        v["bundle_bytes.commits"], v["bundle_bytes.line"], v["bundle_bytes.binary"], v["bundle_bytes.ratio"]
    printf "  \"overload\": {\"capacity\": %d, \"offered\": %d, \"served\": %d, \"shed\": %d, \"shed_rate\": %.2f, \"p99_uncontended_us\": %d, \"p99_served_us\": %d}\n", \
        v["overload.capacity"], v["overload.offered"], v["overload.served"], v["overload.shed"], \
        v["overload.shed_rate"], v["overload.p99_uncontended_us"], v["overload.p99_served_us"]
    printf "}\n"
}' > "$out"

echo
echo "wrote $out:"
cat "$out"
