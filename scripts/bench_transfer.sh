#!/usr/bin/env bash
# Runs the transfer benchmark (full-closure vs negotiated push of 10 new
# commits onto a 5k-commit hosted repository; a clone of that history
# from the one pack its import wrote, the raw walk behind it, and the
# framing of its response) and writes the headline numbers — bytes on
# the wire, object counts and wall times — to
# BENCH_transfer.json at the repository root, so the transport trajectory
# is tracked PR over PR.
#
# Usage: scripts/bench_transfer.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_transfer.json}"

raw="$(cargo bench --bench transfer 2>&1)"
echo "$raw"

# The bench emits two kinds of lines:
#   transfer_bytes full=3318018 negotiated=9522 ratio=348.5
#   transfer_objects full=15031 negotiated=30
#   transfer/push_full      48.06 ms/iter  (29 iters)
echo "$raw" | awk '
function ns(value, unit) {
    if (unit == "ns") return value
    if (unit == "µs") return value * 1e3
    if (unit == "ms") return value * 1e6
    if (unit == "s")  return value * 1e9
    return -1
}
$1 == "transfer_bytes" {
    for (i = 2; i <= NF; i++) {
        split($i, kv, "=")
        bytes[kv[1]] = kv[2]
    }
}
$1 == "transfer_objects" {
    for (i = 2; i <= NF; i++) {
        split($i, kv, "=")
        objects[kv[1]] = kv[2]
    }
}
$1 ~ /^transfer\// {
    split($1, parts, "/")
    name = parts[2]
    unit = $3; sub("/iter.*", "", unit)
    mean[name] = ns($2 + 0, unit)
    order[++n] = name
}
END {
    printf "{\n  \"benchmark\": \"transfer\",\n"
    printf "  \"workload\": \"10 new commits onto a 5000-commit repository; clone_pack_storage clones it from its import pack; walk_raw and frame_encode time the walk and the framing of that clone\",\n"
    printf "  \"wire_bytes\": {\"full\": %d, \"negotiated\": %d, \"ratio\": %.1f},\n", \
        bytes["full"], bytes["negotiated"], bytes["ratio"]
    printf "  \"objects\": {\"full\": %d, \"negotiated\": %d},\n", \
        objects["full"], objects["negotiated"]
    printf "  \"wall_ns_per_iter\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": %.1f%s\n", name, mean[name], (i < n ? "," : "")
    }
    printf "  }"
    if (mean["push_negotiated"] > 0) {
        printf ",\n  \"speedup_negotiated_over_full\": %.2f\n", \
            mean["push_full"] / mean["push_negotiated"]
    } else {
        printf "\n"
    }
    printf "}\n"
}' > "$out"

echo
echo "wrote $out:"
cat "$out"
