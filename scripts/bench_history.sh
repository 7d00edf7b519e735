#!/usr/bin/env bash
# Runs the history-walk benchmark (commit-graph vs decode walk for `log`,
# its first 25-entry page and `merge_base`) and writes the headline
# numbers to BENCH_history.json at the repository root, so the perf
# trajectory is tracked PR over PR.
#
# Usage: scripts/bench_history.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_history.json}"

raw="$(cargo bench --bench history_walk 2>&1)"
echo "$raw"

# Bench lines look like:
#   history_walk/log_graph/10000     468.61 µs/iter  (1921 iters)
# Normalize every mean to nanoseconds, emit one JSON object per line,
# and derive decode/graph speedups for each paired benchmark.
echo "$raw" | awk '
function ns(value, unit) {
    if (unit == "ns") return value
    if (unit == "µs") return value * 1e3
    if (unit == "ms") return value * 1e6
    if (unit == "s")  return value * 1e9
    return -1
}
$1 ~ /^history_walk\// {
    split($1, parts, "/")
    name = parts[2] "/" parts[3]
    unit = $3; sub("/iter.*", "", unit)
    mean[name] = ns($2 + 0, unit)
    order[++n] = name
}
END {
    printf "{\n  \"benchmark\": \"history_walk\",\n  \"unit\": \"ns/iter\",\n  \"results\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": %.1f%s\n", name, mean[name], (i < n ? "," : "")
    }
    printf "  },\n  \"speedup_graph_over_decode\": {\n"
    m = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name !~ /_graph\//) continue
        twin = name; sub("_graph/", "_decode/", twin)
        if (!(twin in mean) || mean[name] <= 0) continue
        pair[++m] = name
        ratio[name] = mean[twin] / mean[name]
    }
    for (i = 1; i <= m; i++) {
        name = pair[i]
        label = name; sub("_graph/", "/", label)
        printf "    \"%s\": %.2f%s\n", label, ratio[name], (i < m ? "," : "")
    }
    printf "  }\n}\n"
}' > "$out"

echo
echo "wrote $out:"
cat "$out"
