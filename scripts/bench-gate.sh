#!/usr/bin/env bash
# Wall-clock regression gate: times the benchmark (perfbench/, declared in
# BENCHMARK.json) at a base revision and at the working tree on the same
# host, and fails when the working tree is more than 20% slower on any
# declared workload.
#
#   ./scripts/bench-gate.sh <base-rev>
#
# The base revision is checked out into a temporary `git worktree`, and each
# side builds perfbench from its own sources.  Every workload that
# BENCHMARK.json declares (and the base declares too) runs at seed 7 in
# alternating pairs, one run at a time.  The gate fails if any run does not
# report `"correct": true`, or if the change's median `ops_per_s` is below
# 0.8 x the base's median.  Needs git, cargo and jq.

set -euo pipefail
# Decimal points in every number the script parses and prints.
export LC_ALL=C

# Pairs per workload.  A median of five runs per side outlasts two runs
# caught in a slow stretch of a shared host (perfbench/BENCHMARK.md measured
# one switching between speed modes 1.8x apart), and swapping which side runs
# first in every other pair keeps a slow stretch from landing on one side
# only.
PAIRS=5
# Measured seconds per run.  At 10 s a closed-loop run still completes over a
# thousand scenarios of the same seeded sequence on both sides, and the whole
# gate (2 workloads x 2 sides x 5 pairs, plus each run's checked prefix)
# takes about five minutes.
RUN_SECONDS=10
# The change may be at most 20% slower than its base.
MIN_RATIO=0.8
SEED=7

base_rev=${1:?usage: scripts/bench-gate.sh <base-rev>}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "${base_rev}^{commit}")

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== bench-gate: base ${base_sha}, change = working tree =="
git worktree add --quiet --detach "$work/base" "$base_sha"

build() { # <checkout> <target dir>
    cargo build --release --locked --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
build "$work/base" "$work/base-target"
build "$root" "$root/perfbench/target"
declare -A binary=(
    [base]="$work/base-target/release/wnoc-perfbench"
    [change]="$root/perfbench/target/release/wnoc-perfbench"
)

# One timed run; prints its ops_per_s, or fails when the run is not correct.
run() { # <side> <workload>
    local line
    line=$("${binary[$1]}" --workload "$2" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0 | tail -n 1) || true
    if [ "$(jq -r '.correct' <<<"$line")" != true ]; then
        echo "bench-gate: FAIL ${2}: the ${1} run is not correct: ${line}" >&2
        return 1
    fi
    jq -r '.metrics.ops_per_s.value' <<<"$line"
}

median() {
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 }
        END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

base_workloads=$(jq -r '.workloads[].name' "$work/base/BENCHMARK.json")
failed=()
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    if ! grep -qx "$workload" <<<"$base_workloads"; then
        echo "bench-gate: ${workload}: not declared at the base, nothing to compare"
        continue
    fi
    declare -A ops=([base]="" [change]="")
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do
            ops[$side]+=" $(run "$side" "$workload")"
        done
        printf '%s pair %d: base %.1f, change %.1f ops/s\n' \
            "$workload" "$pair" "${ops[base]##* }" "${ops[change]##* }"
    done
    base_median=$(median ${ops[base]})
    change_median=$(median ${ops[change]})
    ratio=$(awk -v c="$change_median" -v b="$base_median" 'BEGIN { printf "%.3f", c / b }')
    verdict=ok
    if awk -v r="$ratio" -v m="$MIN_RATIO" 'BEGIN { exit !(r < m) }'; then
        verdict=FAIL
        failed+=("${workload} (ratio ${ratio})")
    fi
    printf 'bench-gate: %s %s: median ops_per_s base %.1f, change %.1f, ratio %s (floor %s)\n' \
        "$verdict" "$workload" "$base_median" "$change_median" "$ratio" "$MIN_RATIO"
done

if [ ${#failed[@]} -gt 0 ]; then
    echo "bench-gate: FAIL: slower than ${MIN_RATIO} x the base on: ${failed[*]}" >&2
    exit 1
fi
echo "bench-gate: every declared workload within ${MIN_RATIO} x the base"
