#!/usr/bin/env bash
# Record a benchmark snapshot: Release-build the figure benches, run
# each one, and collect the machine-readable BENCH_*.json files they
# emit into a dated directory under bench/results/. Committing a
# snapshot pins the numbers a PR claims (speedups, overhead
# percentages) to a commit, so regressions show up as a diff instead
# of a memory.
#
# Usage: scripts/bench_record.sh [build-dir] [label]
#   build-dir  CMake build tree to (re)configure as Release
#              (default: build-bench)
#   label      snapshot directory name under bench/results/
#              (default: today's date, YYYY-MM-DD)
#   BENCH_FILTER  optional regex; only benches matching it run
#                 (used by ci_bench_smoke.sh to keep CI fast)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
LABEL="${2:-$(date +%Y-%m-%d)}"
FILTER="${BENCH_FILTER:-.}"
OUT_DIR="bench/results/$LABEL"

BENCHES=(
    bench_fig5a_fish
    bench_fig5b_gcc
    bench_fig5c_lighttpd
    bench_fig6a_spawn
    bench_fig6b_pipe
    bench_fig6cd_file_io
    bench_fig7a_specint
    bench_fig7b_breakdown
    bench_ablation_optimizations
    bench_attested_rpc
    bench_smp
    bench_ripe_security
)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
TARGETS=()
for b in "${BENCHES[@]}"; do
    [[ "$b" =~ $FILTER ]] && TARGETS+=("$b")
done
if [ "${#TARGETS[@]}" -eq 0 ]; then
    echo "BENCH_FILTER='$FILTER' matches no benches" >&2
    exit 1
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

mkdir -p "$OUT_DIR"
{
    echo "commit: $(git rev-parse HEAD 2>/dev/null || echo unknown)"
    if git diff --quiet HEAD -- 2>/dev/null; then
        echo "tree:   clean"
    else
        echo "tree:   uncommitted changes on top of commit"
    fi
    echo "date:   $(date -u +%Y-%m-%dT%H:%M:%SZ)"
    echo "host:   $(uname -srm)"
    echo "filter: $FILTER"
} > "$OUT_DIR/MANIFEST.txt"

REPO_ROOT="$PWD"
for b in "${TARGETS[@]}"; do
    echo "== $b =="
    # Benches write BENCH_<name>.json into their working directory,
    # so run them from the snapshot directory; keep stdout as the
    # human-readable table log alongside the JSON.
    (cd "$OUT_DIR" &&
        "$REPO_ROOT/$BUILD_DIR/bench/$b" | tee "$b.log")
done

echo
echo "snapshot recorded in $OUT_DIR:"
ls "$OUT_DIR"
