#!/usr/bin/env bash
# CI job: the scheduler (DESIGN.md §3.4) across core counts.
#
#   leg 1: the full tier-1 suite with OCCLUM_CORES=1 — one core is
#          the degenerate round (one walk, nothing to steal) and must
#          reproduce the pre-SMP kernel exactly (the env var only
#          reaches OcclumSystem-based tests; the targeted Smp.* /
#          Scheduler.* / EpollWorkload.* batteries sweep core counts
#          internally on LinuxSystem regardless),
#   leg 2: the full tier-1 suite with OCCLUM_CORES=4 — every
#          OcclumSystem scenario reruns over per-core run queues,
#          work stealing, and cross-core wakeups. Tests that assert
#          an exact unicore interleaving pin Config::cores = 1, so
#          this leg must be as green as leg 1,
#   leg 3: a per-core AEX storm over the multi-core epoll
#          reverse-proxy scenario — each core's countdown slices its
#          own quanta, so every SSA save/scrub/restore happens on
#          the core (and TCS) that was actually interrupted, while
#          determinism is re-asserted run-to-run at cores {1,2,4}.
#   leg 4: the same storms with the transition-orderliness monitor
#          (DESIGN.md §9) in strict mode — an illegal EENTER / EEXIT /
#          AEX / ERESUME / rebind sequence on any TCS panics with
#          full context instead of being counted, so a scheduler
#          regression that services a SmashEx-shaped transition
#          cannot hide behind a green run.
#
# Usage: scripts/ci_smp.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

for cores in 1 4; do
    echo "=== tier-1 under OCCLUM_CORES=$cores ==="
    OCCLUM_CORES="$cores" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
done

echo "=== AEX storm over the multi-core proxy (per-core SSA) ==="
OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" OCCLUM_CORES=4 \
    "$BUILD_DIR/tests/epoll_test" \
    --gtest_filter='EpollWorkload.*'

echo "=== AEX storm over the SMP batteries ==="
OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" \
    "$BUILD_DIR/tests/oskit_test" --gtest_filter='Smp.*'

echo "=== monitor-strict: storms + orderliness battery ==="
OCCLUM_ORDERLINESS=strict OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" \
    OCCLUM_CORES=4 "$BUILD_DIR/tests/epoll_test" \
    --gtest_filter='EpollWorkload.*'
OCCLUM_ORDERLINESS=strict "$BUILD_DIR/tests/orderliness_test"
