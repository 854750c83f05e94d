#!/usr/bin/env bash
# CI job: smoke-test the benchmark recording pipeline. Runs the
# cheapest figure bench through scripts/bench_record.sh and checks
# that a snapshot with machine-readable JSON came out (plus the spawn
# and lighttpd benches, checked against the newest snapshot), so
# bench or script rot is caught on every push rather than at
# paper-figure time. The full (slow) suite is recorded manually via
# scripts/bench_record.sh.
#
# Usage: scripts/ci_bench_smoke.sh [build-dir]   (default: build-bench)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
LABEL="ci-smoke"

BENCH_FILTER='bench_fig6cd_file_io' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL"

OUT_DIR="bench/results/$LABEL"
JSON="$OUT_DIR/BENCH_fig6cd_file_io.json"
if [ ! -s "$JSON" ]; then
    echo "smoke failed: $JSON missing or empty" >&2
    exit 1
fi
grep -q '"rows"\|"name"' "$JSON" ||
    { echo "smoke failed: $JSON has no report payload" >&2; exit 1; }

# Superblock-off leg: the same bench with the trace tier pinned off
# (OCCLUM_VM_SUPERBLOCK=0). The fig6cd report is simulated-time only
# and the tier is a wall-clock device, so the two JSONs must be
# byte-identical — any divergence means the tier perturbed simulated
# results and fails CI here.
OCCLUM_VM_SUPERBLOCK=0 BENCH_FILTER='bench_fig6cd_file_io' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL-sb0"
JSON_SB0="bench/results/$LABEL-sb0/BENCH_fig6cd_file_io.json"
cmp "$JSON" "$JSON_SB0" ||
    { echo "smoke failed: superblock tier changed simulated results" >&2;
      exit 1; }

# Spawn leg: bench_fig6a_spawn loads binaries up to a 14 MiB cc1 on
# the Linux model, EIP and Occlum and reports simulated time only, so
# its JSON must equal the newest recorded snapshot's copy byte for
# byte. A loader, verifier or toolchain change that moves a simulated
# spawn cost fails here; an intended move needs a new snapshot.
SNAPSHOT_JSON="$(ls -d bench/results/20*/BENCH_fig6a_spawn.json | sort | tail -n 1)"
BENCH_FILTER='bench_fig6a_spawn' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL-spawn"
cmp "bench/results/$LABEL-spawn/BENCH_fig6a_spawn.json" "$SNAPSHOT_JSON" ||
    { echo "smoke failed: fig6a spawn results differ from $SNAPSHOT_JSON" >&2;
      exit 1; }

# Idle-connection leg: bench_fig5c_lighttpd serves through poll,
# epoll and the reverse proxy with up to a million idle connections
# open. Its four JSONs hold simulated rows only, so each must equal
# the newest snapshot's copy byte for byte. A change to the fd table,
# the epoll interest list, the socket registry or the NetSim queues
# that moves a simulated figure fails here.
BENCH_FILTER='bench_fig5c_lighttpd' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL-lighttpd"
for name in BENCH_fig5c_lighttpd BENCH_fig5c_lighttpd_proxy \
            BENCH_fig5c_lighttpd_sweep BENCH_fig5c_lighttpd_sweep_epoll; do
    SNAPSHOT_JSON="$(ls -d bench/results/20*/"$name.json" | sort | tail -n 1)"
    cmp "bench/results/$LABEL-lighttpd/$name.json" "$SNAPSHOT_JSON" ||
        { echo "smoke failed: $name differs from $SNAPSHOT_JSON" >&2;
          exit 1; }
done

# The smoke snapshots are CI artifacts, not recorded results.
rm -rf "$OUT_DIR" "bench/results/$LABEL-sb0" "bench/results/$LABEL-spawn" \
    "bench/results/$LABEL-lighttpd"
echo "bench smoke OK"
