#!/usr/bin/env bash
# CI job: build the whole tree with AddressSanitizer + UBSan and run
# the tier-1 test suite. Catches lifetime bugs the plain build can't —
# e.g. stale Page or Block pointers left behind by the interpreter's
# block cache or the address-space TLB after an unmap.
#
# Usage: scripts/ci_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOCCLUM_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: a sanitizer report must fail the job, not scroll by.
export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Extra leg: the vm tests with the superblock tier forced on, so the
# trace translator, peephole fusions, and computed-goto replay loop
# run under ASan/UBSan even for tests that would otherwise exercise
# only the lower tiers (uop field-reuse bugs — pack slots, fused
# check charges, trace linking — are exactly the out-of-bounds /
# aliasing class sanitizers catch).
OCCLUM_VM_SUPERBLOCK=1 "$BUILD_DIR/tests/vm_test"

# Extra leg: the SMP scheduler under the sanitizers. OCCLUM_CORES=4
# reruns every OcclumSystem scenario over per-core run queues, and
# the targeted batteries exercise stealing, cross-core wakeups, and
# the dup2/epoll fd-lifecycle paths (the roster use-after-free class
# only ASan can see).
OCCLUM_CORES=4 "$BUILD_DIR/tests/libos_test"
OCCLUM_CORES=4 "$BUILD_DIR/tests/epoll_test"
"$BUILD_DIR/tests/oskit_test" --gtest_filter='Smp.*:Regression.*:Timers.*'

# Extra leg: the transition-orderliness battery (DESIGN.md §9) under
# the sanitizers with the monitor in strict mode — the AEX storms and
# SmashEx-shaped refusal paths walk the SSA snapshot, scrub, and TCS
# rebind code where a lifetime bug would hide, and any illegal
# enclave transition panics instead of being counted.
OCCLUM_ORDERLINESS=strict "$BUILD_DIR/tests/orderliness_test"

# Extra leg: the scalar crypto kernels under the sanitizers. On hosts
# with the SHA extensions the default run above hashes through the
# SHA-NI kernel; reference mode forces scalar SHA-256 (and byte-wise
# AES) through the measurement, OELF digest and signing paths.
for t in crypto_test sgx_test toolchain_test verifier_test; do
    OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/$t"
done
