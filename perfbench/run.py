#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the repository root. The first call configures and builds
perfbench/ (the simulator's libraries plus the occbench driver) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. The last line of standard output is the run's JSON result;
--all runs the four workloads one after another and prints each.

The simulator reads a few environment knobs (core count, interpreter
tier, fault plan, orderliness mode, reference crypto). The benchmark
pins those itself, so they are removed from the driver's environment
and reported on the meta line.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["gcc_pipeline", "spec_mmdsfi", "web_proxy", "encfs_io"]
PINNED_ENV = [
    "OCCLUM_CORES",
    "OCCLUM_VM_SUPERBLOCK",
    "OCCLUM_FAULT_PLAN",
    "OCCLUM_ORDERLINESS",
    "OCCLUM_CRYPTO_REFERENCE",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configure (once) and build occbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "occbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "occbench")


def run_one(binary, workload, seed, seconds, trace, commit, env):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"{workload}: occbench exited with status {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    binary = build()
    env = dict(os.environ)
    pinned = [name for name in PINNED_ENV if env.pop(name, None) is not None]
    print("meta: pinned_env_removed=" + (",".join(pinned) or "none"))
    commit = source_id()
    for workload in WORKLOADS if args.all else [args.workload]:
        run_one(binary, workload, args.seed, args.seconds, args.trace, commit,
                env)


if __name__ == "__main__":
    main()
