#!/usr/bin/env python3
"""Builds and runs the hdmap serving benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tile_fetch --seed 1 --seconds 30 --trace 0

The benchmark is built from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build) on first use. Workload parameters are constants of
the benchmark program (perfbench/cpp/workloads.cc); each run prints them
on its first line. The last line of standard output is the
result JSON; the exit code is nonzero when the program cannot be built or
an output check fails. `--workload all` runs every workload (tile_fetch,
region_fetch, fleet_update), one process each, and exits nonzero if any of
them fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
ALL_WORKLOADS = ("tile_fetch", "region_fetch", "fleet_update")


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "hdmap_perfbench",
             "-j", str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hdmap_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="pass --KEY=VALUE to the program (self-test "
                             "hooks: max_pending_requests, tamper)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no hdmap sources at %s/src" % ROOT, file=sys.stderr)
        return 3
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    data_dir = os.path.join(ROOT, ".bench_data")
    os.makedirs(data_dir, exist_ok=True)
    workloads = ALL_WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--data_dir=" + data_dir] + ["--" + kv for kv in args.set]
        sys.stdout.flush()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            code = 4
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
