#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seconds 4] [--seed 1]

Checks that the benchmark's own gates can fail:
  1. a cluster whose servers admit one request at a time
     (max_pending_requests = 1) must report failed operations;
  2. a reply corrupted before the client decodes it must trip the output
     check (correct = false, nonzero exit);
  3. a sampled GetRegion reply altered after it decoded (one landmark
     dropped) must trip the comparison with the in-process region;
  4. a directory holding only BENCHMARK.json and perfbench/ must fail
     without printing a result.
Then runs every workload twice on the same seed in short mode and prints
how far apart the two runs' end-to-end metrics are. Exits nonzero when a
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(workload, seed, seconds, sets=(), cwd=ROOT, runner=None):
    cmd = list(runner or RUN) + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    for kv in sets:
        cmd += ["--set", kv]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = []

    code, result, _ = run("tile_fetch", args.seed, args.seconds,
                          ["max_pending_requests=1"])
    ok = result is not None and result["failed"] > 0
    print("admission cap 1 -> failed %s of %s: %s" % (
        result and result["failed"], result and result["attempted"],
        "ok" if ok else "FAIL"))
    if not ok:
        failures.append("tiny admission cap did not produce failures")

    for workload in ("tile_fetch", "region_fetch"):
        code, result, _ = run(workload, args.seed, args.seconds, ["tamper=1"])
        ok = code != 0 and result is not None and not result["correct"]
        print("%s tampered reply -> exit %d, correct %s: %s" % (
            workload, code, result and result["correct"],
            "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s: tampered reply passed the output check"
                            % workload)

    code, result, out = run("region_fetch", args.seed, args.seconds,
                            ["tamper=2"])
    caught = "sampled GetRegion replies differ" in out
    ok = code != 0 and result is not None and not result["correct"] and caught
    print("region_fetch altered sampled region -> exit %d, compared %s: %s" % (
        code, caught, "ok" if ok else "FAIL"))
    if not ok:
        failures.append("an altered sampled GetRegion reply passed the "
                        "region comparison")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, result, _ = run("tile_fetch", args.seed, args.seconds, cwd=bare,
                          runner=[sys.executable, "perfbench/run.py"])
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and result is None
    print("bare directory -> exit %d, result printed %s: %s" % (
        code, result is not None, "ok" if ok else "FAIL"))
    if not ok:
        failures.append("benchmark ran without the program's sources")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    print("\nshort mode: two runs per workload, seed %d, %g s" %
          (args.seed, args.seconds))
    for workload in workloads:
        pair = [run(workload, args.seed, args.seconds) for _ in range(2)]
        if any(code != 0 or r is None or not r["correct"]
               for code, r, _ in pair):
            failures.append("%s: short run failed" % workload)
            print("  %s: run failed" % workload)
            continue
        a, b = pair[0][1]["metrics"], pair[1][1]["metrics"]
        for name in a:
            va, vb = a[name]["value"], b[name]["value"]
            mean = (va + vb) / 2
            diff = abs(va - vb) / mean if mean else 0.0
            print("  %-13s %-16s %12.4f %12.4f  %5.1f%% apart" % (
                workload, name, va, vb, diff * 100))

    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    print("\nall self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
