#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload exec_nets --seed 1 --seconds 15 --trace 0

Builds perfbench/ (and with it the library from src/) into
.bench_build/perfbench on first use, runs the benchmark's own test,
then runs one workload. The last line of stdout is the result JSON:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs
every workload in turn and prints all their metrics in one result.
Exits 1 without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
CFG = os.path.join(HERE, "mobilenet_v1.cfg")
WORKLOADS = ["exec_nets", "plan_cold", "serve_warm"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring it up to date."""
    jobs = str(max(1, min(3, (os.cpu_count() or 2) - 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    test = subprocess.run(
        [os.path.join(BUILD, "perfbench_selftest"), CFG],
        stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        log("perfbench_selftest failed")
        return False
    return True


def run_one(workload, args):
    """Run one workload; return its parsed result, or None."""
    cmd = [os.path.join(BUILD, "mopt_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cfg", CFG, "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it.
        sys.stdout.write(e.stdout or "")
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"{workload}: exited with {done.returncode}")
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a result: {lines[-1]!r}")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 1
    results = []
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        res = run_one(w, args)
        if res is None:
            return 1
        results.append(res)
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    ran = WORKLOADS if len(results) > 1 else [args.workload]
    names = [n for r in results for n in r["metrics"]]
    for w, r in zip(ran, results):
        for name, m in r["metrics"].items():
            # Per-workload metrics such as setup_s get the workload name.
            key = f"{w}.{name}" if names.count(name) > 1 else name
            merged["metrics"][key] = m
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
