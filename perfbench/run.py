#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library sources plus the perfbench binary into .bench_build/
(RelWithDebInfo, the repository's default build type); later calls rebuild
only what changed.
Build output goes to stderr, so the last line of stdout is the binary's JSON
result. `--workload all` runs every workload in turn (one process each, so
peak_rss_mb stays per workload) and ends with one combined JSON line whose
metric names are prefixed with the workload name.

    python3 perfbench/run.py --self-test

builds and runs the benchmark-local hook test (perfbench_hooks_test).

Exit status: the binary's (0 = every output check passed, 1 = a check
failed), or 1 when the build fails or a run exceeds its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("mixed-hetero", "lstm-imbalance", "lockstep-comm")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(cmd, capture):
    """Runs cmd to completion; returns (exit code, stdout text or None).

    The binary forks one child per seed, so it runs in its own process group
    and the whole group is killed at the time limit (or on Ctrl-C)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException as e:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        print(f"perfbench: {cmd[0]} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_hooks_test"):
            return 1
        return run([str(BUILD / "perfbench_hooks_test")], capture=False)[0]
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1

    def perfbench(workload):
        return [str(BUILD / "perfbench"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--trace-dir", str(BUILD / "traces")]

    if args.workload != "all":
        return run(perfbench(args.workload), capture=False)[0]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, out = run(perfbench(workload), capture=True)
        if not out:
            return 1
        sys.stdout.write(out)
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except ValueError:
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return 1
        status = max(status, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
