#!/usr/bin/env python3
"""Build and run the Cinnamon end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call builds the tree's
libraries (Release) and the benchmark binary into .bench_build/; later
calls only re-check the build. The binary runs one workload, checks
its outputs and prints a human-readable report; the last line of
standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1; a Chrome trace is written under .bench_build/traces/).

With --trace 0 the set-up time is measured in SETUP_SAMPLES separate
processes (the measured run plus set-up-only runs) and the median is
reported, so one slow process start does not decide the figure.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve_open", "serve_burst", "emulate_n15", "compile_paper")
SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 850
# All benchmark processes of one call share this budget, so a call ends
# within 180 s of its build check even when a traced compile_paper run
# (two 30-40 s passes plus probes) goes slow.
RUN_BUDGET_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd, timeout):
    """Run a build step, its output on stderr (stdout is the result)."""
    done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout)
    if done.returncode != 0:
        die(f"build step failed ({done.returncode}): {' '.join(map(str, cmd))}")


def library_targets(build_dir):
    """The tree's cinnamon_* library targets, read from CMake itself."""
    out = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "help"],
        capture_output=True, text=True, timeout=120).stdout
    names = set(re.findall(r"^(?:\.\.\. )?(cinnamon_\w+)\b", out, re.M))
    if not names:
        die("no cinnamon_* library targets in the tree")
    return sorted(names)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no Cinnamon sources under {ROOT}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    left = lambda: max(1.0, deadline - time.monotonic())
    jobs = str(os.cpu_count() or 1)
    tree, bench = BUILD / "tree", BUILD / "perfbench"
    if not (tree / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", ROOT, "-B", tree,
                    "-DCMAKE_BUILD_TYPE=Release"], left())
    check_call(["cmake", "--build", tree, "-j", jobs, "--target",
                *library_targets(tree)], left())
    if not (bench / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", HERE, "-B", bench,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DCINNAMON_ROOT={ROOT}",
                    f"-DCINNAMON_BUILD={tree}"], left())
    check_call(["cmake", "--build", bench, "-j", jobs], left())
    return bench / "perfbench"


def run_binary(binary, args, deadline):
    """One benchmark process; returns its report lines and result."""
    spawn_ns = time.monotonic_ns()
    try:
        done = subprocess.run(
            [str(binary), *args, "--spawn-ns", str(spawn_ns)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"benchmark process ran past the {RUN_BUDGET_S} s budget")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        die(f"benchmark process failed ({done.returncode})")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, probe = run_binary(binary, common + ["--setup-only"],
                                  deadline)
            setup_samples.append(probe["setup_s"])

    run_args = common + ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        run_args += ["--trace-out",
                     str(traces / f"{args.workload}-seed{args.seed}.json")]
    report, result = run_binary(binary, run_args, deadline)
    for line in report:
        print(line)

    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        print(f"setup_s samples: {[round(s, 4) for s in setup_samples]}")
        setup["value"] = statistics.median(setup_samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
