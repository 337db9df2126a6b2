#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark from the library sources into .bench_build/perfbench (Release);
later runs rebuild only what changed. Every run first executes the
benchmark's own check tests, then the measured workload. The last line of
stdout is the result object; the exit code is non-zero when the build, the
check tests or a correctness check failed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-cold", "serve-hot", "plan-joins", "ingest-refresh")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "uae.h")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}", 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step {' '.join(step[:2])} exited {rc}", 3)


def run(cmd, timeout, stdout=None):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=stdout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} did not finish within {timeout} s", 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    test = os.path.join(BUILD, "perfbench_checks_test")
    if run([test], 60, stdout=sys.stderr) != 0:
        fail("the benchmark's check tests failed", 4)
    sys.stdout.flush()
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", os.path.join(BUILD, "out")], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
