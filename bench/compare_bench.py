#!/usr/bin/env python3
"""Perf-regression gate for BENCH_*.json bench output.

Compares a freshly produced BENCH_*.json against a committed baseline and
exits non-zero when any gated entry's speedup_vs_ref fell more than 25%
below the baseline's.

speedup_vs_ref is a ratio of two quantities measured in the same process
(production vs retained reference kernel, served vs direct throughput, stale
vs adapted accuracy, ...). It is normalized by the machine, so it transfers
across hosts. Entries without it are informational and never gated.

Optionally --require-speedup NAME:MIN asserts an absolute speedup floor for
one benchmark (repeatable), e.g. the acceptance bar
  --require-speedup gemm_accum/256x256x256:2.0

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--require-speedup NAME:MIN]...
"""

import argparse
import json
import sys

MAX_REGRESS = 0.25  # maximum tolerated fractional drop of speedup_vs_ref


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    return {b["name"]: b for b in doc["benchmarks"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--require-speedup", action="append", default=[],
                    metavar="NAME:MIN",
                    help="absolute speedup_vs_ref floor for one benchmark")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    compared = 0
    print(f"{'benchmark':<40} {'baseline':>10} {'current':>10}  delta")
    for name, base in sorted(baseline.items()):
        base_v = base.get("speedup_vs_ref")
        if base_v is None:
            continue  # informational entry
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but missing from current run")
            continue
        cur_v = cur.get("speedup_vs_ref")
        if cur_v is None:
            failures.append(f"{name}: no speedup_vs_ref in current run")
            continue
        compared += 1
        delta = (cur_v - base_v) / base_v
        flag = ""
        if cur_v < base_v * (1.0 - MAX_REGRESS):
            flag = "  << REGRESSION"
            failures.append(
                f"{name}: speedup_vs_ref fell {-delta:.1%} "
                f"({base_v:.2f}x -> {cur_v:.2f}x), tolerance {MAX_REGRESS:.0%}")
        print(f"{name:<40} {base_v:>10.2f} {cur_v:>10.2f}  {delta:+7.1%}{flag}")

    for req in args.require_speedup:
        name, _, floor = req.rpartition(":")
        try:
            floor = float(floor)
        except ValueError:
            name = ""
        if not name:
            sys.exit(f"bad --require-speedup '{req}', expected NAME:MIN")
        cur = current.get(name)
        speedup = cur.get("speedup_vs_ref") if cur else None
        if speedup is None:
            failures.append(f"{name}: required speedup {floor}x but benchmark "
                            "missing from current run")
        elif speedup < floor:
            failures.append(f"{name}: speedup_vs_ref {speedup:.2f}x below "
                            f"required floor {floor}x")
        else:
            print(f"{name}: speedup_vs_ref {speedup:.2f}x >= {floor}x  OK")

    if compared == 0 and not args.require_speedup:
        failures.append("no comparable benchmarks between baseline and current")

    if failures:
        print(f"\nFAIL: {len(failures)} perf gate violation(s)", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {compared} benchmarks within {MAX_REGRESS:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
