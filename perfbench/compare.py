#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs, metric by metric.

Each file holds the stdout of one ``perfbench/run.py`` run (its last two
lines are the environment record and the result).  Usage:

    python3 perfbench/compare.py --base a1.log a2.log --head b1.log b2.log

Prints each metric's median on both sides and the change as a share of
the base median.  Runs whose backends differ measure different kernels,
so such a comparison is flagged as invalid and exits with code 3; so is
one that mixes workloads or trace settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _load(path: Path) -> tuple[dict, dict]:
    lines = path.read_text().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args()
    base = [_load(p) for p in args.base]
    head = [_load(p) for p in args.head]

    problems = []
    for key in ("backend", "workload", "trace"):
        values = sorted({str(env[key]) for env, _ in base + head})
        if len(values) > 1:
            problems.append(f"{key} differs between runs: {', '.join(values)}")

    if problems:
        print("INVALID comparison: " + "; ".join(problems))
        return 3

    print(f"{'metric':36} {'base':>12} {'head':>12} {'change':>8}")
    for name, first in base[0][1]["metrics"].items():
        if not all(name in r["metrics"] for _, r in base + head):
            continue
        b = statistics.median(r["metrics"][name]["value"] for _, r in base)
        h = statistics.median(r["metrics"][name]["value"] for _, r in head)
        change = f"{h / b - 1:+.1%}" if b else "-"
        print(f"{name:36} {b:12.6g} {h:12.6g} {change:>8}  {first['unit']}")
    for label, runs in (("base", base), ("head", head)):
        failed = sum(r["failed"] for _, r in runs)
        attempted = sum(r["attempted"] for _, r in runs)
        print(f"{label}: {len(runs)} runs, {failed} of {attempted} requests failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
