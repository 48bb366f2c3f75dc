#!/usr/bin/env python3
"""The benchmark's own test: count-type layer metrics repeat exactly.

Runs the traced fig3-sat workload twice on one seed and fails unless every
per-layer metric whose unit is a count or a count ratio reads the same in
both runs. Those metrics come from a fixed amount of work, so any
difference means the benchmark (or the program) has become
nondeterministic. Run from the repository root:

    python3 perfbench/test_counts.py
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNT_UNITS = {"count", "ratio"}


def traced_counts(seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "fig3-sat", "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("traced run reported wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main():
    first, second = traced_counts(5), traced_counts(5)
    if not first:
        print("no count-type metrics found")
        return 1
    differing = sorted(k for k in first if first[k] != second.get(k))
    for name in sorted(first):
        mark = "DIFFERS" if name in differing else "ok"
        print(f"{name:36s} {first[name]!r:>22} {second.get(name)!r:>22} {mark}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
