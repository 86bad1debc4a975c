#!/usr/bin/env python3
"""Compare saved outputs of perfbench/run.py between two versions.

    python3 perfbench/run.py --workload model-n100 --seed 3 > base-3.txt   # repeat
    python3 perfbench/compare.py --base base-*.txt --new new-*.txt

For each metric it prints the median of each side, the change and, for
end-to-end metrics, the bound from BENCHMARK.json. Results whose
environment records differ (BLAS threads, cores, Python, numpy, scipy,
OpenBLAS, CPU) are not comparable: the differences are printed and the
exit code is 3, whatever the numbers say. Exit code 1 marks a metric worse
than its bound, or a failed invocation on the new side. Outputs of
`run.py` without --workload compare too: their metric names carry the
workload as a prefix, which is dropped to find the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

from envinfo import differences
from run import ROOT
from workloads import WORKLOADS


def load(path):
    """(((workload, trace), ...), env record, result object) of one saved
    output; an output of every workload has one header per run."""
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    runs = tuple((fields["workload"], fields["trace"]) for fields in (
        dict(re.findall(r"(\w+)=(\S+)", line))
        for line in lines if line.startswith("# biorth benchmark:")))
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return runs, env, json.loads(lines[-1])


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def unprefixed(name):
    """`model-n100.wall_s` -> `wall_s`; other names are returned as they are."""
    head, _, rest = name.partition(".")
    return rest if head in WORKLOADS else name


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base = [load(path) for path in args.base]
    new = [load(path) for path in args.new]

    status = 0
    if len({h for h, _, _ in base + new}) != 1:
        print("not comparable: the files are from different workloads or trace modes")
        return 3
    mismatched = sorted({line for _, env, _ in base + new
                         for line in differences(base[0][1], env)})
    if mismatched:
        print("ENVIRONMENT DIFFERS, numbers are not comparable:")
        for line in mismatched:
            print(f"  {line}")
        status = 3

    limits = bounds()
    print(f"{'metric':44s} {'base':>12s} {'new':>12s} {'unit':>8s} {'change':>8s}  verdict")
    for name, entry in base[0][2]["metrics"].items():
        a = statistics.median(r["metrics"][name]["value"] for _, _, r in base)
        b = statistics.median(r["metrics"][name]["value"] for _, _, r in new)
        change = (b - a) / a if a else 0.0
        verdict = ""
        if unprefixed(name) in limits:
            bound, better = limits[unprefixed(name)]
            worse = change if better == "lower" else -change
            verdict = f"worse by more than {bound:.0%}" if worse > bound else "within bound"
            if worse > bound and status == 0:
                status = 1
        print(f"{name:44s} {a:>12.6g} {b:>12.6g} {entry['unit']:>8s} {change:>+8.1%}  {verdict}")
    for side, runs in (("base", base), ("new", new)):
        failed = sum(r["failed"] for _, _, r in runs)
        if failed:
            print(f"{side}: {failed} failed invocations")
            if side == "new" and status == 0:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
