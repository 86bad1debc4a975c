#!/usr/bin/env python3
"""Compute the reference optima that solver targets are measured against.

    python3 perfbench/references.py [workload ...]

For every instance a workload can draw (its pool) and for one held-out
instance that no run draws, run the same command with a long budget and
store the lowest cost reached in perfbench/references.json. Targets are
fixed there, so a change that alters the iterate path (caching, another
retraction, evaluating once) is judged against the same number. Funmap's
noise-free instances have the exact optimum 0, which its targets use; the
long runs recorded here confirm it.

It also prints, per instance, the iteration at which the long run first
met the workload's target, and exits with 1 if that exceeds the budget.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile

from run import ROOT, THREAD_PIN, WORK_ROOT
from workloads import WORKLOADS

LONG_RUN_ITERS = {"model-n100": 400, "penalty-n100": 20000, "funmap-k16": 2000}
# Instance seed outside every pool: its target must fit the budget too.
HELDOUT = 1001
# Long runs in parallel, each on one BLAS thread.
JOBS = 2


def long_run(task):
    """(workload, instance seed) -> the long run's costs and target."""
    name, seed = task
    # Imported in the worker, which starts with the thread pin and src path set.
    import biorth.cli
    from invocations import funmap_item, read_trace_columns, solver_item

    workload = WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        if workload.command == "funmap":
            item = funmap_item(workload, seed, tmp, 0)
        else:
            item = solver_item(workload, seed, 0.0, tmp, 0)
        argv = list(item.argv)
        argv[argv.index("--max-iters") + 1] = str(LONG_RUN_ITERS[name])
        argv += ["--grad-tol", "0"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = biorth.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{name} seed {seed}: exit code {rc}")
        costs = read_trace_columns(f"{item.out}.trace.csv")["cost"]
    return name, seed, costs, item.target


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workloads", nargs="*", default=["model-n100", "penalty-n100", "funmap-k16"])
    args = p.parse_args(argv)

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            table = json.load(f)

    tasks = []
    for name in args.workloads:
        w = WORKLOADS[name]
        tasks += [(name, s) for s in (*w.pool, HELDOUT)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        results = pool.map(long_run, tasks, chunksize=1)

    ok = True
    for name in args.workloads:
        w = WORKLOADS[name]
        entry = {"long_run_iters": LONG_RUN_ITERS[name], "optima": {}}
        for rname, seed, costs, target in results:
            if rname != name:
                continue
            best = min(costs)
            if w.command != "funmap":
                target = best + w.gap * abs(best)
            hit = next((i for i, c in enumerate(costs) if c <= target), None)
            entry["optima"][str(seed)] = best
            fits = hit is not None and hit <= w.max_iters
            ok &= fits
            print(f"{name} seed {seed}: optimum {best!r}, target met at iteration "
                  f"{hit} of budget {w.max_iters}{'' if fits else '  <-- over budget'}")
        table[name] = entry
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
