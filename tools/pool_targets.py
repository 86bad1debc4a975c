"""Check that every pool instance of the solver workloads meets its target within budget.

Usage: python tools/pool_targets.py SRC

SRC is a directory that holds a `biorth` package, such as the `src`
directory of a checkout; it goes first on the import path, so run the tool
in a fresh interpreter. For every instance seed in the pool of model-n100,
funmap-k16 and penalty-n100, and for the held-out seed, the benchmark's own
command line (perfbench/invocations.py) runs once through `biorth.cli.main`
at the workload's iteration budget and one BLAS thread, and the benchmark's
output gates (`invocations.check`) judge it.

Prints, per instance, the iteration at which the trace first meets its
target and the final gap, (final cost - reference) / scale, where the
target is a gap of the workload's `gap` in the same units: the scale is
|reference| for model-n100 and penalty-n100 and |A|^2 + |B|^2 for
funmap-k16, whose optimum is 0. Then prints one summary line per workload:
the sum over its instances of the iterations to target and the worst final
gap. Exits 1 if any instance misses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from references import HELDOUT  # noqa: E402
from run import THREAD_PIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SOLVER_WORKLOADS = ("model-n100", "funmap-k16", "penalty-n100")


def instances(names=SOLVER_WORKLOADS):
    """(workload name, instance seed) of every pool instance and the held-out seed."""
    return [(name, seed) for name in names for seed in (*WORKLOADS[name].pool, HELDOUT)]


def run_instance(workload, seed, workdir):
    """Run one instance as the benchmark does; returns (Outcome, final gap, stderr)."""
    # Imported here, after main has put SRC on the import path.
    import biorth.cli
    from invocations import (check, funmap_item, load_references, read_trace_columns,
                             solver_item)

    if workload.command == "funmap":
        reference = 0.0
        item = funmap_item(workload, seed, workdir, 0)
    else:
        reference = load_references()[workload.name]["optima"][str(seed)]
        item = solver_item(workload, seed, reference, workdir, 0)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = biorth.cli.main(item.argv)
    outcome = check(workload, item, rc, out.getvalue())
    gap = math.nan
    if rc == 0:
        final = read_trace_columns(f"{item.out}.trace.csv")["cost"][-1]
        scale = (item.target - reference) / workload.gap
        gap = (final - reference) / scale
    return outcome, gap, err.getvalue().strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("src", help="directory holding the biorth package")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    tasks = instances()
    missed = 0
    met = {}  # workload name -> (iterations to target, final gap) of each instance that met it
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in tasks:
            workload = WORKLOADS[name]
            workdir = os.path.join(tmp, f"{name}-{seed}")
            os.makedirs(workdir)
            outcome, gap, err = run_instance(workload, seed, workdir)
            head = f"{name} seed {seed}:"
            if outcome.ok:
                met.setdefault(name, []).append((outcome.iter_to_target, gap))
                print(f"{head} target met at iteration {outcome.iter_to_target} of "
                      f"{workload.max_iters}, final gap {gap:.3e} (target {workload.gap:.0e})")
            else:
                missed += 1
                detail = f" ({err})" if err else ""
                print(f"{head} MISSED: {outcome.reason}{detail}")
    for name in dict.fromkeys(name for name, _ in tasks):
        runs = met.get(name, [])
        total = sum(1 for other, _ in tasks if other == name)
        summary = f"{name}: {len(runs)} of {total} met"
        if runs:
            summary += (f", {sum(i for i, _ in runs)} iterations to target in all, "
                        f"worst final gap {max(g for _, g in runs):.3e} "
                        f"(target {WORKLOADS[name].gap:.0e})")
        print(summary)
    print(f"{len(tasks) - missed} of {len(tasks)} instances met their targets")
    return 1 if missed else 0


if __name__ == "__main__":
    os.environ.update(THREAD_PIN)
    raise SystemExit(main())
