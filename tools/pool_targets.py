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
the sum over its instances of the iterations to target, the worst final
gap, its line searches split by trial points (1 / 2 / 3 / >=4), and its
trial points and tangent projections per iteration, counted from the
spans of perfbench's Recorder (perfbench/spans.py). Exits 1 if any
instance misses.
"""

from __future__ import annotations

import argparse
import collections
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
from spans import Patch, Recorder, Target  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SOLVER_WORKLOADS = ("model-n100", "funmap-k16", "penalty-n100")


def instances(names=SOLVER_WORKLOADS):
    """(workload name, instance seed) of every pool instance and the held-out seed."""
    return [(name, seed) for name in names for seed in (*WORKLOADS[name].pool, HELDOUT)]


class Counts:
    """What counting_searches saw: (trial points, returned a step) of each
    line search, and the number of tangent projections."""

    def __init__(self, searches=(), projections=0):
        self.searches = list(searches)
        self.projections = projections


# What counting_searches wraps: the search, which the solvers look up by
# module name, and the retract and project methods of both manifolds.
COUNTED = (Target("search", "biorth.solvers", "armijo_search"),
           *(Target(name, "biorth.manifold", f"{cls}.{name}")
             for cls in ("BiorthogonalManifold", "EuclideanManifold")
             for name in ("retract", "project")))


@contextlib.contextmanager
def counting_searches():
    """Yield the Counts of the line searches and tangent projections run inside.

    Records a span for each call to the COUNTED targets with perfbench's
    Patch and Recorder, which put every original back on exit, and fills
    the Counts from the spans then. Every trial point passes through
    `retract`, and the solvers retract only inside a search, so a search's
    trial points are the `retract` spans it encloses; every search that
    returns a step is one solver iteration. Raises RuntimeError if a target
    is absent from the code, so that its count cannot silently read 0.
    """
    counts = Counts()
    recorder = Recorder()
    with Patch(recorder, COUNTED) as patch:
        if patch.missing:
            missing = ", ".join(patch.missing)
            raise RuntimeError(f"cannot count, absent from the code: {missing}")
        try:
            yield counts
        finally:
            spans = recorder.spans
            trials = collections.Counter(span.parent for span in spans if span.name == "retract")
            counts.searches = [(trials[i], not span.failed)
                               for i, span in enumerate(spans) if span.name == "search"]
            counts.projections = sum(span.name == "project" for span in spans)


def search_summary(counts):
    """Searches split by trial points 1 / 2 / 3 / >=4; trial points and projections per iteration."""
    searches = counts.searches
    bins = collections.Counter(min(trials, 4) for trials, _ in searches)
    split = [bins[k] for k in (1, 2, 3, 4)]
    iterations = sum(returned for _, returned in searches)

    def per_iter(total):
        return total / iterations if iterations else math.nan

    return (f"searches by trial points (1 / 2 / 3 / >=4) {' / '.join(map(str, split))}, "
            f"{per_iter(sum(trials for trials, _ in searches)):.3f} trial points per iteration, "
            f"{per_iter(counts.projections):.3f} projections per iteration")


def run_instance(workload, seed, workdir):
    """Run one instance as the benchmark does.

    Returns (Outcome, final gap, stderr, counts), where `counts` is the
    Counts of its line searches and projections from counting_searches.
    """
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
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          counting_searches() as counts):
        rc = biorth.cli.main(item.argv)
    outcome = check(workload, item, rc, out.getvalue())
    gap = math.nan
    if rc == 0:
        final = read_trace_columns(f"{item.out}.trace.csv")["cost"][-1]
        scale = (item.target - reference) / workload.gap
        gap = (final - reference) / scale
    return outcome, gap, err.getvalue().strip(), counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("src", help="directory holding the biorth package")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    tasks = instances()
    missed = 0
    met = {}  # workload name -> (iterations to target, final gap) of each instance that met it
    counts = {}  # workload name -> Counts of all its instances
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in tasks:
            workload = WORKLOADS[name]
            workdir = os.path.join(tmp, f"{name}-{seed}")
            os.makedirs(workdir)
            outcome, gap, err, instance_counts = run_instance(workload, seed, workdir)
            total = counts.setdefault(name, Counts())
            total.searches.extend(instance_counts.searches)
            total.projections += instance_counts.projections
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
        print(f"{summary}, {search_summary(counts[name])}")
    print(f"{len(tasks) - missed} of {len(tasks)} instances met their targets")
    return 1 if missed else 0


if __name__ == "__main__":
    os.environ.update(THREAD_PIN)
    raise SystemExit(main())
