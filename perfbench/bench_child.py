"""One workload run in a fresh process; `run.py` starts it.

The launcher pins BLAS to one thread in this process's environment before
numpy loads, and passes the monotonic clock reading taken just before the
spawn, so set-up time counts interpreter start, imports and input files.

Untraced mode runs the invocation list once, then keeps cycling through it
while the next invocation is expected to finish within --seconds, timing a
calibration burst after every invocation (see hostspeed.py). Traced
mode calls each item once with spans installed and once without, restoring
and verifying every wrapped function in between; the traced time against
the untraced time is the tracing overhead. Results go to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time

import biorth.cli

from envinfo import environment
from hostspeed import Burst
from invocations import build, check
from layers import TARGETS, layer_metrics
from spans import Patch, Recorder, find_wrapped
from workloads import WORKLOADS

SETUP_BURSTS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the launcher just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def invoke(item):
    """One CLI call in-process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        rc = biorth.cli.main(item.argv)
        seconds = time.perf_counter() - started
    return seconds, rc, out.getvalue(), err.getvalue()


class Run:
    """Invocation records of one process: (item index, seconds, outcome).

    With a recorder, each call runs inside a `Patch` that is removed again
    before the outcome is checked, so the gates' own reads stay untraced.
    """

    def __init__(self, workload, items, burst=None):
        self.workload = workload
        self.items = items
        self.burst = burst
        self.records = []
        self.missing_targets = []

    def call(self, index, recorder=None):
        item = self.items[index]
        if recorder is None:
            seconds, rc, out, err = invoke(item)
        else:
            with Patch(recorder, TARGETS) as patch:
                seconds, rc, out, err = invoke(item)
            self.missing_targets = patch.missing
        outcome = check(self.workload, item, rc, out)
        if not outcome.ok and err.strip():
            outcome.reason += f" ({err.strip().splitlines()[-1]})"
        self.records.append((index, seconds, outcome))
        if self.burst is not None:
            self.burst()
        return seconds

    def cycle_until(self, deadline):
        """Keep cycling through the list while the next call should fit."""
        index = 0
        while True:
            own = [s for i, s, _ in self.records if i == index]
            if time.perf_counter() + statistics.median(own) > deadline:
                return
            self.call(index)
            index = (index + 1) % len(self.items)


def end_to_end(run: Run, peak_rss_mb: float):
    """End-to-end metrics of an untraced run, set-up time aside.

    Each item's time is the mean of its calls, and every time is divided by
    the run's slowdown (hostspeed.py): a mean samples the host's speed
    levels in the proportions the calibration bursts do, where a best-of-N
    or a median jumps between levels.
    """
    slowdown = run.burst.slowdown()
    by_item = {}
    for index, seconds, outcome in run.records:
        by_item.setdefault(index, []).append((seconds, outcome))
    means = [statistics.mean(s for s, _ in calls) / slowdown for calls in by_item.values()]
    wall = sum(means)
    if run.workload.command == "project":
        work = len(by_item)
        # A projection has no iterate path: its target is the gated output.
        ttt = means
    else:
        work = sum(calls[0][1].iters for calls in by_item.values())
        ttt = [statistics.mean(o.ms_to_target / 1e3 for _, o in calls) / slowdown
               for calls in by_item.values()]
    metrics = {
        "wall_s": wall,
        "ops_per_s": work / wall,
        "time_to_target_s": statistics.median(ttt),
        "call_p50_ms": 1e3 * statistics.median(means),
        "peak_rss_mb": peak_rss_mb,
    }
    seconds = sorted(s / slowdown for _, s, _ in run.records)
    extra = {"calls": len(seconds),
             "calls_per_item": min(len(calls) for calls in by_item.values()),
             "slowdown": slowdown,
             "bursts": len(run.burst.samples),
             "raw_wall_s": wall * slowdown}
    # A p90 needs at least ten samples beyond it.
    if len(seconds) >= 100:
        extra["call_p90_ms"] = 1e3 * statistics.quantiles(seconds, n=10)[-1]
    return metrics, extra


def traced_pass(run: Run):
    """Per-layer metrics from one traced call of every item.

    Each item is called again untraced right after its traced call, so
    drift in the machine's speed cancels out of the tracing overhead
    estimate. Before any untraced call the package is checked for wrappers
    left behind.
    """
    recorder = Recorder()
    traced, traced_wall, untraced_wall = [], 0.0, 0.0
    for index in range(len(run.items)):
        seconds = run.call(index, recorder)
        traced.append(run.records[-1][2])
        leftover = find_wrapped()
        if leftover:
            raise RuntimeError(f"traced call left wrappers in place: {leftover}")
        traced_wall += seconds
        untraced_wall += run.call(index)
    iters = sum(o.iters for o in traced)
    hits = [o.iter_to_target for o in traced if o.iter_to_target is not None]
    iters_to_target = statistics.median(hits) if hits else 0
    return layer_metrics(recorder, iters, iters_to_target, traced_wall, untraced_wall)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    items = build(workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    burst = None
    if not args.trace:
        # Set-up is timed at the host speed the bursts right after it see.
        burst = Burst(workload.interpreted)
        for _ in range(SETUP_BURSTS):
            burst()
        setup_s /= burst.slowdown()
        burst.samples.clear()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, items, args, burst))
        result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def measure(workload, items, args, burst):
    run = Run(workload, items, burst)
    started = time.perf_counter()
    if args.trace:
        metrics = traced_pass(run)
        extra = {"missing_targets": run.missing_targets}
    else:
        for index in range(len(items)):
            run.call(index)
        run.cycle_until(started + args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, extra = end_to_end(run, peak)
    failures = [f"{run.items[i].argv[0]} #{i}: {o.reason}"
                for i, _, o in run.records if not o.ok]
    return {
        "metrics": metrics,
        "attempted": len(run.records),
        "failed": len(failures),
        "failures": failures[:10],
        "extra": extra,
    }


if __name__ == "__main__":
    sys.exit(main())
