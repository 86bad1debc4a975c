#!/usr/bin/env python3
"""Benchmark of the `biorth` command line, run from the repository root.

    python3 perfbench/run.py --workload model-n100 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py              # every workload, untraced then traced

A run is a closed loop of CLI invocations through `biorth.cli.main(argv)`,
each started after the previous one returns, in one fresh child process
whose BLAS is pinned to one thread before numpy loads. With the default
two OpenBLAS threads on a 2-core machine, n <= 150 kernels oversubscribe:
ROADMAP item 1 records 100 CG iterations of `model-problem --n 100` at
6.0 s against 1.78 s with one thread, and the spread of such runs is far
wider than the bounds. So one thread is the measured configuration.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced pass. Set-up time is the median over several fresh
processes. Times are in reference seconds, corrected for the speed of a
shared host by calibration bursts (hostspeed.py). The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
line starting `env ` before it is the environment record (compare results
with perfbench/compare.py). Exit code 0 means every invocation passed every
output gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from envinfo import THREAD_VARS
from layers import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

# Every time is in reference seconds: raw seconds divided by the slowdown of
# the host that calibration bursts measured around it (hostspeed.py).
END_TO_END = (
    # Process start until the first invocation can start: interpreter,
    # numpy, scipy and biorth imports, generated input files.
    ("setup_s", "s"),
    # The fixed invocation list, each item timed by the mean of its calls.
    ("wall_s", "s"),
    # Accepted solver iterations (project invocations on project-io) of the
    # list, per second of wall_s.
    ("ops_per_s", "1/s"),
    # Per solve, elapsed_ms of the first trace row at or below the target,
    # averaged over the item's calls; median over the list. project-io has
    # no iterate path, so there it is the time of one gated projection call.
    ("time_to_target_s", "s"),
    # Median over the list of each item's mean call time; the p90 over all
    # calls is printed beside it where there are 100 calls or more.
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5          # set-up-only processes besides the measuring one
# A child may run this much longer than --seconds: set-up, the first full
# pass of the list, and the last call that started before the deadline.
CHILD_SLACK_S = 95
DEFAULT_SECONDS = 40
THREAD_PIN = {var: "1" for var in THREAD_VARS}


def child_env():
    env = dict(os.environ, **THREAD_PIN)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args, workdir, setup_only):
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "bench_child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result,
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=args.seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"benchmark process exited with {proc.returncode}:\n{tail}")
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def measure(args):
    """One workload run: set-up probes, then the measuring process."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, os.path.join(tmp, f"setup{i}"), True)["setup_s"]
                  for i in range(probes)]
        res = spawn(args, os.path.join(tmp, "measure"), False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(WORK_ROOT)
    if not args.trace:
        setups.append(res["setup_s"])
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["extra"]["setup_samples"] = len(setups)
    return res


def report(args, res):
    """Print the human-readable report and return the result line's object."""
    table = END_TO_END if not args.trace else [(n, u) for n, u, _ in PER_LAYER]
    metrics = res["metrics"]
    print(f"# biorth benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, unit in table:
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    extra = res["extra"]
    print(f"{'failed_frac':44s} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']} of {res['attempted']} invocations)")
    if not args.trace:
        print(f"{'setup_s samples':44s} {extra['setup_samples']:>16d}")
        print(f"{'host slowdown':44s} {extra['slowdown']:>16.6g} "
              f"({extra['bursts']} calibration bursts)")
        print(f"{'wall_s before calibration':44s} {extra['raw_wall_s']:>16.6g} s")
        print(f"{'call samples':44s} {extra['calls']:>16d} "
              f"(at least {extra['calls_per_item']} per item)")
        p90 = extra.get("call_p90_ms")
        print(f"{'call_p90_ms':44s} " + (f"{p90:>16.6g} ms" if p90 is not None
                                          else f"{'n/a':>16s} (needs 100 calls)"))
    elif extra["missing_targets"]:
        print(f"# not traced, absent from the code: {', '.join(extra['missing_targets'])}")
    for line in res["failures"]:
        print(f"# FAILED {line}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }


def _stop(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running child.
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "biorth", "cli.py")):
        print(f"error: no biorth sources under {ROOT}/src", file=sys.stderr)
        return 2
    runs = [(args.workload, args.trace)] if args.workload != "all" else \
        [(w, t) for w in WORKLOADS for t in (0, 1)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
        try:
            res = measure(one)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        line = report(one, res)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        prefix = f"{workload}." if len(runs) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
