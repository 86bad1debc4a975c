"""Time two biorth source trees against each other, one benchmark solve at a time.

Usage: python tools/ab_pairs.py BASE_SRC NEW_SRC [--reps N]

BASE_SRC and NEW_SRC are directories that hold a `biorth` package, such as
the `src` directory of two checkouts. Each rep starts one interpreter per
tree at one BLAS thread (perfbench's THREAD_PIN); each answers the command
lines it is sent with the wall time of `biorth.cli.main(argv)` and the
`seconds=` the solver printed, if any. Both get the same command lines,
those that perfbench's `invocations.build` gives for benchmark seed 1: the
model-n100 list, the project-io list and the funmap-k16 list, whose input
files are written once per tree. The tree that goes first
alternates from rep to rep, so a change of host speed falls on both sides
of most pairs. A rep starts and warms the two interpreters in its own
order, one warm-up call each, runs each command line on both trees back
to back in that order and closes them, so neither tree keeps the
advantage of the interpreter started second. Prints, for each workload's
call time and `seconds=`, the median of the per-pair ratios new / base,
their quartiles and the number of pairs the new tree won; `project` prints
no `seconds=`, so project-io reports its call time alone. Exits 1 if a call
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
# perfbench/invocations.py imports biorth.matio; this checkout's package serves
# unless one is already on the path.
sys.path.append(os.path.join(ROOT, "src"))

from invocations import build  # noqa: E402
from run import THREAD_PIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The loop each tree's interpreter runs: one JSON argv per input line, one
# JSON answer per output line. The solver's summary line goes to a buffer,
# which gives `seconds=` and keeps the answers alone on stdout.
SERVER = r"""
import contextlib, io, json, re, sys, time
import biorth.cli
for line in sys.stdin:
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = biorth.cli.main(json.loads(line))
    call_s = time.perf_counter() - started
    found = re.search(r"\bseconds=(\S+)", out.getvalue())
    print(json.dumps({"rc": rc, "call_s": call_s,
                      "seconds": float(found.group(1)) if found else None}), flush=True)
"""


class Tree:
    """A running interpreter with one source tree on its import path."""

    def __init__(self, src):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **THREAD_PIN)
        self.proc = subprocess.Popen([sys.executable, "-c", SERVER], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def call(self, argv):
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:  # the interpreter has exited; readline gives ""
            pass
        line = self.proc.stdout.readline()
        answer = json.loads(line) if line else {"rc": None}
        # Every solver prints `seconds=`; `project` runs no solver.
        if answer["rc"] != 0 or (answer["seconds"] is None) != (argv[0] == "project"):
            raise RuntimeError(f"{' '.join(argv)} failed: {answer}")
        return answer

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()


def run_rep(srcs, lines, order, times):
    """One rep: start and warm one interpreter per tree in `order`, then run every pair.

    `lines[label]` and `times[label]` map each workload to its command lines
    and to its (call times, `seconds=`) lists.
    """
    trees = {}
    try:
        for label in order:
            trees[label] = Tree(srcs[label])
            trees[label].call(lines[label]["model-n100"][0])
        for name, argvs in lines[order[0]].items():
            for i in range(len(argvs)):
                for label in order:
                    answer = trees[label].call(lines[label][name][i])
                    times[label][name][0].append(answer["call_s"])
                    times[label][name][1].append(answer["seconds"])
    finally:
        for tree in trees.values():
            tree.close()


def command_lines(workdir):
    """The command lines of benchmark seed 1 per timed workload.

    Each workload's input files and outputs go to its own directory under
    workdir.
    """
    lines = {}
    for name in ("model-n100", "project-io", "funmap-k16"):
        os.makedirs(os.path.join(workdir, name))
        lines[name] = [item.argv for item in build(WORKLOADS[name], 1, os.path.join(workdir, name))]
    return lines


def report(name, base, new):
    ratios = [b / a for a, b in zip(base, new)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1.0 for r in ratios)
    return (f"{name}: median new/base {median:.4f} (quartiles {q1:.4f}-{q3:.4f}), "
            f"new faster in {wins} of {len(ratios)} pairs")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    parser.add_argument("--reps", type=int, default=12)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    srcs = {"base": args.base_src, "new": args.new_src}
    with tempfile.TemporaryDirectory() as tmp:
        lines = {label: command_lines(os.path.join(tmp, label)) for label in srcs}
        times = {label: {name: ([], []) for name in lines[label]} for label in srcs}
        try:
            for rep in range(args.reps):
                order = ("base", "new") if rep % 2 == 0 else ("new", "base")
                run_rep(srcs, lines, order, times)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name in times["base"]:
        base, new = times["base"][name], times["new"][name]
        print(report(f"{name} call time", base[0], new[0]))
        if WORKLOADS[name].command != "project":
            print(report(f"{name} seconds=", base[1], new[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
