"""Inputs, invocation lists and output gates of the workloads.

Every workload turns the benchmark seed into a fixed list of `biorth`
command lines (and, where the command reads files, the files themselves).
The program only ever sees those inputs; anything the gates compare
against, such as the functional-map ground truth, stays here.

Gates, each of which fails the invocation:
  * the exit code is 0;
  * solver runs reach the workload's target cost within their budget;
  * on BO(n), fro_norm(X Y - I) of the written pair, recomputed from the
    files, is within the manifold's default feasibility tolerance 1e-9 n;
  * funmap recovers the withheld (C1, C2) to 1e-6 relative;
  * project's output is tangent to 1e-9 n and (A - T) is orthogonal to T;
  * every matrix the program wrote reads back through `biorth.matio`
    bit for bit equal to an independent numpy parse of the same file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from biorth.matio import read_matrix

from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The manifold's default feasibility and tangency tolerances per dimension.
TOL_PER_DIM = 1e-9
RECOVERY_TOL = 1e-6
FUNMAP_Q = 64


@dataclass
class Item:
    """One command line of the fixed list and what its gates need."""

    argv: list
    out: str
    target: float | None = None
    truth: tuple | None = None       # funmap (C1, C2)
    base: tuple | None = None        # project (x0, y0)
    ambient: tuple | None = None     # project (phi, psi)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    iters: int = 0
    ms_to_target: float | None = None
    iter_to_target: int | None = None


def load_references():
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def write_text_matrix(path, m):
    """Write `m` in biorth's text format with 17 significant digits, which
    pins every float64 exactly; the benchmark's own writer, not the program's."""
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    lines += [" ".join(format(float(v), ".17g") for v in row) for row in m]
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def numpy_matrix(path):
    """Independent parse of a biorth matrix file."""
    with open(path, encoding="ascii") as f:
        rows, cols = (int(t) for t in f.readline().split())
    m = np.loadtxt(path, skiprows=1, dtype=np.float64, ndmin=2)
    if m.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows}x{cols}, data is {m.shape}")
    return m


def read_trace_columns(path):
    """Columns of a trace CSV by header name; extra columns are ignored."""
    with open(path, newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [r for r in reader if r]
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


def instance_seeds(workload: Workload, seed: int):
    """The run's instance seeds, drawn from the workload's pool."""
    return random.Random(seed).sample(workload.pool, workload.items)


def build(workload: Workload, seed: int, workdir: str):
    """Generate inputs under `workdir` and return the fixed invocation list."""
    if workload.command == "project":
        return _project_items(workload, seed, workdir)
    seeds = instance_seeds(workload, seed)
    if workload.command == "funmap":
        return [funmap_item(workload, s, workdir, i) for i, s in enumerate(seeds)]
    optima = load_references()[workload.name]["optima"]
    return [solver_item(workload, s, optima[str(s)], workdir, i) for i, s in enumerate(seeds)]


def solver_item(workload, s, ref, workdir, i):
    out = os.path.join(workdir, f"run{i}")
    argv = [workload.command, "--n", str(workload.size), "--seed", str(s),
            "--max-iters", str(workload.max_iters), "--out", out]
    if workload.command == "model-problem":
        argv[1:1] = ["--solver", "cg"]
    else:
        argv[1:1] = ["--alpha", "100"]
    target = ref + workload.gap * abs(ref)
    return Item(argv, out, target=target)


def funmap_item(workload, s, workdir, i):
    """Noise-free instance b = a c*; the optimum is exactly 0 at (c*, c*^-1),
    so the target is relative to the cost of the zero pair, |a|^2 + |b|^2."""
    k = workload.size
    rng = np.random.Generator(np.random.PCG64(s))
    g = 0.3 * rng.standard_normal((k, k))
    c1, c2 = scipy.linalg.expm(g), scipy.linalg.expm(-g)
    a = rng.standard_normal((FUNMAP_Q, k))
    b = a @ c1
    a_path = os.path.join(workdir, f"a{i}.txt")
    b_path = os.path.join(workdir, f"b{i}.txt")
    write_text_matrix(a_path, a)
    write_text_matrix(b_path, b)
    out = os.path.join(workdir, f"run{i}")
    argv = ["funmap", "--a", a_path, "--b", b_path, "--seed", str(s),
            "--max-iters", str(workload.max_iters), "--out", out]
    target = workload.gap * float(np.sum(a * a) + np.sum(b * b))
    return Item(argv, out, target=target, truth=(c1, c2))


def _project_items(workload, seed, workdir):
    """One base point and ambient pair per item, written as four files."""
    n = workload.size
    rng = np.random.Generator(np.random.PCG64(seed))
    items = []
    for i in range(workload.items):
        g = (0.5 / math.sqrt(n)) * rng.standard_normal((n, n))
        mats = {"x0": scipy.linalg.expm(g), "y0": scipy.linalg.expm(-g),
                "phi": rng.standard_normal((n, n)), "psi": rng.standard_normal((n, n))}
        argv = ["project"]
        for key, m in mats.items():
            path = os.path.join(workdir, f"{key}{i}.txt")
            write_text_matrix(path, m)
            argv += [f"--{key}", path]
        out = os.path.join(workdir, f"run{i}")
        items.append(Item(argv + ["--out", out], out, base=(mats["x0"], mats["y0"]),
                          ambient=(mats["phi"], mats["psi"])))
    return items


_FIELD = re.compile(r"(\w+)=(\S+)")


def summary_fields(stdout: str) -> dict:
    return {k: v for k, v in _FIELD.findall(stdout)}


def _bit_exact(path):
    """Read a written matrix both ways; return the numpy copy or raise."""
    ours = numpy_matrix(path)
    theirs = read_matrix(path)
    if theirs.shape != ours.shape or not np.array_equal(
            theirs.view(np.uint64), ours.view(np.uint64)):
        raise ValueError(f"{os.path.basename(path)} does not read back bit for bit")
    return ours


def check(workload: Workload, item: Item, rc: int, stdout: str) -> Outcome:
    """Apply every gate of the workload to one finished invocation."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        if workload.command == "project":
            return _check_project(workload, item)
        return _check_solve(workload, item, summary_fields(stdout))
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return Outcome(False, f"{type(exc).__name__}: {exc}")


def _check_solve(workload, item, fields):
    trace = read_trace_columns(f"{item.out}.trace.csv")
    iters = int(trace["iter"][-1])
    hit = next((i for i, c in enumerate(trace["cost"]) if c <= item.target), None)
    if hit is None:
        return Outcome(False, f"target {item.target!r} not reached in {iters} iterations",
                       iters=iters)
    names = ("C1", "C2") if workload.command == "funmap" else ("X", "Y")
    x, y = (_bit_exact(f"{item.out}.{nm}.txt") for nm in names)
    n = x.shape[0]
    feas = float(np.linalg.norm(x @ y - np.eye(n)))
    reported = float(fields["feas_err"])
    tol = TOL_PER_DIM * n
    if workload.command == "penalty":
        # The flat space enforces nothing; only the diagnostic must be honest.
        if abs(reported - feas) > tol * max(1.0, feas):
            return Outcome(False, f"feas_err {reported} but files give {feas}", iters=iters)
    elif feas > tol or reported > tol:
        return Outcome(False, f"feas_err {max(feas, reported):.3e} > {tol:.1e}", iters=iters)
    if item.truth is not None:
        for got, want, nm in zip((x, y), item.truth, names):
            err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            if err > RECOVERY_TOL:
                return Outcome(False, f"{nm} recovery error {err:.3e}", iters=iters)
    return Outcome(True, iters=iters, ms_to_target=trace["elapsed_ms"][hit],
                   iter_to_target=int(trace["iter"][hit]))


def _check_project(workload, item):
    u, v = _bit_exact(f"{item.out}.X.txt"), _bit_exact(f"{item.out}.Y.txt")
    x0, y0 = item.base
    phi, psi = item.ambient
    n = workload.size
    resid = float(np.linalg.norm(x0 @ v + u @ y0))
    if resid > TOL_PER_DIM * n:
        return Outcome(False, f"tangency residual {resid:.3e}")
    inner = float(np.vdot(phi - u, u) + np.vdot(psi - v, v))
    scale = math.sqrt(float(np.vdot(phi, phi) + np.vdot(psi, psi))) * \
        math.sqrt(float(np.vdot(u, u) + np.vdot(v, v)))
    if abs(inner) > TOL_PER_DIM * n * scale:
        return Outcome(False, f"<A - T, T> = {inner:.3e} is not 0")
    return Outcome(True)
