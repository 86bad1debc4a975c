"""Check that two biorth source trees give the same outputs on a fixed list of runs.

Usage: python tools/same_outputs.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are directories that hold a `biorth` package, such as
the `src` directory of two checkouts. Every command line of RUNS runs once
per tree, in a fresh interpreter at one BLAS thread, each in its own output
directory. The `project` runs share the files that the benchmark's
project-io workload writes for seed PROJECT_SEED (perfbench/invocations.py):
four items of four n = 150 matrices. One model-problem run starts at
--scale 1e5, where every point after the start has kappa(y) near 1e8, so
its projections factor y on svd's LAPACK route; every other solve stays
on the Gram route. One funmap run sets --noise and
--lambda, so that the regularizer and noise lines of the problem module run
outside the `check` suites too. Two more runs read files that this
tool writes with 17 significant digits: `funmap --a --b` on the data of
synth_funmap(1, 64, 16), and `project` on a base pair and an ambient pair
whose entries' decimal exponents reach down to -300 (see _wide_project).
One more `project` run reads n = 40 files that reach matio's decline
path: identity legs, whose every chunk holds an exact zero, a phi with
`-0` tokens and one tab-separated row, and a Gaussian psi (see
_write_declined_project). The two output trees are then compared
file by file: matrix files byte for byte, trace CSVs without their
`elapsed_ms` column, and each run's console record (stdout, stderr and exit
code) without its `seconds=` field. Prints
"identical outputs" and exits 0, or prints one line for each run whose
outputs differ and exits 1. That line names the run's first differing
file, the largest relative difference max|new - base| / max|base| over
its matrix files, and its base and new `final_cost` and `feas_err`, so a
change at the rounding level reads apart from a change in behaviour. Where
the bytes of any of the run's matrix files differ, the line ends with
`matrix_bits=identical` when every matrix file still reads back with the
same bits, signed zeros included, so a change of text alone reads apart
from a change of value; otherwise with `matrix_bits=differ`.
"""

from __future__ import annotations

import csv
import io
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
# perfbench/invocations.py imports biorth.matio; this checkout's package serves
# unless one is already on the path.
sys.path.append(os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from biorth.matio import read_matrix  # noqa: E402
from biorth.problems import synth_funmap  # noqa: E402
from invocations import build, write_text_matrix  # noqa: E402
from run import THREAD_PIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROJECT = WORKLOADS["project-io"]
PROJECT_SEED = 3001
PROJECT_KEYS = ("x0", "y0", "phi", "psi")
CONSOLE = "console.txt"


def _runs():
    """(name, argv) of every run; `{inputs}` stands for the shared input directory."""
    runs = []
    for s in range(1, 9):
        runs.append((f"model-cg-{s}", ["model-problem", "--solver", "cg", "--n", "100",
                                       "--max-iters", "35", "--seed", str(s)]))
    runs.append(("model-lapack", ["model-problem", "--n", "100", "--scale", "1e5",
                                  "--max-iters", "50"]))
    for s in range(1, 4):
        runs.append((f"penalty-{s}", ["penalty", "--n", "60", "--max-iters", "300",
                                      "--seed", str(s)]))
        runs.append((f"funmap-{s}", ["funmap", "--synthetic", "--seed", str(s)]))
        runs.append((f"model-gd-{s}", ["model-problem", "--solver", "gd", "--n", "20",
                                       "--max-iters", "200", "--seed", str(s)]))

    def project(suffix):
        argv = ["project"]
        for key in PROJECT_KEYS:
            argv += [f"--{key}", os.path.join("{inputs}", f"{key}{suffix}.txt")]
        return argv

    runs.append(("funmap-noisy-2", ["funmap", "--synthetic", "--noise", "0.1", "--lambda", "0.1",
                                    "--seed", "2"]))

    for i in range(PROJECT.items):
        runs.append((f"project-{i}", project(i)))
    runs.append(("funmap-files", ["funmap", "--a", os.path.join("{inputs}", "a.txt"),
                                  "--b", os.path.join("{inputs}", "b.txt"), "--seed", "1"]))
    runs.append(("project-wide", project("wide")))
    runs.append(("project-declined", project("declined")))
    runs.append(("check", ["check"]))
    runs.append(("check-tol0", ["check", "--tol", "0"]))
    # At --tol 1 and 0 a bound scaled twice prints as one scaled once; at 0.5 it does not.
    runs.append(("check-half", ["check", "--suite", "exp-identity", "--tol", "0.5"]))
    return runs


RUNS = _runs()


def _wide_project(n=150, seed=7):
    """A feasible base pair and an ambient pair with widely spread exponents.

    x0 = Q D and y0 = D^-1 Q^T for an orthogonal Q and D = diag(10^e), e in
    [-30, 30], so x0 y0 = I to rounding; phi and psi hold N(0, 1) draws times
    10^e, e in [-300, 100]. Larger exponents make the projection itself
    overflow, which would end the run before it writes any matrix.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = 10.0 ** rng.integers(-30, 31, n)
    wide = [rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 101, (n, n))
            for _ in range(2)]
    return dict(zip(PROJECT_KEYS, (q * d, (q / d).T, *wide)))


def _write_declined_project(inputs, n=40, seed=8):
    """Write n = 40 project inputs whose files reach matio's decline path.

    x0 = y0 = I, so every chunk holds the token `0`; phi is Gaussian with
    `-0` entries in its first, second and third chunks, and data row 20,
    in the second chunk, separated by tabs; psi is Gaussian.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    phi, psi = rng.standard_normal((2, n, n))
    phi[[3, 19, 37], [5, 11, 0]] = -0.0
    for key, m in zip(PROJECT_KEYS, (np.eye(n), np.eye(n), phi, psi)):
        write_text_matrix(os.path.join(inputs, f"{key}declined.txt"), m)
    path = os.path.join(inputs, "phideclined.txt")
    with open(path, encoding="ascii") as f:
        lines = f.read().split("\n")
    lines[20] = lines[20].replace(" ", "\t")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines))


def write_inputs(inputs):
    """Write every input file the runs of RUNS read into the directory `inputs`."""
    build(PROJECT, PROJECT_SEED, inputs)
    problem, _ = synth_funmap(1, 64, 16)
    write_text_matrix(os.path.join(inputs, "a.txt"), problem.a)
    write_text_matrix(os.path.join(inputs, "b.txt"), problem.b)
    for key, m in _wide_project().items():
        write_text_matrix(os.path.join(inputs, f"{key}wide.txt"), m)
    _write_declined_project(inputs)


def run_all(src, out_root, inputs):
    """Run every command of RUNS with `src` on the import path, one directory each."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update(THREAD_PIN)
    for name, argv in RUNS:
        workdir = os.path.join(out_root, name)
        os.makedirs(workdir)
        argv = [a.replace("{inputs}", inputs) for a in argv]
        if argv[0] != "check":
            argv += ["--out", "run"]
        proc = subprocess.run([sys.executable, "-m", "biorth.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True)
        with open(os.path.join(workdir, CONSOLE), "w", encoding="utf-8") as f:
            f.write(f"{proc.stdout}--- stderr\n{proc.stderr}--- exit {proc.returncode}\n")


def _normalized(path):
    """The bytes of an output file that must match: timings removed."""
    with open(path, "rb") as f:
        data = f.read()
    name = os.path.basename(path)
    if name == CONSOLE:
        return re.sub(rb"seconds=\S+", b"seconds=", data)
    if name.endswith(".trace.csv"):
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
        if rows and "elapsed_ms" in rows[0]:
            drop = rows[0].index("elapsed_ms")
            rows = [r[:drop] + r[drop + 1:] for r in rows]
        return "\n".join(",".join(r) for r in rows).encode("ascii")
    return data


def _files(root):
    out = []
    for dirpath, _, names in os.walk(root):
        out += [os.path.relpath(os.path.join(dirpath, nm), root) for nm in names]
    return out


def differences(base_dir, new_dir):
    """Relative path of the first differing output file of each run, in sorted order."""
    diffs = {}
    for rel in sorted(set(_files(base_dir)) | set(_files(new_dir))):
        run = rel.split(os.sep)[0]
        if run in diffs:
            continue
        a, b = os.path.join(base_dir, rel), os.path.join(new_dir, rel)
        if not (os.path.isfile(a) and os.path.isfile(b)) or _normalized(a) != _normalized(b):
            diffs[run] = rel
    return list(diffs.values())


def _max_rel_diff(a_path, b_path):
    """max|b - a| / max|a| of two matrix files; inf if one is missing or the shapes differ."""
    try:
        a, b = read_matrix(a_path), read_matrix(b_path)
    except OSError:
        return np.inf
    if a.shape != b.shape:
        return np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff, scale = np.abs(b - a).max(), np.abs(a).max()
    if diff == 0.0:
        return 0.0
    return diff / scale if scale else np.inf


def _console_values(path):
    """The printed final_cost and feas_err of a run's console record, "-" where absent."""
    text = ""
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
    found = (re.search(rf"\b{key}=(\S+)", text) for key in ("final_cost", "feas_err"))
    return [m.group(1) if m else "-" for m in found]


def _matrix_pairs(base_dir, new_dir, run):
    """(base path, new path) of every matrix file of `run` in either tree."""
    base, new = os.path.join(base_dir, run), os.path.join(new_dir, run)
    matrices = {rel for rel in _files(base) + _files(new) if rel.endswith(".txt")} - {CONSOLE}
    return [(os.path.join(base, rel), os.path.join(new, rel)) for rel in sorted(matrices)]


def _same_bits(a_path, b_path):
    """Whether two matrix files read back with the same shape and bits."""
    try:
        a, b = read_matrix(a_path), read_matrix(b_path)
    except OSError:
        return False
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def matrix_bits(base_dir, new_dir, run):
    """Whether every matrix file of `run` reads back with the same bits in
    both trees, as a note for its line; empty where their bytes all match."""
    pairs = _matrix_pairs(base_dir, new_dir, run)
    if all(os.path.isfile(a) and os.path.isfile(b) and _normalized(a) == _normalized(b)
           for a, b in pairs):
        return ""
    return "matrix_bits=" + ("identical" if all(_same_bits(*p) for p in pairs) else "differ")


def summary(base_dir, new_dir, run):
    """How far the outputs of `run` moved: matrix difference, final_cost and feas_err."""
    worst = max((_max_rel_diff(*pair) for pair in _matrix_pairs(base_dir, new_dir, run)),
                default=None)
    moved = "no matrix files" if worst is None else f"max_rel_diff={worst:.1e}"
    values = zip(("final_cost", "feas_err"),
                 *(_console_values(os.path.join(d, run, CONSOLE)) for d in (base_dir, new_dir)))
    return " ".join([moved] + [f"{key}={a} -> {b}" for key, a, b in values])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py BASE_SRC NEW_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        write_inputs(inputs)
        outs = [os.path.join(tmp, label) for label in ("base", "new")]
        for src, out in zip(argv, outs):
            run_all(src, out, inputs)
        lines = []
        for diff in differences(*outs):
            run = diff.split(os.sep)[0]
            notes = filter(None, [summary(*outs, run), matrix_bits(*outs, run)])
            lines.append(f"outputs differ: {diff}: {' '.join(notes)}")
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"identical outputs: {len(RUNS)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
