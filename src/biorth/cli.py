"""Benchmark and verification command line.

Each experiment is a single deterministic invocation: seeded inputs, a
solver run, a CSV trace plus result matrices under an output prefix, and a
one-line summary on stdout. Exit codes: 0 success, 1 runtime or data
error, 2 usage error. The parser enforces the range of every numeric flag
(NaN fails it, and so does an infinite objective weight, data scale or
noise level) and exits 2; an input the library rejects, such as a data
file of the wrong shape or negative weights, exits 1. The `biorth`
command starts through `biorth_launcher`, which sets the BLAS thread
count before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .checks import SUITES, run_suites
from .errors import BiorthError, NumericalError
from .linalg import fro_norm
from .manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    _tangent_residual,
    project_tangent,
    random_point,
)
from .matio import format_real, read_matrix, write_matrix, write_trace
from .problems import FunmapProblem, PenaltyProblem, funnel_weights, random_nearest_pair, synth_funmap
from .solvers import SolverOptions, conjugate_gradient, gradient_descent

# Offset between the data seed and the start-point seed of funmap runs.
START_SEED_OFFSET = 7919


class UsageError(Exception):
    pass


def _at_least(kind, low, strict=False, finite=False):
    """Parser type: a `kind` value >= low (> low if strict), below inf if finite.

    NaN fails every variant.
    """
    rule = (">" if strict else ">=") + f" {low}" + (" and finite" if finite else "")

    def parse(text):
        value = kind(text)
        ok = value > low if strict else value >= low
        if finite:
            ok = ok and value < math.inf
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return parse


COUNT = _at_least(int, 0)
SIZE = _at_least(int, 1)
NONNEGATIVE = _at_least(float, 0)
# Objective weights, data scales and the check suites' tolerance factor: an
# infinite weight makes the gradient NaN wherever it meets a zero, an infinite
# scale makes the data non-finite, and an infinite factor passes every suite.
FINITE = _at_least(float, 0, finite=True)
POSITIVE_WEIGHT = _at_least(float, 0, strict=True, finite=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biorth",
        description="Optimization benchmarks on the biorthogonal manifold of "
        "matrix pairs (X, Y) with XY = I.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out_flag(p):
        p.add_argument("--out", help="output path prefix (default: the command name)")

    def add_solver_flags(p, default_iters=SolverOptions.max_iters):
        p.add_argument("--solver", choices=("gd", "cg"), default="cg",
                       help="gradient descent or conjugate gradient (default cg)")
        p.add_argument("--max-iters", type=COUNT, default=default_iters)
        p.add_argument("--grad-tol", type=NONNEGATIVE, default=SolverOptions.grad_tol)
        p.add_argument("--seed", type=COUNT, default=1)
        add_out_flag(p)

    p_model = sub.add_parser(
        "model-problem",
        help="nearest biorthogonal pair to seeded Gaussian targets, solved on the manifold",
    )
    p_model.add_argument("--n", type=SIZE, default=100)
    p_model.add_argument("--scale", type=FINITE, default=5.0,
                         help="standard deviation of the Gaussian target entries")
    add_solver_flags(p_model)
    p_model.set_defaults(func=cmd_model_problem)

    p_pen = sub.add_parser(
        "penalty",
        help="same targets, biorthogonality replaced by a quadratic penalty on the flat space",
    )
    p_pen.add_argument("--n", type=SIZE, default=100)
    p_pen.add_argument("--scale", type=FINITE, default=5.0)
    p_pen.add_argument("--alpha", type=POSITIVE_WEIGHT, default=100.0, help="penalty weight")
    add_solver_flags(p_pen)
    p_pen.set_defaults(func=cmd_penalty)

    p_fun = sub.add_parser(
        "funmap",
        help="bidirectional functional-map recovery on the manifold of map pairs",
    )
    p_fun.add_argument("--synthetic", action="store_true",
                       help="generate a seeded instance instead of reading files")
    # No parser defaults: cmd_funmap applies them in synthetic mode and rejects
    # these flags in file mode.
    p_fun.add_argument("--q", type=SIZE, help="rows of the synthetic data (default 64)")
    p_fun.add_argument("--k", type=SIZE, help="size of the synthetic maps (default 16)")
    p_fun.add_argument("--noise", type=FINITE, help="synthetic noise level (default 0)")
    p_fun.add_argument("--lambda", dest="lam", type=FINITE, default=0.0,
                       help="weight of the funnel regularizer")
    p_fun.add_argument("--a", dest="a_path", help="coefficient matrix A (q x k)")
    p_fun.add_argument("--b", dest="b_path", help="coefficient matrix B (q x k)")
    p_fun.add_argument("--w", dest="w_path",
                       help="k x k weight matrix (default: |i - j| / k)")
    add_solver_flags(p_fun, default_iters=500)
    p_fun.set_defaults(func=cmd_funmap)

    p_proj = sub.add_parser(
        "project",
        help="project an ambient pair onto the tangent space at a feasible base pair",
    )
    p_proj.add_argument("--x0", required=True)
    p_proj.add_argument("--y0", required=True)
    p_proj.add_argument("--phi", required=True)
    p_proj.add_argument("--psi", required=True)
    add_out_flag(p_proj)
    p_proj.set_defaults(func=cmd_project)

    p_check = sub.add_parser("check", help="run the self-verification suites")
    p_check.add_argument("--suite", choices=sorted(SUITES), default=None,
                         help="run a single suite (default: all)")
    p_check.add_argument("--tol", type=FINITE, default=1.0,
                         help="scale factor applied to every suite tolerance")
    p_check.set_defaults(func=cmd_check)

    return parser


def _write_outputs(args, names, matrices, trace=None):
    """Write `trace`, then each matrix by name, under --out, by default the command name."""
    out = args.out or args.command
    if trace is not None:
        write_trace(f"{out}.trace.csv", trace)
    for name, m in zip(names, matrices):
        write_matrix(f"{out}.{name}.txt", m)


def _solve(args, problem, manifold, p0, names=("X", "Y"), truth=None):
    """Run the chosen solver from `p0`, write its trace and point, print the summary.

    With a `truth` pair, its recovery errors print first.
    """
    opts = SolverOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)
    solve = conjugate_gradient if args.solver == "cg" else gradient_descent
    started = time.perf_counter()
    point, trace = solve(problem, manifold, p0, opts)
    seconds = time.perf_counter() - started
    if truth is not None:
        print(f"recovery_c1={format_real(fro_norm(point.x - truth.x))} "
              f"recovery_c2={format_real(fro_norm(point.y - truth.y))}")
    _write_outputs(args, names, (point.x, point.y), trace)
    final = trace[-1]  # the record of `point`, feasibility error included
    print(
        f"final_cost={format_real(final.cost)} feas_err={format_real(final.feas_err)} "
        f"iters={final.iter} seconds={seconds:.3f}"
    )
    return 0


def cmd_model_problem(args):
    problem = random_nearest_pair(args.seed, args.n, args.scale)
    manifold = BiorthogonalManifold(args.n)
    return _solve(args, problem, manifold, manifold.identity())


def cmd_penalty(args):
    # Same seed gives the same targets as model-problem, so runs compare.
    targets = random_nearest_pair(args.seed, args.n, args.scale)
    problem = PenaltyProblem(targets.phi, targets.psi, args.alpha)
    manifold = EuclideanManifold(args.n)
    return _solve(args, problem, manifold, manifold.identity())


def cmd_funmap(args):
    if args.synthetic:
        mode, other = "synthetic", (("--a", args.a_path), ("--b", args.b_path),
                                    ("--w", args.w_path))
    else:
        mode, other = "file", (("--q", args.q), ("--k", args.k), ("--noise", args.noise))
    stray = [flag for flag, value in other if value is not None]
    if stray:
        raise UsageError(f"{', '.join(stray)}: not used in {mode} mode")
    truth = None
    if args.synthetic:
        q, k, noise = (default if value is None else value
                       for value, default in ((args.q, 64), (args.k, 16), (args.noise, 0.0)))
        if q < k:
            raise UsageError(f"need --q >= --k, got q={q}, k={k}")
        problem, truth = synth_funmap(args.seed, q, k, noise, args.lam)
    else:
        if not args.a_path or not args.b_path:
            raise UsageError("file mode needs --a and --b (or pass --synthetic)")
        a = read_matrix(args.a_path)
        b = read_matrix(args.b_path)
        w = read_matrix(args.w_path) if args.w_path else funnel_weights(a.shape[1])
        problem = FunmapProblem(a, b, w, lam=args.lam)
    p0 = random_point(args.seed + START_SEED_OFFSET, problem.k, 0.3)
    return _solve(args, problem, BiorthogonalManifold(problem.k), p0, ("C1", "C2"), truth)


def cmd_project(args):
    x0 = read_matrix(args.x0)
    y0 = read_matrix(args.y0)
    phi = read_matrix(args.phi)
    psi = read_matrix(args.psi)
    base = BiorthPoint(x0, y0)  # raises OffManifoldError when infeasible
    t = project_tangent(base, AmbientPair(phi, psi))
    if not (np.isfinite(t.u).all() and np.isfinite(t.v).all()):
        raise NumericalError("tangent projection overflowed: the result has non-finite entries")
    _write_outputs(args, ("X", "Y"), (t.u, t.v))
    print(f"tangent_residual={format_real(_tangent_residual(base, t.u, t.v))}")
    return 0


def cmd_check(args):
    names = [args.suite] if args.suite else None
    results = run_suites(names, tol_scale=args.tol)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{res.name}: {status} ({res.summary()})")
    return 0 if all_ok else 1


# Built once, at import: a parser keeps no state between parse_args calls.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, BiorthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
