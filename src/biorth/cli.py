"""Benchmark and verification command line.

Each experiment is a single deterministic invocation: seeded inputs, a
solver run, a CSV trace plus result matrices under an output prefix, and a
one-line summary on stdout. Exit codes: 0 success, 1 runtime or data
error, 2 usage error. The parser enforces the range of every numeric flag
(NaN fails it) and exits 2; an input the library rejects, such as a data
file of the wrong shape or negative weights, exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time

from .checks import SUITES, run_suites
from .errors import BiorthError
from .linalg import fro_norm
from .manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    project_tangent,
)
from .matio import format_real, read_matrix, write_matrix, write_trace
from .problems import FunmapProblem, PenaltyProblem, funnel_weights, random_nearest_pair, synth_funmap
from .solvers import SolverOptions, conjugate_gradient, gradient_descent

# Offset between the data seed and the start-point seed of funmap runs.
START_SEED_OFFSET = 7919


class UsageError(Exception):
    pass


def _at_least(kind, low, strict=False):
    """Parser type: a `kind` value >= low (> low if strict). NaN fails both."""
    op = ">" if strict else ">="

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {op} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return parse


COUNT = _at_least(int, 0)
SIZE = _at_least(int, 1)
NONNEGATIVE = _at_least(float, 0)
POSITIVE = _at_least(float, 0, strict=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biorth",
        description="Optimization benchmarks on the biorthogonal manifold of "
        "matrix pairs (X, Y) with XY = I.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p, default_iters=100):
        p.add_argument("--solver", choices=("gd", "cg"), default="cg",
                       help="gradient descent or conjugate gradient (default cg)")
        p.add_argument("--max-iters", type=COUNT, default=default_iters)
        p.add_argument("--grad-tol", type=NONNEGATIVE, default=1e-8)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=None,
                       help="output path prefix (default: the command name)")

    p_model = sub.add_parser(
        "model-problem",
        help="nearest biorthogonal pair to seeded Gaussian targets, solved on the manifold",
    )
    p_model.add_argument("--n", type=SIZE, default=100)
    p_model.add_argument("--scale", type=NONNEGATIVE, default=5.0,
                         help="standard deviation of the Gaussian target entries")
    add_solver_flags(p_model)
    p_model.set_defaults(func=cmd_model_problem)

    p_pen = sub.add_parser(
        "penalty",
        help="same targets, biorthogonality replaced by a quadratic penalty on the flat space",
    )
    p_pen.add_argument("--n", type=SIZE, default=100)
    p_pen.add_argument("--scale", type=NONNEGATIVE, default=5.0)
    p_pen.add_argument("--alpha", type=POSITIVE, default=100.0, help="penalty weight")
    add_solver_flags(p_pen)
    p_pen.set_defaults(func=cmd_penalty)

    p_fun = sub.add_parser(
        "funmap",
        help="bidirectional functional-map recovery on the manifold of map pairs",
    )
    p_fun.add_argument("--synthetic", action="store_true",
                       help="generate a seeded instance instead of reading files")
    p_fun.add_argument("--q", type=SIZE, default=64)
    p_fun.add_argument("--k", type=SIZE, default=16)
    p_fun.add_argument("--noise", type=NONNEGATIVE, default=0.0)
    p_fun.add_argument("--lambda", dest="lam", type=NONNEGATIVE, default=0.0,
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
    p_proj.add_argument("--out", default="project")
    p_proj.set_defaults(func=cmd_project)

    p_check = sub.add_parser("check", help="run the self-verification suites")
    p_check.add_argument("--suite", choices=sorted(SUITES), default=None,
                         help="run a single suite (default: all)")
    p_check.add_argument("--tol", type=NONNEGATIVE, default=1.0,
                         help="scale factor applied to every suite tolerance")
    p_check.set_defaults(func=cmd_check)

    return parser


def _run_solver(args, problem, manifold, p0):
    opts = SolverOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)
    solve = conjugate_gradient if args.solver == "cg" else gradient_descent
    started = time.perf_counter()
    point, trace = solve(problem, manifold, p0, opts)
    seconds = time.perf_counter() - started
    return point, trace, seconds


def _emit_run(out, point, trace, seconds, manifold, x_name="X", y_name="Y"):
    write_trace(f"{out}.trace.csv", trace)
    write_matrix(f"{out}.{x_name}.txt", point.x)
    write_matrix(f"{out}.{y_name}.txt", point.y)
    final = trace[-1]
    feas = manifold.feasibility_error(point)
    print(
        f"final_cost={format_real(final.cost)} feas_err={format_real(feas)} "
        f"iters={final.iter} seconds={seconds:.3f}"
    )


def cmd_model_problem(args):
    out = args.out or "model-problem"
    problem = random_nearest_pair(args.seed, args.n, args.scale)
    manifold = BiorthogonalManifold(args.n)
    point, trace, seconds = _run_solver(args, problem, manifold, manifold.identity())
    _emit_run(out, point, trace, seconds, manifold)
    return 0


def cmd_penalty(args):
    out = args.out or "penalty"
    # Same seed gives the same targets as model-problem, so runs compare.
    targets = random_nearest_pair(args.seed, args.n, args.scale)
    problem = PenaltyProblem(targets.phi, targets.psi, args.alpha)
    manifold = EuclideanManifold(args.n)
    point, trace, seconds = _run_solver(args, problem, manifold, manifold.identity())
    _emit_run(out, point, trace, seconds, manifold)
    return 0


def cmd_funmap(args):
    out = args.out or "funmap"
    truth = None
    if args.synthetic:
        if args.q < args.k:
            raise UsageError(f"need --q >= --k, got q={args.q}, k={args.k}")
        problem, truth = synth_funmap(args.seed, args.q, args.k, args.noise, args.lam)
    else:
        if not args.a_path or not args.b_path:
            raise UsageError("file mode needs --a and --b (or pass --synthetic)")
        a = read_matrix(args.a_path)
        b = read_matrix(args.b_path)
        w = read_matrix(args.w_path) if args.w_path else funnel_weights(a.shape[1])
        problem = FunmapProblem(a, b, w, lam=args.lam)
    k = problem.k
    manifold = BiorthogonalManifold(k)
    p0 = manifold.random_point(args.seed + START_SEED_OFFSET, scale=0.3)
    point, trace, seconds = _run_solver(args, problem, manifold, p0)
    if truth is not None:
        rec1 = fro_norm(point.x - truth.x)
        rec2 = fro_norm(point.y - truth.y)
        print(f"recovery_c1={format_real(rec1)} recovery_c2={format_real(rec2)}")
    _emit_run(out, point, trace, seconds, manifold, x_name="C1", y_name="C2")
    return 0


def cmd_project(args):
    x0 = read_matrix(args.x0)
    y0 = read_matrix(args.y0)
    phi = read_matrix(args.phi)
    psi = read_matrix(args.psi)
    base = BiorthPoint(x0, y0)  # raises OffManifoldError when infeasible
    t = project_tangent(base, AmbientPair(phi, psi))
    write_matrix(f"{args.out}.X.txt", t.u)
    write_matrix(f"{args.out}.Y.txt", t.v)
    print(f"tangent_residual={format_real(t.residual)}")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
