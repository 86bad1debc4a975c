"""First-order descent over a manifold interface.

Gradient descent and Polak-Ribiere conjugate gradient, both with Armijo
backtracking, plus a finite-difference gradient checker. A problem is any
object with ``cost_grad(x, y) -> (float, AmbientPair)``, the cost and the
Euclidean gradient from one evaluation; the manifold supplies
project/retract/metric/transport. Each line-search trial point is evaluated
once, and the accepted point's gradient is the one the solver projects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTangentError, LineSearchError, NumericalError, OffManifoldError


# Line-search constants: sufficient-decrease coefficient, backtracking
# factor, first trial step of a search, and the step floor.
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
INITIAL_STEP = 1.0
MIN_STEP = 1e-16


@dataclass
class SolverOptions:
    """Iteration budget and stopping tolerance for the first-order solvers.

    A run stops after `max_iters` iterations or once the Riemannian
    gradient norm is at most `grad_tol`.
    """

    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


@dataclass(frozen=True)
class TraceRecord:
    """One accepted iterate: cost, gradient norm, fro_norm(x @ y - I), wall time."""

    iter: int
    cost: float
    grad_norm: float
    feas_err: float
    elapsed_ms: float


def riemannian_gradient(problem, manifold, p):
    """Euclidean gradient projected onto the tangent space at `p`."""
    return manifold.project(p, problem.cost_grad(p.x, p.y)[1])


def armijo_search(problem, manifold, p, direction, slope, f0=None, initial_step=INITIAL_STEP):
    """Backtracking line search along `direction` from `p`.

    `slope` is the metric inner product of the Riemannian gradient with the
    direction and must be negative. Starting at `initial_step`, the step is
    multiplied by BACKTRACK_FACTOR until it is accepted. Returns (step,
    new_point, new_cost, new_egrad) with new_cost <= f0 + ARMIJO_C1 * step *
    slope, where new_egrad is the Euclidean gradient that
    `problem.cost_grad` returned together with new_cost at new_point.
    Candidates that leave the feasible region or overflow are treated as
    infinitely bad and backtracked past. Once a step is accepted, one
    quadratic interpolation of the ray is tried and kept when it is both
    lower and still acceptable. Raises LineSearchError at the MIN_STEP
    floor.
    """
    if not slope < 0:
        raise ValueError(f"not a descent direction: slope = {slope!r}")
    if f0 is None:
        f0 = problem.cost_grad(p.x, p.y)[0]

    def evaluate(s):
        # Oversized trial steps legitimately overflow before being rejected.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                candidate = manifold.retract(p, s * direction)
                return (candidate, *problem.cost_grad(candidate.x, candidate.y))
            except (OffManifoldError, NumericalError, InvalidTangentError):
                return None, math.inf, None

    def acceptable(s, fc):
        return math.isfinite(fc) and fc <= f0 + ARMIJO_C1 * s * slope

    s = initial_step
    while s >= MIN_STEP:
        candidate, fc, gc = evaluate(s)
        if acceptable(s, fc):
            curvature = (fc - f0 - slope * s) / (s * s)
            if curvature > 0:
                t = -slope / (2.0 * curvature)
                if 0 < t < 4.0 * s and abs(t - s) > 1e-3 * s:
                    refined, fr, gr = evaluate(t)
                    if fr < fc and acceptable(t, fr):
                        return t, refined, fr, gr
            return s, candidate, fc, gc
        s *= BACKTRACK_FACTOR
    raise LineSearchError(f"no sufficient decrease above min_step = {MIN_STEP:.1e}")


def gradient_descent(problem, manifold, p0, opts=None):
    """Steepest descent with Armijo backtracking. Returns (point, trace)."""
    return _descend(problem, manifold, p0, opts, cg=False)


def conjugate_gradient(problem, manifold, p0, opts=None):
    """Nonlinear conjugate gradient with Polak-Ribiere(+) directions.

    Previous directions and gradients are carried to the new tangent space
    by projection; beta is clipped at zero and the direction resets to
    steepest descent every dim(manifold) iterations, whenever descent is
    lost, or when successive gradients stop being near-orthogonal (Powell's
    restart criterion), which keeps stale conjugacy information from
    degrading the iteration below plain steepest descent.
    """
    return _descend(problem, manifold, p0, opts, cg=True)


# Restart when |<g_new, g_old>| >= threshold * |g_new|^2 (Powell).
POWELL_RESTART_THRESHOLD = 0.1


def _descend(problem, manifold, p0, opts, cg):
    if opts is None:
        opts = SolverOptions()
    p = manifold.check_point(p0)
    restart_every = max(manifold.dim, 1)

    started = time.perf_counter()

    def elapsed_ms():
        return (time.perf_counter() - started) * 1e3

    f, g = problem.cost_grad(p.x, p.y)
    if not math.isfinite(f):
        raise ValueError(f"cost at the starting point is not finite: {f!r}")
    # Rebinding g to the projection frees the Euclidean gradient here and below.
    g = manifold.project(p, g)
    gnorm_sq = manifold.metric(p, g, g)
    gnorm = math.sqrt(gnorm_sq)
    trace = [TraceRecord(0, f, gnorm, manifold.feasibility_error(p), elapsed_ms())]

    d = -g
    steepest = True
    since_restart = 0
    step_hint = INITIAL_STEP

    for k in range(1, opts.max_iters + 1):
        if gnorm <= opts.grad_tol:
            break
        slope = -gnorm_sq if steepest else manifold.metric(p, g, d)
        if not steepest and slope >= 0:
            d, steepest, since_restart = -g, True, 0
            slope = -gnorm_sq
        try:
            step, p_new, f_new, g_new = armijo_search(
                problem, manifold, p, d, slope, f0=f, initial_step=step_hint
            )
        except LineSearchError:
            if steepest:
                break
            d, steepest, since_restart = -g, True, 0
            try:
                step, p_new, f_new, g_new = armijo_search(
                    problem, manifold, p, d, -gnorm_sq, f0=f, initial_step=step_hint
                )
            except LineSearchError:
                break
        step_hint = min(max(2.0 * step, MIN_STEP), 4.0 * INITIAL_STEP)

        g_new = manifold.project(p_new, g_new)
        gnorm_sq_new = manifold.metric(p_new, g_new, g_new)
        if cg:
            since_restart += 1
            g_prev = manifold.transport(p_new, g)
            orthogonality_lost = (
                abs(manifold.metric(p_new, g_new, g_prev))
                >= POWELL_RESTART_THRESHOLD * gnorm_sq_new
            )
            if since_restart >= restart_every or orthogonality_lost:
                d, steepest, since_restart = -g_new, True, 0
            else:
                d_prev = manifold.transport(p_new, d)
                beta = max(
                    0.0,
                    manifold.metric(p_new, g_new, g_new - g_prev) / gnorm_sq,
                )
                d = -g_new + beta * d_prev
                steepest = beta == 0.0
        else:
            d, steepest = -g_new, True

        p, f, g = p_new, f_new, g_new
        gnorm_sq = gnorm_sq_new
        gnorm = math.sqrt(gnorm_sq)
        trace.append(
            TraceRecord(k, f, gnorm, manifold.feasibility_error(p), elapsed_ms())
        )

    return p, trace


def fd_gradient_check(problem, manifold, p, n_dirs=10, h=1e-6, seed=0):
    """Worst relative error of the projected gradient against central differences.

    Compares metric(grad, t) with (f(R(h t)) - f(R(-h t))) / 2h along
    `n_dirs` seeded unit tangents t at `p`.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    g = riemannian_gradient(problem, manifold, p)
    worst = 0.0
    for i in range(n_dirs):
        t = manifold.random_tangent(seed + i, p, 1.0)
        analytic = manifold.metric(p, g, t)
        q = manifold.retract(p, h * t)
        fp = problem.cost_grad(q.x, q.y)[0]
        q = manifold.retract(p, (-h) * t)
        fm = problem.cost_grad(q.x, q.y)[0]
        fd = (fp - fm) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst
