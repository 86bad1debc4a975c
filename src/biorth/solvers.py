"""First-order descent over a manifold interface.

Gradient descent and Polak-Ribiere conjugate gradient, both with a
sufficient-decrease line search along the retraction curve, plus a
finite-difference gradient checker. Both solvers run one loop, in which
gradient descent is conjugate gradient restarted every iteration, and
conjugate gradient restarts only on Powell's test, lost descent or a
failed search. A problem is any object with
``cost_grad(x, y) -> (float, AmbientPair)``,
the cost and the Euclidean gradient from one evaluation, and optionally
``curvature(x, y, u, v)``, the Euclidean Hessian form along (u, v); the
manifold supplies check_point/project/retract/ray_velocity/
ray_acceleration, the gradient checker included, where retract(p, t, s)
is the point that the step s * t reaches. Both spaces are embedded in the
ambient space of matrix pairs, and a tangent is an ambient pair with a
base point. They take the ambient Frobenius product as their metric, so
every inner product comes from the values, `g.inner(d)`, and each trace
row reads `p.feasibility_error()`. Each line-search trial
point is evaluated once. Its gradient gives the slope of the ray there,
which drives a cubic interpolation and a curvature test (Nocedal &
Wright, Numerical Optimization, section 3.5), and the accepted point's
gradient is the one the solver projects. The curvature test runs on every
search along -g: all of gradient descent's and each CG restart's. A search
along a conjugate direction stops at its first trial with sufficient
decrease, since Powell's restart test already guards CG against inexact
steps.
Each search starts at the Newton step on its ray, -phi'(0) / phi''(0):
phi''(0) is the problem's curvature along the direction plus the
Euclidean gradient's product with the ray's acceleration, so it costs a
few products and no retraction. Without a curvature, or where phi''(0) is
not positive and finite, it starts from the slope-ratio step of the
previous one (INITIAL_STEP on the first search). Conjugate gradient
carries the previous direction to the new point by `project`, but not the
previous gradient, of which it needs only one inner product. It carries
the direction at the top of the next iteration, so the point that ends
the run is projected once, for its gradient.
The one finiteness check is g.inner(g) of each projected gradient: if it
is finite, so is every entry of g; if not, the run raises NumericalError.
A problem whose gradient at the start point is not finite fails in its
own `cost_grad`, and the run raises NumericalError saying so.
A search that fails along a CG direction is retried once along -g. Along
-g, a search with no sufficient decrease ends the run at the current
point, and one in which no trial has a finite cost raises NumericalError.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .errors import LineSearchError, NumericalError, OffManifoldError
from .manifold import AmbientPair
from .rng import make_rng

__all__ = [
    "SolverOptions",
    "TraceRecord",
    "armijo_search",
    "conjugate_gradient",
    "fd_gradient_check",
    "gradient_descent",
    "riemannian_gradient",
]


# Line-search constants: sufficient-decrease coefficient, curvature
# coefficient of the strong Wolfe test, backtracking factor, first trial
# step of the first search, and the step floor. An interpolated backtrack
# from step s lands in [INTERPOLATE_MIN * s, BACKTRACK_FACTOR * s]. Only
# searches along -g apply the curvature test, where any c2 in (c1, 1) keeps
# the Wolfe convergence guarantee. The Newton first step is near-exact on
# most searches, so a stricter test mostly adds refines that barely lower
# the cost. Against 0.3, 0.5 takes a third of the refines at about the same
# iterations to target; larger values save trials but add iterations, and
# 0.4 lets CG fall behind gradient descent at n = 50 (ROADMAP item 8).
ARMIJO_C1 = 1e-4
WOLFE_C2 = 0.5
BACKTRACK_FACTOR = 0.5
INTERPOLATE_MIN = 0.1
INITIAL_STEP = 1.0
MIN_STEP = 1e-16


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and stopping tolerance for the first-order solvers.

    A run stops after `max_iters` iterations or once the Riemannian
    gradient norm is at most `grad_tol`. `max_iters` must be an integer
    >= 0 (of any integer type), so a NaN or a fraction raises ValueError.
    The options are frozen once validated.
    """

    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        try:
            valid = operator.index(self.max_iters) >= 0
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
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
    """Euclidean gradient projected onto the tangent space at `p`, certified by check_point."""
    p = manifold.check_point(p)
    return manifold.project(p, problem.cost_grad(p.x, p.y)[1])


def _cubic_minimizer(s, f0, slope0, fs, slope_s):
    """Minimizer of the Hermite cubic through (0, f0, slope0) and (s, fs, slope_s).

    Nocedal & Wright, Numerical Optimization, (3.59) with the earlier step
    at 0. NaN when the cubic has no local minimizer or an input is not finite.
    """
    if not (math.isfinite(fs) and math.isfinite(slope_s)):
        return math.nan
    d1 = slope0 + slope_s - 3.0 * (fs - f0) / s
    disc = d1 * d1 - slope0 * slope_s
    if not disc >= 0:
        return math.nan
    d2 = math.sqrt(disc)
    den = slope_s - slope0 + 2.0 * d2
    if den == 0:
        return math.nan
    return s - s * (slope_s + d2 - d1) / den


def armijo_search(problem, manifold, p, direction, slope, f0, initial_step=INITIAL_STEP,
                  curvature_test=True):
    """Line search with sufficient decrease along the retraction curve from `p`.

    `f0` is the cost at `p`. `slope` is the metric inner product of the
    Riemannian gradient with the direction and must be negative. Each trial
    step s is one retraction q = retract(p, direction, s) and one
    `problem.cost_grad` at q. Its gradient also gives the slope of the ray
    there, phi'(s) = <egrad(q), c'(s)>, the ambient product with the
    curve's velocity from `manifold.ray_velocity`. The first trial is `initial_step`, at least
    MIN_STEP and finite, and `slope` and `f0` must be finite; ValueError otherwise.
    The solvers pass the Newton step on the ray from _first_step, which is
    near the minimizer when phi is near quadratic, so with WOLFE_C2 = 0.5
    most searches accept their first trial.

    - A trial that fails sufficient decrease moves to the minimizer of the
      Hermite cubic through (0, f0, slope) and (s, phi(s), phi'(s)), clipped
      to [INTERPOLATE_MIN * s, BACKTRACK_FACTOR * s]; when phi(s) or phi'(s)
      is not finite, or the cubic has no minimizer, the step is multiplied
      by BACKTRACK_FACTOR.
    - A trial with sufficient decrease, new_cost <= f0 + ARMIJO_C1 * s *
      slope, is accepted at once when `curvature_test` is false, or when it
      also passes the curvature test |phi'(s)| <= WOLFE_C2 * |slope|.
      Otherwise the cubic's minimizer is tried once and kept when it is
      both lower and still acceptable. Without the curvature test, phi'(s)
      is computed only at trials that fail sufficient decrease.

    Candidates that leave the feasible region or overflow, an
    OffManifoldError or a NumericalError, are treated as infinitely bad;
    any other error propagates. Returns (step, new_point, new_cost,
    new_egrad), where new_egrad is the Euclidean gradient that
    `problem.cost_grad` returned together with new_cost at new_point. Below the MIN_STEP floor it raises
    NumericalError if no trial had a finite cost, and LineSearchError if
    some had one but none decreased enough. When the feasibility check
    rejected any trial point, the NumericalError message counts those
    rejections and the trials that failed numerically.
    """
    if not -math.inf < slope < 0:
        raise ValueError(f"not a descent direction with a finite slope: slope = {slope!r}")
    if not math.isfinite(f0):
        raise ValueError(f"cost at the start of the search is not finite: f0 = {f0!r}")
    if not MIN_STEP <= initial_step < math.inf:
        raise ValueError(f"initial_step must be finite and >= min_step = {MIN_STEP:.1e}, "
                         f"got {initial_step!r}")
    velocity = manifold.ray_velocity(p, direction)
    rejected = []  # exception type of each trial point that raised

    # Oversized trial steps legitimately overflow before being rejected.
    def evaluate(s):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                q = manifold.retract(p, direction, s)
                return (q, *problem.cost_grad(q.x, q.y))
            except (OffManifoldError, NumericalError) as exc:
                rejected.append(type(exc))
                return None, math.inf, None

    def slope_at(q, gq):
        if q is None:
            return math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            return gq.inner(velocity(q))

    def acceptable(s, fc):
        return math.isfinite(fc) and fc <= f0 + ARMIJO_C1 * s * slope

    s = initial_step
    finite_seen = False
    while s >= MIN_STEP:
        q, fq, gq = evaluate(s)
        finite_seen = finite_seen or math.isfinite(fq)
        decreased = acceptable(s, fq)
        if decreased and not curvature_test:
            return s, q, fq, gq
        slope_q = slope_at(q, gq)
        t = _cubic_minimizer(s, f0, slope, fq, slope_q)
        if decreased:
            if abs(slope_q) <= WOLFE_C2 * -slope:
                return s, q, fq, gq
            if 0 < t < 4.0 * s and abs(t - s) > 1e-3 * s:
                refined, fr, gr = evaluate(t)
                if fr < fq and acceptable(t, fr):
                    return t, refined, fr, gr
            return s, q, fq, gq
        if math.isfinite(t):
            s = min(max(t, INTERPOLATE_MIN * s), BACKTRACK_FACTOR * s)
        else:
            s *= BACKTRACK_FACTOR
    if not finite_seen:
        message = (f"no trial step of the line search, down to min_step = "
                   f"{MIN_STEP:.1e}, has a finite cost")
        infeasible = rejected.count(OffManifoldError)
        if infeasible:
            message += (f": {infeasible} trial points failed the feasibility check and "
                        f"{rejected.count(NumericalError)} failed numerically")
        raise NumericalError(message)
    raise LineSearchError(f"no sufficient decrease above min_step = {MIN_STEP:.1e}")


def gradient_descent(problem, manifold, p0, opts=None):
    """Steepest descent with Armijo backtracking. Returns (point, trace)."""
    return _descend(problem, manifold, p0, opts, conjugate=False)


def conjugate_gradient(problem, manifold, p0, opts=None):
    """Nonlinear conjugate gradient with Polak-Ribière directions, restarted by Powell's test.

    The previous direction is carried to the new tangent space by
    `manifold.project`, the orthogonal projection there. The previous
    gradient enters only through its inner product with the new one,
    <g_new, project(p_new, g_old)>. The projection is self-adjoint and fixes
    g_new, so that product is g_new.inner(g_old), the ambient product of the
    arrays, read without projecting g_old. That one number gives both
    beta = (|g_new|^2 - <g_new, g_old>) / |g_old|^2 and Powell's test. On
    BO(n) the projection is exactly self-adjoint only where x y = I; at a
    stored point that has drifted within its tolerance, its tangency
    correction is self-adjoint only up to terms in the drift, so beta and
    Powell's overlap carry an error of order feas_err |g_new| |g_old|.

    The direction resets to steepest descent when successive gradients
    stop being near-orthogonal (Powell's restart criterion), whenever
    descent is lost, or when the search along it fails, which keeps stale
    conjugacy information from degrading the iteration below plain
    steepest descent. Powell's test also keeps beta positive, so beta
    needs no clip at zero. Only a search along steepest descent applies the
    curvature test and its refine; a search along a conjugate direction
    accepts its first trial with sufficient decrease, and an inexact step
    there shows up in Powell's test, which restarts.
    """
    return _descend(problem, manifold, p0, opts, conjugate=True)


# Restart when |<g_new, g_old>| >= threshold * |g_new|^2 (Powell).
POWELL_RESTART_THRESHOLD = 0.1


def _ray_curvature(curvature, manifold, p, d, egrad):
    """phi''(0) of s -> f(retract(p, d, s)); NaN if the problem has no curvature.

    phi''(0) = <c'(0), Hess f c'(0)> + <egrad, c''(0)>, where c'(0) = d for
    every retraction, `curvature` is the problem's Hessian form, `egrad` is
    the Euclidean gradient at p and c''(0) comes from
    `manifold.ray_acceleration` (None on a straight ray). Data large enough
    to overflow gives an infinite or NaN value, which _first_step rejects.
    """
    if curvature is None:
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        value = curvature(p.x, p.y, d.phi, d.psi)
        acceleration = manifold.ray_acceleration(p, d)
        if acceleration is not None:
            value += egrad.inner(acceleration)
    return value


def _first_step(last_decrease, slope, phi2):
    """First trial step of a search whose ray has phi'(0) = `slope` and phi''(0) = `phi2`.

    The Newton step on the ray, -slope / phi2, when `phi2` (from
    _ray_curvature) is positive and finite, which a NaN is not. Otherwise the
    slope ratio of Nocedal & Wright, Numerical Optimization, section 3.5:
    alpha_prev * slope_prev / slope, where `last_decrease` is alpha_prev *
    slope_prev; before the first search it is INITIAL_STEP * slope, giving
    INITIAL_STEP. Both steps are clipped to [MIN_STEP, 4 * INITIAL_STEP].
    """
    if 0 < phi2 < math.inf:
        step = -slope / phi2
    else:
        step = last_decrease / slope
    return min(max(step, MIN_STEP), 4.0 * INITIAL_STEP)


def _descend(problem, manifold, p0, opts, conjugate):
    """Conjugate gradient, restarted along -g on every iteration unless `conjugate`.

    A search runs along -g at the start, on every iteration of gradient
    descent (`conjugate` false), when Powell's test fires, when descent is
    lost and after a failed search along a conjugate direction.
    Every accepted point, the start included, is projected, checked and
    recorded in one pass, which returns once the budget or the tolerance is met.
    """
    if opts is None:
        opts = SolverOptions()
    p = manifold.check_point(p0)

    started = time.perf_counter()
    # The start point may overflow as a trial point does; a non-finite cost is
    # reported below, and a non-finite gradient fails its AmbientPair constructor.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            f, egrad = problem.cost_grad(p.x, p.y)
        except NumericalError as exc:
            raise NumericalError("gradient at the starting point is not finite") from exc
    if not math.isfinite(f):
        raise ValueError(f"cost at the starting point is not finite: {f!r}")
    curvature = getattr(problem, "curvature", None)  # optional in the problem protocol
    trace = []

    k = 0
    while True:
        # egrad stays bound to the Euclidean gradient at p: phi''(0) takes its
        # product with the ray's acceleration.
        g = manifold.project(p, egrad)
        gnorm_sq = g.inner(g)
        if not math.isfinite(gnorm_sq):
            raise NumericalError(f"gradient norm is not finite at iteration {k}: "
                                 f"g.inner(g) = {gnorm_sq!r}")
        # The next search runs along -g when `restart` is set, else along the CG
        # direction d. The first search, along -g, has slope -gnorm_sq.
        if k == 0:
            restart, last_decrease = True, -INITIAL_STEP * gnorm_sq
        else:
            # <g, project(p, g_prev)>, exact up to terms in p's drift from x y = I.
            overlap = g.inner(g_prev)
            # Powell's threshold is below 1, so a step that passes his test has
            # gnorm_sq - overlap > 0 and beta > 0 with no clip; a beta that
            # underflows to 0 still gives the direction -g exactly.
            beta = (gnorm_sq - overlap) / gnorm_sq_prev
            restart = not conjugate or abs(overlap) >= POWELL_RESTART_THRESHOLD * gnorm_sq
        gnorm = math.sqrt(gnorm_sq)
        trace.append(TraceRecord(k, f, gnorm, p.feasibility_error(),
                                 (time.perf_counter() - started) * 1e3))
        if k >= opts.max_iters or gnorm <= opts.grad_tol:
            return p, trace

        g_prev, gnorm_sq_prev = g, gnorm_sq
        while True:
            if not restart:
                d = beta * manifold.project(p, d) - g
                slope = g.inner(d)
                restart = not -math.inf < slope < 0  # descent lost, or the slope overflowed
            if restart:
                d, slope = -g, -gnorm_sq
            phi2 = _ray_curvature(curvature, manifold, p, d, egrad)
            try:
                step, p, f, egrad = armijo_search(
                    problem, manifold, p, d, slope, f0=f,
                    initial_step=_first_step(last_decrease, slope, phi2), curvature_test=restart,
                )
                break
            except (LineSearchError, NumericalError) as exc:
                # A failed CG direction is retried along -g. Along -g, a search with
                # no sufficient decrease ends the run, one with no finite cost raises.
                if restart and isinstance(exc, NumericalError):
                    raise
                if restart:
                    return p, trace
                restart = True
        k += 1
        last_decrease = step * slope


# Finite-difference gradient check: number of directions and difference step.
FD_DIRECTIONS = 10
FD_STEP = 1e-6


def fd_gradient_check(problem, manifold, p, seed=0):
    """Worst relative error of the projected gradient against central differences.

    Compares grad.inner(t) with (f(R(h t)) - f(R(-h t))) / 2h, at h =
    FD_STEP, along FD_DIRECTIONS unit tangents t at `p`: direction i is the
    `manifold.project` of a Gaussian ambient pair drawn by make_rng(seed + i),
    scaled to unit norm. `p` is certified by `manifold.check_point` first.
    A NaN error along any direction makes the result NaN, so it fails every
    bound.
    """
    p = manifold.check_point(p)
    g = riemannian_gradient(problem, manifold, p)
    errors = []
    for i in range(FD_DIRECTIONS):
        t = manifold.project(p, AmbientPair(*make_rng(seed + i).standard_normal((2, p.n, p.n))))
        t = (1.0 / t.norm()) * t
        analytic = g.inner(t)
        q = manifold.retract(p, FD_STEP * t)
        fp = problem.cost_grad(q.x, q.y)[0]
        q = manifold.retract(p, (-FD_STEP) * t)
        fm = problem.cost_grad(q.x, q.y)[0]
        fd = (fp - fm) / (2.0 * FD_STEP)
        errors.append(abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12))
    return float(np.max(errors))
