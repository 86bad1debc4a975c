"""Self-verification suites behind the `check` command.

Each suite measures worst-case errors of one subsystem against an
independent route (vectorized minimum-norm solve, finite differences,
Taylor ratios, algebraic identities) and compares them to fixed bounds.
Each suite is a generator of (label, bound, value) samples wrapped by
`_worst_of_samples` into a function of no arguments that returns one
`Check` per label: the worst of its values against its unscaled bound, with
a NaN sample failing. Suites are deterministic. `run_suites` alone
names the suites, by their `SUITES` key, and multiplies every bound by its
`tol_scale`, so a deliberately corrupted run (tol_scale = 0) must fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import fro_norm, mat_exp, require_scale
from .manifold import (
    AmbientPair,
    BiorthogonalManifold,
    EuclideanManifold,
    EuclideanPoint,
    identity_point,
    pair_inverse,
    pair_product,
    project_tangent,
    random_point,
    random_tangent,
    ray_acceleration,
    retract,
)
from .problems import NearestPairProblem, PenaltyProblem, synth_funmap
from .rng import make_rng
from .solvers import fd_gradient_check


@dataclass(frozen=True)
class Check:
    label: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


@dataclass
class SuiteResult:
    name: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        parts = [f"{c.label} {c.value:.3e} <= {c.bound:.3e}" for c in self.checks]
        return "; ".join(parts)


def min_norm_tangent_oracle(p, a):
    """Independent tangent projection via the vectorized linear system.

    Stacks the constraint x0 @ Yt + Xt @ y0 = C as
    [kron(y0^T, I) | kron(I, x0)] z = vec(C) and takes the minimum-norm
    solution through the normal equations of the transpose. Only feasible
    for small n (dense 2n^2 unknowns).
    """
    n = p.n
    eye = np.eye(n)
    m = np.hstack([np.kron(p.y.T, eye), np.kron(eye, p.x)])
    c = (-(p.x @ a.psi) - (a.phi @ p.y)).reshape(-1, order="F")
    z = m.T @ np.linalg.solve(m @ m.T, c)
    xt = z[: n * n].reshape(n, n, order="F")
    yt = z[n * n :].reshape(n, n, order="F")
    return a.phi + xt, a.psi + yt


def _worst_of_samples(samples):
    """Make a suite from a generator of (label, bound, value) samples.

    The suite returns one Check per label, in first-seen order, holding the
    largest of that label's values and the bound of its first sample. The
    largest is taken by np.max, so a NaN sample makes its Check NaN and
    failing.
    """

    @functools.wraps(samples)
    def suite():
        worst = {}
        for label, bound, value in samples():
            worst.setdefault(label, (bound, []))[1].append(value)
        return [Check(label, float(np.max(values)), bound)
                for label, (bound, values) in worst.items()]

    return suite


@_worst_of_samples
def projection_oracle_suite():
    """Projection agrees with the vectorized minimum-norm oracle."""
    for n in range(2, 9):
        for trial in range(100):
            rng = make_rng(90_000 + 101 * n + trial)
            p = random_point(rng, n, 0.4)
            a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            t = project_tangent(p, a)
            u_ref, v_ref = min_norm_tangent_oracle(p, a)
            rel = (fro_norm(t.u - u_ref) + fro_norm(t.v - v_ref)) / max(
                fro_norm(u_ref) + fro_norm(v_ref), 1e-30
            )
            yield "worst rel err vs vectorized solve", 1e-8, rel


@_worst_of_samples
def tangency_suite():
    """Projected pairs are tangent, projection is idempotent, residual is normal."""
    for n in range(2, 21):
        for trial in range(20):
            rng = make_rng(91_000 + 97 * n + trial)
            p = random_point(rng, n, 0.4)
            a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            a_norm = a.norm()
            t = project_tangent(p, a)
            # Scaled by 1/n to compare against a per-dim bound.
            yield "worst tangent residual / n", 1e-10, fro_norm(p.x @ t.v + t.u @ p.y) / n
            t2 = project_tangent(p, t)
            yield ("worst idempotence err / |input|", 1e-10,
                   (fro_norm(t2.u - t.u) + fro_norm(t2.v - t.v)) / a_norm)
            ru = a.phi - t.u
            rv = a.psi - t.v
            for j in range(20):
                w = random_tangent(rng, p, 1.0)
                ip = abs(float(np.vdot(ru, w.u) + np.vdot(rv, w.v)))
                yield "worst residual-tangent inner / |input|", 1e-8, ip / a_norm


@_worst_of_samples
def retraction_suite():
    """Retraction stays feasible and matches the tangent line to first order."""
    for trial in range(50):
        rng = make_rng(92_000 + trial)
        n = int(rng.integers(2, 21))
        p = random_point(rng, n, 0.3)
        scale = float(rng.uniform(0.1, 5.0))
        t = random_tangent(rng, p, scale)
        q = retract(p, t)
        yield "worst feasibility err / n", 1e-11, q.feasibility_error() / n

        unit = (1.0 / scale) * t
        e1 = _linearization_error(p, unit, 0.1)
        e2 = _linearization_error(p, unit, 0.05)
        yield "worst |step-halving ratio - 4|", 0.5, abs(e1 / e2 - 4.0)


def _linearization_error(p, t, s):
    q = retract(p, s * t)
    du = q.x - (p.x + s * t.u)
    dv = q.y - (p.y + s * t.v)
    return float(np.sqrt(fro_norm(du) ** 2 + fro_norm(dv) ** 2))


@_worst_of_samples
def exp_identity_suite():
    """e^G e^-G recovers the identity for Gaussian G with fro norm capped at 10.

    The two factors are the first legs of two calls, mat_exp(G) and
    mat_exp(-G), so the suite tests the exponential itself and not the
    correction that makes each call's second leg the inverse of its first.
    """
    for n in (2, 3, 5, 10, 20, 50, 100):
        for trial in range(5):
            rng = make_rng(93_000 + 7 * n + trial)
            g = rng.standard_normal((n, n))
            nrm = fro_norm(g)
            if nrm > 10.0:
                g *= 10.0 / nrm
            err = fro_norm(mat_exp(g)[0] @ mat_exp(-g)[0] - np.eye(n))
            yield "worst identity err / n", 1e-11, err / n


@_worst_of_samples
def gradient_fd_suite():
    """All three objective gradients agree with central finite differences."""
    n = 10
    bo = BiorthogonalManifold(n)
    bo_k = BiorthogonalManifold(16)
    flat = EuclideanManifold(n)
    for trial in range(20):
        rng = make_rng(94_000 + trial)
        phi = rng.standard_normal((n, n))
        psi = rng.standard_normal((n, n))
        p = random_point(rng, n, 0.4)
        nearest = NearestPairProblem(phi, psi)
        yield ("nearest-pair worst rel err", 1e-5,
               fd_gradient_check(nearest, bo, p, seed=7 * trial))
        penalty = PenaltyProblem(phi, psi, alpha=100.0)
        legs = np.eye(n) + 0.4 * make_rng(94_500 + trial).standard_normal((2, n, n))
        q = EuclideanPoint(*legs)
        yield ("penalty worst rel err", 1e-5,
               fd_gradient_check(penalty, flat, q, seed=11 * trial))
        fun, _ = synth_funmap(94_900 + trial, q=64, k=16, noise=0.1, lam=0.1)
        pk = random_point(95_300 + trial, 16, 0.3)
        yield "funmap worst rel err", 1e-5, fd_gradient_check(fun, bo_k, pk, seed=13 * trial)


def _curvature_error(problem, x, y, u, v, h):
    """Relative error of problem.curvature against central differences of <grad f, xi>."""

    def slope(s):
        g = problem.cost_grad(x + s * u, y + s * v)[1]
        return float(np.vdot(g.phi, u)) + float(np.vdot(g.psi, v))

    exact = problem.curvature(x, y, u, v)
    fd = (slope(h) - slope(-h)) / (2.0 * h)
    return abs(exact - fd) / max(abs(exact), abs(fd), 1e-30)


@_worst_of_samples
def curvature_suite():
    """Hessian forms and the retraction's acceleration agree with central differences.

    Each problem's curvature(x, y, u, v) is compared with the difference
    quotient of <grad f(x + s u, y + s v), (u, v)> at s = +-h. The
    acceleration c''(0) of the curve c(s) = retract(p, s t) is compared with
    (c(h) - 2 c(0) + c(-h)) / h^2.
    """
    n = 10
    for trial in range(20):
        rng = make_rng(97_000 + trial)
        phi, psi, x, y, u, v = rng.standard_normal((6, n, n))
        nearest = NearestPairProblem(phi, psi)
        yield "nearest-pair worst rel err", 1e-8, _curvature_error(nearest, x, y, u, v, 1e-5)
        penalty = PenaltyProblem(phi, psi, alpha=100.0)
        yield "penalty worst rel err", 1e-8, _curvature_error(penalty, x, y, u, v, 1e-5)
        fun, _ = synth_funmap(97_500 + trial, q=64, k=16, noise=0.1, lam=0.1)
        c1, c2, w1, w2 = rng.standard_normal((4, 16, 16))
        yield "funmap worst rel err", 1e-8, _curvature_error(fun, c1, c2, w1, w2, 1e-5)

        p = random_point(rng, n, 0.4)
        t = random_tangent(rng, p, 1.0)
        h = 1e-3
        plus, minus = retract(p, h * t), retract(p, (-h) * t)
        acc = ray_acceleration(p, t)
        err = (fro_norm((plus.x - 2.0 * p.x + minus.x) / h**2 - acc.phi)
               + fro_norm((plus.y - 2.0 * p.y + minus.y) / h**2 - acc.psi))
        yield "retraction acceleration worst rel err", 1e-6, err / acc.norm()


@_worst_of_samples
def lie_closure_suite():
    """Group structure: closure, inverses, identity element of the pair product."""
    for trial in range(100):
        rng = make_rng(96_000 + trial)
        n = int(rng.integers(2, 21))
        p = random_point(rng, n, 0.4)
        q = random_point(rng, n, 0.4)
        yield "worst product feasibility err", 1e-10, pair_product(p, q).feasibility_error()
        ip = pair_product(pair_inverse(p), p)
        eye = np.eye(n)
        yield "worst inverse-product err", 1e-10, fro_norm(ip.x - eye) + fro_norm(ip.y - eye)
        ep = pair_product(identity_point(n), p)
        yield "worst identity-product err", 1e-10, fro_norm(ep.x - p.x) + fro_norm(ep.y - p.y)


SUITES = {
    "projection-oracle": projection_oracle_suite,
    "tangency": tangency_suite,
    "retraction": retraction_suite,
    "exp-identity": exp_identity_suite,
    "gradient-fd": gradient_fd_suite,
    "curvature": curvature_suite,
    "lie-closure": lie_closure_suite,
}


def run_suites(names=None, tol_scale=1.0):
    """Run the named suites (all by default), each bound multiplied once by `tol_scale`.

    ValueError unless 0 <= tol_scale < inf: an infinite factor would pass every
    suite, and NaN or a negative one would fail every suite.
    """
    tol_scale = require_scale(tol_scale, "tol_scale")
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        checks = [Check(c.label, c.value, c.bound * tol_scale) for c in SUITES[name]()]
        results.append(SuiteResult(name, checks))
    return results
