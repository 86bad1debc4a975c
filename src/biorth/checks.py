"""Self-verification suites behind the `check` command.

Each suite measures worst-case errors of one subsystem against an
independent route (vectorized minimum-norm solve, finite differences,
Taylor ratios, algebraic identities) and compares them to fixed bounds.
Suites are deterministic; `tol_scale` multiplies every bound so a
deliberately corrupted run (tol_scale = 0) must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import fro_norm, mat_exp
from .manifold import (
    AmbientPair,
    BiorthogonalManifold,
    EuclideanManifold,
    _random_point,
    _random_tangent,
    identity_point,
    pair_inverse,
    pair_product,
    project_tangent,
    retract,
)
from .problems import FunmapProblem, NearestPairProblem, PenaltyProblem, synth_funmap
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
    checks: list[Check] = field(default_factory=list)

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


def projection_oracle_suite(tol_scale=1.0):
    """Projection agrees with the vectorized minimum-norm oracle."""
    worst = 0.0
    for n in range(2, 9):
        for trial in range(100):
            rng = make_rng(90_000 + 101 * n + trial)
            p = _random_point(rng, n, 0.4)
            a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            t = project_tangent(p, a)
            u_ref, v_ref = min_norm_tangent_oracle(p, a)
            rel = (fro_norm(t.u - u_ref) + fro_norm(t.v - v_ref)) / max(
                fro_norm(u_ref) + fro_norm(v_ref), 1e-30
            )
            worst = max(worst, rel)
    return SuiteResult(
        "projection-oracle",
        [Check("worst rel err vs vectorized solve", worst, 1e-8 * tol_scale)],
    )


def tangency_suite(tol_scale=1.0):
    """Projected pairs are tangent, projection is idempotent, residual is normal."""
    worst_resid = 0.0  # scaled by 1/n to compare against a per-dim bound
    worst_idem = 0.0
    worst_orth = 0.0
    for n in range(2, 21):
        for trial in range(20):
            rng = make_rng(91_000 + 97 * n + trial)
            p = _random_point(rng, n, 0.4)
            a = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            a_norm = a.norm()
            t = project_tangent(p, a)
            worst_resid = max(worst_resid, fro_norm(p.x @ t.v + t.u @ p.y) / n)
            t2 = project_tangent(p, t.as_ambient())
            worst_idem = max(
                worst_idem,
                (fro_norm(t2.u - t.u) + fro_norm(t2.v - t.v)) / a_norm,
            )
            ru = a.phi - t.u
            rv = a.psi - t.v
            for j in range(20):
                w = _random_tangent(rng, p, 1.0)
                ip = abs(float(np.vdot(ru, w.u) + np.vdot(rv, w.v)))
                worst_orth = max(worst_orth, ip / a_norm)
    return SuiteResult(
        "tangency",
        [
            Check("worst tangent residual / n", worst_resid, 1e-10 * tol_scale),
            Check("worst idempotence err / |input|", worst_idem, 1e-10 * tol_scale),
            Check("worst residual-tangent inner / |input|", worst_orth, 1e-8 * tol_scale),
        ],
    )


def retraction_suite(tol_scale=1.0):
    """Retraction stays feasible and matches the tangent line to first order."""
    worst_feas = 0.0  # scaled by 1/n
    worst_ratio_dev = 0.0
    for trial in range(50):
        rng = make_rng(92_000 + trial)
        n = int(rng.integers(2, 21))
        p = _random_point(rng, n, 0.3)
        scale = float(rng.uniform(0.1, 5.0))
        t = _random_tangent(rng, p, scale)
        q = retract(p, t)
        worst_feas = max(worst_feas, q.feasibility_error() / n)

        unit = (1.0 / scale) * t
        e1 = _linearization_error(p, unit, 0.1)
        e2 = _linearization_error(p, unit, 0.05)
        worst_ratio_dev = max(worst_ratio_dev, abs(e1 / e2 - 4.0))
    return SuiteResult(
        "retraction",
        [
            Check("worst feasibility err / n", worst_feas, 1e-11 * tol_scale),
            Check("worst |step-halving ratio - 4|", worst_ratio_dev, 0.5 * tol_scale),
        ],
    )


def _linearization_error(p, t, s):
    q = retract(p, s * t)
    du = q.x - (p.x + s * t.u)
    dv = q.y - (p.y + s * t.v)
    return float(np.sqrt(fro_norm(du) ** 2 + fro_norm(dv) ** 2))


def exp_identity_suite(tol_scale=1.0):
    """e^G e^-G recovers the identity for Gaussian G with fro norm capped at 10."""
    worst = 0.0  # scaled by 1/n
    for n in (2, 3, 5, 10, 20, 50, 100):
        for trial in range(5):
            rng = make_rng(93_000 + 7 * n + trial)
            g = rng.standard_normal((n, n))
            nrm = fro_norm(g)
            if nrm > 10.0:
                g *= 10.0 / nrm
            err = fro_norm(mat_exp(g) @ mat_exp(-g) - np.eye(n))
            worst = max(worst, err / n)
    return SuiteResult(
        "exp-identity",
        [Check("worst identity err / n", worst, 1e-11 * tol_scale)],
    )


def gradient_fd_suite(tol_scale=1.0):
    """All three objective gradients agree with central finite differences."""
    worst_nearest = 0.0
    worst_penalty = 0.0
    worst_funmap = 0.0
    n = 10
    bo = BiorthogonalManifold(n)
    flat = EuclideanManifold(n)
    for trial in range(20):
        rng = make_rng(94_000 + trial)
        phi = rng.standard_normal((n, n))
        psi = rng.standard_normal((n, n))
        p = _random_point(rng, n, 0.4)
        nearest = NearestPairProblem(phi, psi)
        worst_nearest = max(
            worst_nearest,
            fd_gradient_check(nearest, bo, p, n_dirs=10, h=1e-6, seed=7 * trial),
        )
        penalty = PenaltyProblem(phi, psi, alpha=100.0)
        q = flat.random_point(94_500 + trial, scale=0.4)
        worst_penalty = max(
            worst_penalty,
            fd_gradient_check(penalty, flat, q, n_dirs=10, h=1e-6, seed=11 * trial),
        )
        fun, _ = synth_funmap(94_900 + trial, q=64, k=16, noise=0.1, lam=0.1)
        bo_k = BiorthogonalManifold(16)
        pk = bo_k.random_point(95_300 + trial, scale=0.3)
        worst_funmap = max(
            worst_funmap,
            fd_gradient_check(fun, bo_k, pk, n_dirs=10, h=1e-6, seed=13 * trial),
        )
    bound = 1e-5 * tol_scale
    return SuiteResult(
        "gradient-fd",
        [
            Check("nearest-pair worst rel err", worst_nearest, bound),
            Check("penalty worst rel err", worst_penalty, bound),
            Check("funmap worst rel err", worst_funmap, bound),
        ],
    )


def lie_closure_suite(tol_scale=1.0):
    """Group structure: closure, inverses, identity element of the pair product."""
    worst_closure = 0.0
    worst_inverse = 0.0
    worst_identity = 0.0
    for trial in range(100):
        rng = make_rng(96_000 + trial)
        n = int(rng.integers(2, 21))
        p = _random_point(rng, n, 0.4)
        q = _random_point(rng, n, 0.4)
        prod = pair_product(p, q)
        worst_closure = max(worst_closure, prod.feasibility_error())
        inv_p = pair_inverse(p)
        ix, iy = pair_product((inv_p.x, inv_p.y), (p.x, p.y))
        eye = np.eye(n)
        worst_inverse = max(
            worst_inverse, fro_norm(ix - eye) + fro_norm(iy - eye)
        )
        e = identity_point(n)
        ex, ey = pair_product((e.x, e.y), (p.x, p.y))
        worst_identity = max(
            worst_identity, fro_norm(ex - p.x) + fro_norm(ey - p.y)
        )
    bound = 1e-10 * tol_scale
    return SuiteResult(
        "lie-closure",
        [
            Check("worst product feasibility err", worst_closure, bound),
            Check("worst inverse-product err", worst_inverse, bound),
            Check("worst identity-product err", worst_identity, bound),
        ],
    )


SUITES = {
    "projection-oracle": projection_oracle_suite,
    "tangency": tangency_suite,
    "retraction": retraction_suite,
    "exp-identity": exp_identity_suite,
    "gradient-fd": gradient_fd_suite,
    "lie-closure": lie_closure_suite,
}


def run_suites(names=None, tol_scale=1.0):
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append(SUITES[name](tol_scale=tol_scale))
    return results
