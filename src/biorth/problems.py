"""Objective functions over matrix pairs.

Nearest biorthogonal pair to a given (phi, psi), its quadratic penalty
relaxation on the flat product space, and bidirectional functional-map
recovery with a funnel-shaped off-diagonal regularizer. Each problem
implements ``cost_grad(x, y) -> (cost, AmbientPair)``: one evaluation gives
the cost and the Euclidean gradient together. Each also implements the
optional ``curvature(x, y, u, v) -> float``, the Euclidean Hessian form
<xi, Hess f(x, y) xi> along xi = (u, v), with which the solvers seed each
line search at a Newton step.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix, require_same_shape, require_scale, require_size, require_square, square_pair
from .manifold import AmbientPair, random_point
from .rng import make_rng


class NearestPairProblem:
    """Squared Frobenius distance from (x, y) to a fixed target pair (phi, psi)."""

    def __init__(self, phi, psi):
        self.phi, self.psi = square_pair(phi, psi, ("phi", "psi"))
        self.n = self.phi.shape[0]

    def _residuals(self, x, y):
        if x.shape != self.phi.shape or y.shape != self.psi.shape:
            raise DimensionError(
                f"arguments {x.shape}, {y.shape} do not match problem n={self.n}"
            )
        return x - self.phi, y - self.psi

    def cost_grad(self, x, y):
        rx, ry = self._residuals(x, y)
        cost = float(np.sum(rx * rx) + np.sum(ry * ry))
        return cost, AmbientPair(2.0 * rx, 2.0 * ry)

    def curvature(self, x, y, u, v):
        """<xi, Hess f xi> = 2 (|u|^2 + |v|^2) along xi = (u, v)."""
        return 2.0 * (float(np.vdot(u, u)) + float(np.vdot(v, v)))


class PenaltyProblem(NearestPairProblem):
    """Nearest-pair cost plus alpha * |x @ y - I|_F^2.

    The additive penalty replaces the biorthogonality constraint; minimizers
    are only approximately feasible, with the violation shrinking as alpha
    grows.
    """

    def __init__(self, phi, psi, alpha):
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
        super().__init__(phi, psi)
        self.alpha = float(alpha)

    def cost_grad(self, x, y):
        rx, ry = self._residuals(x, y)
        r = x @ y - np.eye(self.n)
        cost = float(np.sum(rx * rx) + np.sum(ry * ry)) + self.alpha * float(np.sum(r * r))
        gx = 2.0 * rx + 2.0 * self.alpha * (r @ y.T)
        gy = 2.0 * ry + 2.0 * self.alpha * (x.T @ r)
        return cost, AmbientPair(gx, gy)

    def curvature(self, x, y, u, v):
        """<xi, Hess f xi> along xi = (u, v), with r = x @ y - I:

        2 (|u|^2 + |v|^2) + 2 alpha (|u @ y + x @ v|^2 + 2 <r, u @ v>).
        """
        dr = u @ y + x @ v
        uv = u @ v
        # <r, u v> = <x y, u v> - trace(u v), without forming r.
        r_uv = float(np.vdot(x @ y, uv)) - float(np.trace(uv))
        penalty = float(np.vdot(dr, dr)) + 2.0 * r_uv
        return super().curvature(x, y, u, v) + 2.0 * self.alpha * penalty


class FunmapProblem:
    """Bidirectional functional-map fit between coefficient matrices.

    For q x k data matrices a and b, the pair (c1, c2) is scored by

        |a c1 - b|_F^2 + |a - b c2|_F^2
        + lam * (|c1 . w|_F^2 + |c2 . w|_F^2)

    where ``.`` is the entrywise product and w holds non-negative weights
    (growing away from the diagonal, this funnels energy onto it).
    """

    def __init__(self, a, b, w, lam=0.0):
        a = as_matrix(a, "a")
        b = as_matrix(b, "b")
        require_same_shape(a, b, "a and b")
        q, k = a.shape
        if q < k:
            raise ValueError(f"need at least as many rows as columns, got {q} x {k}")
        w = require_square(as_matrix(w, "w"), "w")
        if w.shape[0] != k:
            raise DimensionError(f"w must be {k} x {k}, got {w.shape}")
        if np.any(w < 0):
            raise ValueError("w entries must be >= 0")
        self.a = a
        self.b = b
        self.w = w
        self._ww = w * w
        self.lam = require_scale(lam, "lam")
        self.q = q
        self.k = k

    def cost_grad(self, c1, c2):
        if c1.shape != (self.k, self.k) or c2.shape != (self.k, self.k):
            raise DimensionError(
                f"maps must be {self.k} x {self.k}, got {c1.shape}, {c2.shape}"
            )
        r1 = self.a @ c1 - self.b
        r2 = self.a - self.b @ c2
        cost = float(np.sum(r1 * r1) + np.sum(r2 * r2))
        g1 = 2.0 * (self.a.T @ r1)
        g2 = -2.0 * (self.b.T @ r2)
        if self.lam > 0:
            cost += self.lam * float(np.sum(c1 * c1 * self._ww) + np.sum(c2 * c2 * self._ww))
            g1 = g1 + 2.0 * self.lam * c1 * self._ww
            g2 = g2 + 2.0 * self.lam * c2 * self._ww
        return cost, AmbientPair(g1, g2)

    def curvature(self, c1, c2, u, v):
        """<xi, Hess f xi> along xi = (u, v):

        2 |a u|^2 + 2 |b v|^2 + 2 lam (|u . w|^2 + |v . w|^2).
        """
        au = self.a @ u
        bv = self.b @ v
        value = 2.0 * (float(np.vdot(au, au)) + float(np.vdot(bv, bv)))
        if self.lam > 0:
            value += 2.0 * self.lam * float(np.sum(u * u * self._ww) + np.sum(v * v * self._ww))
        return value


def funnel_weights(k: int) -> np.ndarray:
    """Default funnel weights w_ij = |i - j| / k, zero on the diagonal.

    DimensionError unless `k` is an integer >= 1.
    """
    k = require_size(k, "k")
    idx = np.arange(k)
    return np.abs(idx[:, None] - idx[None, :]) / float(k)


def synth_funmap(seed, q, k, noise=0.0, lam=0.0):
    """Synthetic functional-map instance with known ground truth.

    Draws truth = (c*, c*^-1) = (e^{0.3 G}, e^{-0.3 G}) by random_point, then
    Gaussian data a, and b = a @ c* plus optional Gaussian noise, all from one
    stream. Returns (problem, truth). Deterministic per seed. DimensionError
    unless `q` and `k` are integers >= 1, ValueError unless 0 <= noise < inf,
    and FunmapProblem's ValueError if q < k.
    """
    k = require_size(k, "k")
    q = require_size(q, "q")
    noise = require_scale(noise, "noise")
    rng = make_rng(seed)
    truth = random_point(rng, k, 0.3)
    a = rng.standard_normal((q, k))
    b = a @ truth.x
    if noise > 0:
        b = b + noise * rng.standard_normal((q, k))
    return FunmapProblem(a, b, funnel_weights(k), lam=lam), truth


def random_nearest_pair(seed, n, scale=5.0):
    """Seeded Gaussian targets for the nearest-pair benchmark.

    Entries are drawn as (scale / sqrt(n)) * N(0, 1), so the spectral norm
    of the targets is about 2 * scale for every n and problem difficulty
    does not blow up with dimension. DimensionError unless `n` is an integer
    >= 1, and ValueError unless 0 <= scale < inf.
    """
    n = require_size(n)
    scale = require_scale(scale, "scale")
    rng = make_rng(seed)
    sigma = scale / np.sqrt(n)
    phi = sigma * rng.standard_normal((n, n))
    psi = sigma * rng.standard_normal((n, n))
    return NearestPairProblem(phi, psi)
