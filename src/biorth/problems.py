"""Objective functions over matrix pairs.

Nearest biorthogonal pair to a given (phi, psi), its quadratic penalty
relaxation on the flat product space, and bidirectional functional-map
recovery with a funnel-shaped off-diagonal regularizer. Each problem
implements ``cost_grad(x, y) -> (cost, AmbientPair)``, which is the whole
protocol the solvers call: one evaluation gives the cost and the Euclidean
gradient together. ``cost`` and ``euclidean_gradient`` are conveniences that
evaluate ``cost_grad`` and keep one half.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix, mat_exp, require_same_shape, require_square, square_pair
from .manifold import AmbientPair, BiorthPoint
from .rng import make_rng


class _MatrixPairProblem:
    """Shared cost/gradient plumbing; subclasses implement cost_grad."""

    def cost(self, x, y):
        return self.cost_grad(x, y)[0]

    def euclidean_gradient(self, x, y):
        return self.cost_grad(x, y)[1]


class NearestPairProblem(_MatrixPairProblem):
    """Squared Frobenius distance from (x, y) to a fixed target pair (phi, psi)."""

    def __init__(self, phi, psi):
        self.phi, self.psi = square_pair(phi, psi, ("phi", "psi"))
        self.n = self.phi.shape[0]

    def _check(self, x, y):
        if x.shape != self.phi.shape or y.shape != self.psi.shape:
            raise DimensionError(
                f"arguments {x.shape}, {y.shape} do not match problem n={self.n}"
            )

    def cost_grad(self, x, y):
        self._check(x, y)
        rx = x - self.phi
        ry = y - self.psi
        cost = float(np.sum(rx * rx) + np.sum(ry * ry))
        return cost, AmbientPair(2.0 * rx, 2.0 * ry)


class PenaltyProblem(_MatrixPairProblem):
    """Nearest-pair cost plus alpha * |x @ y - I|_F^2.

    The additive penalty replaces the biorthogonality constraint; minimizers
    are only approximately feasible, with the violation shrinking as alpha
    grows.
    """

    def __init__(self, phi, psi, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        base = NearestPairProblem(phi, psi)
        self.phi = base.phi
        self.psi = base.psi
        self.n = base.n
        self._base = base

    def cost_grad(self, x, y):
        cost0, grad0 = self._base.cost_grad(x, y)
        r = x @ y - np.eye(self.n)
        cost = cost0 + self.alpha * float(np.sum(r * r))
        gx = grad0.phi + 2.0 * self.alpha * (r @ y.T)
        gy = grad0.psi + 2.0 * self.alpha * (x.T @ r)
        return cost, AmbientPair(gx, gy)


class FunmapProblem(_MatrixPairProblem):
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
        if not lam >= 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        self.a = a
        self.b = b
        self.w = w
        self.lam = float(lam)
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
            ww = self.w * self.w
            cost += self.lam * float(np.sum(c1 * c1 * ww) + np.sum(c2 * c2 * ww))
            g1 = g1 + 2.0 * self.lam * c1 * ww
            g2 = g2 + 2.0 * self.lam * c2 * ww
        return cost, AmbientPair(g1, g2)


def funnel_weights(k: int) -> np.ndarray:
    """Default funnel weights w_ij = |i - j| / k, zero on the diagonal."""
    idx = np.arange(k)
    return np.abs(idx[:, None] - idx[None, :]) / float(k)


def synth_funmap(seed, q, k, noise=0.0, lam=0.0):
    """Synthetic functional-map instance with known ground truth.

    Draws a well-conditioned map c* = e^{0.3 G}, Gaussian data a, and
    b = a @ c* plus optional Gaussian noise. Returns (problem, truth) where
    truth is the biorthogonal pair (c*, c*^-1). Deterministic per seed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if q < k:
        raise ValueError(f"need q >= k, got q={q}, k={k}")
    if not noise >= 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = make_rng(seed)
    g = 0.3 * rng.standard_normal((k, k))
    c_star = mat_exp(g)
    c_star_inv = mat_exp(-g)
    a = rng.standard_normal((q, k))
    b = a @ c_star
    if noise > 0:
        b = b + noise * rng.standard_normal((q, k))
    problem = FunmapProblem(a, b, funnel_weights(k), lam=lam)
    truth = BiorthPoint(c_star, c_star_inv)
    return problem, truth


def random_nearest_pair(seed, n, scale=5.0):
    """Seeded Gaussian targets for the nearest-pair benchmark.

    Entries are drawn as (scale / sqrt(n)) * N(0, 1), so the spectral norm
    of the targets is about 2 * scale for every n and problem difficulty
    does not blow up with dimension.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    sigma = scale / np.sqrt(n)
    phi = sigma * rng.standard_normal((n, n))
    psi = sigma * rng.standard_normal((n, n))
    return NearestPairProblem(phi, psi)
