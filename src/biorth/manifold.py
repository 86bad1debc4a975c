"""The manifold of biorthogonal matrix pairs (x, y) with x @ y = I.

Provides the point and tangent types, the tangent-space projection (a
Sylvester-type solve diagonalized by one SVD of y, cached on the point), an
exponential-map retraction that is feasible by construction, and the flat
product space used by the penalty baseline. All values are immutable once
constructed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidTangentError, OffManifoldError, NumericalError
from .linalg import as_matrix, fro_norm, mat_exp, square_pair, svd
from .rng import make_rng

# Rounding in n x n products accumulates roughly linearly in n.
FEAS_TOL_PER_DIM = 1e-9
TAN_TOL_PER_DIM = 1e-9


def default_feas_tol(n: int) -> float:
    return FEAS_TOL_PER_DIM * n


def default_tan_tol(n: int) -> float:
    return TAN_TOL_PER_DIM * n


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _same_point(p, q) -> bool:
    return p is q or (np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y))


def _feasibility_error(x, y) -> float:
    """fro_norm(x @ y - I) of two validated square arrays: one n x n product."""
    return fro_norm(x @ y - np.eye(x.shape[0]))


def is_on_manifold(x, y, tol) -> tuple[bool, float]:
    """Feasibility test: returns (within tolerance, fro_norm(x @ y - I))."""
    x, y = square_pair(x, y)
    err = _feasibility_error(x, y)
    return err <= tol, err


class BiorthPoint:
    """A pair (x, y) of square matrices with x @ y = I within default_feas_tol(n).

    Arrays are copied and marked read-only; points are safe to share. The
    feasibility error measured by the constructor is kept, and the SVD of y
    is computed on first use and kept, so every projection at the point
    shares one factorization.
    """

    __slots__ = ("x", "y", "_feas_err", "_y_svd")

    def __init__(self, x, y):
        x, y = square_pair(x, y)
        feas_tol = default_feas_tol(x.shape[0])
        err = _feasibility_error(x, y)
        if not err <= feas_tol:
            raise OffManifoldError(
                f"pair is not biorthogonal: fro_norm(x @ y - I) = {err:.3e} "
                f"exceeds tolerance {feas_tol:.3e}"
            )
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "_feas_err", err)
        object.__setattr__(self, "_y_svd", None)

    def __setattr__(self, name, value):
        raise AttributeError("BiorthPoint is immutable")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def y_svd(self):
        """Read-only SvdResult of y, computed on the first call and cached."""
        if self._y_svd is None:
            f = svd(self.y)
            for a in (f.u, f.s, f.v):
                a.setflags(write=False)
            object.__setattr__(self, "_y_svd", f)
        return self._y_svd

    def feasibility_error(self) -> float:
        """fro_norm(x @ y - I), as measured by the constructor."""
        return self._feas_err

    def __repr__(self):
        return f"BiorthPoint(n={self.n}, feas_err={self.feasibility_error():.2e})"


def identity_point(n: int) -> BiorthPoint:
    return BiorthPoint(np.eye(n), np.eye(n))


def _tangent_residual(base, u, v) -> float:
    """fro_norm(x0 @ v + u @ y0): the tangency check, two n x n products."""
    return fro_norm(base.x @ v + u @ base.y)


class TangentPair:
    """Tangent vector (u, v) at `base`: base.x @ v + u @ base.y = 0.

    The constructor rejects a pair whose residual exceeds default_tan_tol(n).
    The base point is stored so that cross-base arithmetic is rejected
    instead of silently re-projected. Linear combinations of tangents at
    the same base stay tangent and are supported through `+`, `-` and
    scalar `*`.

    `residual` is fro_norm(x0 @ v + u @ y0) as the constructor measured it.
    A result of `+`, `-` or scalar `*` carries the triangle-inequality bound
    r1 + r2 or |s| r instead, and is measured again only when that bound
    exceeds default_tan_tol(n). Arithmetic therefore costs O(n^2) and still
    never yields a pair that the constructor would reject.
    """

    __slots__ = ("u", "v", "base", "residual")

    def __init__(self, u, v, base: BiorthPoint):
        u, v = square_pair(u, v, ("u", "v"))
        if u.shape != base.x.shape:
            raise DimensionError(
                f"tangent shape {u.shape} does not match base point n={base.n}"
            )
        tan_tol = default_tan_tol(base.n)
        resid = _tangent_residual(base, u, v)
        if resid > tan_tol:
            raise InvalidTangentError(
                f"pair is not tangent at the base point: fro_norm(x0 @ v + u @ y0) "
                f"= {resid:.3e} exceeds tolerance {tan_tol:.3e}"
            )
        object.__setattr__(self, "u", _frozen(u))
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "residual", resid)

    @classmethod
    def _combine(cls, u, v, base, bound):
        """Result of tangent arithmetic at `base` whose residual is at most `bound`.

        `u` and `v` must be freshly computed arrays; they are frozen in place.
        """
        if not bound <= default_tan_tol(base.n):
            return cls(u, v, base)
        t = object.__new__(cls)
        for name, a in (("u", u), ("v", v)):
            a = as_matrix(a, name)
            a.setflags(write=False)
            object.__setattr__(t, name, a)
        object.__setattr__(t, "base", base)
        object.__setattr__(t, "residual", bound)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("TangentPair is immutable")

    def norm(self) -> float:
        return float(np.sqrt(float(np.vdot(self.u, self.u)) + float(np.vdot(self.v, self.v))))

    def as_ambient(self) -> "AmbientPair":
        return AmbientPair(self.u, self.v)

    def _require_same_base(self, other):
        if not _same_point(self.base, other.base):
            raise InvalidTangentError("tangent vectors have different base points")

    def __add__(self, other):
        self._require_same_base(other)
        return TangentPair._combine(
            self.u + other.u, self.v + other.v, self.base, self.residual + other.residual
        )

    def __sub__(self, other):
        self._require_same_base(other)
        return TangentPair._combine(
            self.u - other.u, self.v - other.v, self.base, self.residual + other.residual
        )

    def __neg__(self):
        return TangentPair._combine(-self.u, -self.v, self.base, self.residual)

    def __mul__(self, s):
        s = float(s)
        return TangentPair._combine(s * self.u, s * self.v, self.base, abs(s) * self.residual)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TangentPair(n={self.base.n}, norm={self.norm():.2e})"


class AmbientPair:
    """An unconstrained pair (phi, psi) of square matrices of equal size.

    Carrier for Euclidean gradients and for projection inputs; also the
    tangent type of the flat product space. Supports the same linear
    arithmetic as TangentPair.
    """

    __slots__ = ("phi", "psi")

    def __init__(self, phi, psi):
        phi, psi = square_pair(phi, psi, ("phi", "psi"))
        object.__setattr__(self, "phi", _frozen(phi))
        object.__setattr__(self, "psi", _frozen(psi))

    def __setattr__(self, name, value):
        raise AttributeError("AmbientPair is immutable")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def norm(self) -> float:
        phi, psi = self.phi, self.psi
        return float(np.sqrt(float(np.vdot(phi, phi)) + float(np.vdot(psi, psi))))

    def __add__(self, other):
        return AmbientPair(self.phi + other.phi, self.psi + other.psi)

    def __sub__(self, other):
        return AmbientPair(self.phi - other.phi, self.psi - other.psi)

    def __neg__(self):
        return AmbientPair(-self.phi, -self.psi)

    def __mul__(self, s):
        s = float(s)
        return AmbientPair(s * self.phi, s * self.psi)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AmbientPair(n={self.n}, norm={self.norm():.2e})"


class EuclideanPoint:
    """Unconstrained point (x, y) in the flat product space of matrix pairs."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = square_pair(x, y)
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))

    def __setattr__(self, name, value):
        raise AttributeError("EuclideanPoint is immutable")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __repr__(self):
        return f"EuclideanPoint(n={self.n})"


def pair_product(a, b):
    """Group product (a1, a2) * (b1, b2) = (a1 @ b1, b2 @ a2).

    Note the reversed order in the second component. Accepts BiorthPoints
    or plain (x, y) tuples; returns a BiorthPoint when both inputs are
    BiorthPoints (the product of biorthogonal pairs is biorthogonal).
    """
    a1, a2 = (a.x, a.y) if isinstance(a, BiorthPoint) else (as_matrix(a[0]), as_matrix(a[1]))
    b1, b2 = (b.x, b.y) if isinstance(b, BiorthPoint) else (as_matrix(b[0]), as_matrix(b[1]))
    if a1.shape != b1.shape or a2.shape != b2.shape or a1.shape != a2.shape:
        raise DimensionError(
            f"pair_product operands must share one square shape, got "
            f"{a1.shape}, {a2.shape}, {b1.shape}, {b2.shape}"
        )
    first = a1 @ b1
    second = b2 @ a2
    if isinstance(a, BiorthPoint) and isinstance(b, BiorthPoint):
        return BiorthPoint(first, second)
    return first, second


def pair_inverse(p: BiorthPoint) -> BiorthPoint:
    """Group inverse: swap the two legs."""
    return BiorthPoint(p.y, p.x)


def project_tangent(p: BiorthPoint, a: AmbientPair) -> TangentPair:
    """Orthogonal projection of an ambient pair onto the tangent space at `p`.

    Returns the minimizer (u, v) of ``|u - phi|_F^2 + |v - psi|_F^2`` over
    the tangent space. Since x0 = y0^-1, the tangents are exactly the pairs
    (u, -y0 @ u @ y0), so setting the gradient in u to zero gives

        u + A @ u @ B = R,   A = y0^T y0,  B = y0 y0^T,  R = phi - y0^T psi y0^T.

    One SVD ``y0 = U S V^T`` diagonalizes both sides: A = V S^2 V^T and
    B = U S^2 U^T. With sigma = diag(S), phih = V^T phi U and
    psih = U^T psi V, the equation decouples entrywise into

        uh_ij = (phih_ij - sigma_i sigma_j psih_ij) / (1 + sigma_i^2 sigma_j^2),

    whose denominator is at least 1, and v = -y0 u y0 has vh_ij =
    -sigma_i sigma_j uh_ij; u = V uh U^T and v = U vh V^T. Forming v in the
    rotated basis keeps its rounding at the size of v rather than of
    |y0|^2 |u|.

    A stored point has x0 y0 = I only within its feasibility tolerance, so
    the pair is then corrected once for tangency against the stored x0. Its
    residual is rh = V^T (x0 v + u y0) V = (V^T x0 U) vh + uh S, and the
    minimum-norm correction along the normal directions (L y0^T, x0^T L),
    with x0 approximated by y0^-1, is w_ij = -sigma_i rh_ij / (1 + sigma_i^2
    sigma_j^2) added to vh and sigma_i sigma_j w_ij added to uh. It leaves a
    residual second order in the drift x0 y0 - I, and since it lies in the
    kernel of the solve above, projecting the result again reproduces it.
    The SVD is the one cached on `p`, and the result does not depend on the
    sign/ordering conventions of its factors.
    """
    if not isinstance(a, AmbientPair):
        a = AmbientPair(*a)
    if a.phi.shape != p.x.shape:
        raise DimensionError(
            f"ambient pair shape {a.phi.shape} does not match point n={p.n}"
        )
    f = p.y_svd()
    s = f.s
    ss = s[:, None] * s[None, :]
    den = 1.0 + ss * ss
    phih = f.v.T @ a.phi @ f.u
    psih = f.u.T @ a.psi @ f.v
    uh = (phih - ss * psih) / den
    vh = -ss * uh
    rh = (f.v.T @ p.x @ f.u) @ vh + uh * s
    w = -(s[:, None] * rh) / den
    uh = uh + ss * w
    vh = vh + w
    return TangentPair(f.v @ uh @ f.u.T, f.u @ vh @ f.v.T, p)


def retract(p: BiorthPoint, t: TangentPair) -> BiorthPoint:
    """Exponential-map retraction of tangent `t` at `p`.

    Translates the tangent to the identity, exponentiates, and translates
    back: with W = y0 @ u and E = e^W the new point is (x0 @ E, E^-1 @ y0),
    the second leg from one LU solve against E. The product of the two legs
    is x0 @ y0 up to rounding, so feasibility is preserved by construction
    (and re-checked by the point constructor), and the map agrees with
    (x0 + u, y0 + v) to first order. A step so large that E is numerically
    singular raises NumericalError.
    """
    if not _same_point(t.base, p):
        raise InvalidTangentError("tangent is based at a different point")
    e = mat_exp(p.y @ t.u)
    try:
        y = np.linalg.solve(e, p.y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"retraction step too large: e^W is numerically singular ({exc})"
        ) from exc
    return BiorthPoint(p.x @ e, y)


def metric(p, t1, t2) -> float:
    """Ambient Frobenius inner product of two tangents at the same point."""
    if not (isinstance(t1, TangentPair) and isinstance(t2, TangentPair)):
        raise InvalidTangentError("the metric takes two TangentPairs")
    t1._require_same_base(t2)
    if not _same_point(t1.base, p):
        raise InvalidTangentError("tangents are not based at the given point")
    # The constructor validated and froze these arrays.
    return float(np.vdot(t1.u, t2.u)) + float(np.vdot(t1.v, t2.v))


def random_point(seed, n: int, scale: float) -> BiorthPoint:
    """Seeded random point (e^{scale G}, e^{-scale G}) with G standard Gaussian."""
    return _random_point(make_rng(seed), n, scale)


def _random_point(rng, n, scale) -> BiorthPoint:
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    if not scale >= 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    if scale == 0:
        return identity_point(n)
    g = scale * rng.standard_normal((n, n))
    return BiorthPoint(mat_exp(g), mat_exp(-g))


def random_tangent(seed, p: BiorthPoint, scale: float) -> TangentPair:
    """Seeded random tangent at `p`, scaled to norm `scale`.

    Draws Gaussian u and completes it with the unique v = -y0 @ u @ y0
    satisfying the tangent constraint at a feasible base point.
    """
    return _random_tangent(make_rng(seed), p, scale)


def _random_tangent(rng, p, scale) -> TangentPair:
    if not scale >= 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    n = p.n
    if scale == 0:
        z = np.zeros((n, n))
        return TangentPair(z, z, p)
    u = rng.standard_normal((n, n))
    v = -(p.y @ u @ p.y)
    nrm = np.sqrt(np.sum(u * u) + np.sum(v * v))
    s = scale / nrm
    return TangentPair(s * u, s * v, p)


class BiorthogonalManifold:
    """Manifold interface bundle for n x n pairs (x, y) with x @ y = I.

    Feasibility and tangency are checked against default_feas_tol(n) and
    default_tan_tol(n).
    """

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"n must be >= 1, got {n}")
        self.n = n

    @property
    def dim(self) -> int:
        return self.n * self.n

    def check_point(self, p) -> BiorthPoint:
        """Return the BiorthPoint a solver iterates from when started at `p`.

        A BiorthPoint of the right size is feasible by its type and is
        returned as is. Any other pair (x, y) is converted, so an
        infeasible one raises OffManifoldError.
        """
        if p.n != self.n:
            raise DimensionError(f"point has n={p.n}, manifold has n={self.n}")
        if isinstance(p, BiorthPoint):
            return p
        return BiorthPoint(p.x, p.y)

    def identity(self) -> BiorthPoint:
        return identity_point(self.n)

    def project(self, p, a) -> TangentPair:
        return project_tangent(p, a)

    def retract(self, p, t) -> BiorthPoint:
        return retract(p, t)

    def metric(self, p, t1, t2) -> float:
        return metric(p, t1, t2)

    def transport(self, p, t) -> TangentPair:
        """Carry a tangent to the tangent space at `p` by projection."""
        return self.project(p, t.as_ambient())

    def random_point(self, seed, scale=0.5) -> BiorthPoint:
        return random_point(seed, self.n, scale)

    def random_tangent(self, seed, p, scale=1.0) -> TangentPair:
        return random_tangent(seed, p, scale)

    def feasibility_error(self, p) -> float:
        return p.feasibility_error()

    def zero_tangent(self, p) -> TangentPair:
        z = np.zeros((self.n, self.n))
        return TangentPair(z, z, p)


class EuclideanManifold:
    """The flat product space of matrix pairs, used by the penalty baseline.

    Projection is the identity, retraction is addition, and the metric is
    the ambient Frobenius inner product. `feasibility_error` still reports
    fro_norm(x @ y - I) as a diagnostic; nothing enforces it.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"n must be >= 1, got {n}")
        self.n = n

    @property
    def dim(self) -> int:
        return 2 * self.n * self.n

    def check_point(self, p):
        """Return the start point `p` after checking its size."""
        if p.n != self.n:
            raise DimensionError(f"point has n={p.n}, manifold has n={self.n}")
        return p

    def identity(self) -> EuclideanPoint:
        return EuclideanPoint(np.eye(self.n), np.eye(self.n))

    def project(self, p, a) -> AmbientPair:
        if not isinstance(a, AmbientPair):
            a = AmbientPair(*a)
        return a

    def retract(self, p, t) -> EuclideanPoint:
        return EuclideanPoint(p.x + t.phi, p.y + t.psi)

    def metric(self, p, t1, t2) -> float:
        # The AmbientPair constructor validated and froze these arrays.
        return float(np.vdot(t1.phi, t2.phi)) + float(np.vdot(t1.psi, t2.psi))

    def transport(self, p, t) -> AmbientPair:
        return t

    def random_point(self, seed, scale=0.5) -> EuclideanPoint:
        rng = make_rng(seed)
        n = self.n
        return EuclideanPoint(
            np.eye(n) + scale * rng.standard_normal((n, n)),
            np.eye(n) + scale * rng.standard_normal((n, n)),
        )

    def random_tangent(self, seed, p, scale=1.0) -> AmbientPair:
        if not scale >= 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        n = self.n
        if scale == 0:
            return self.zero_tangent(p)
        rng = make_rng(seed)
        t = AmbientPair(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        return (scale / t.norm()) * t

    def feasibility_error(self, p) -> float:
        return _feasibility_error(p.x, p.y)

    def zero_tangent(self, p) -> AmbientPair:
        z = np.zeros((self.n, self.n))
        return AmbientPair(z, z)
