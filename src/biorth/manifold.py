"""The manifold of biorthogonal matrix pairs (x, y) with x @ y = I.

Provides the point and tangent types, the tangent-space projection (a
Sylvester-type solve diagonalized by one SVD of y, cached on the point), an
exponential-map retraction that is feasible by construction, the velocity
of its curve along a search ray and that curve's acceleration at the start,
and the flat product space used by the penalty baseline. BO(n) is embedded
in the ambient space of matrix pairs: a point of BO(n) is a flat point
with a feasibility certificate, a tangent is an ambient pair with a base
point, the metric is the ambient Frobenius product `inner`, and a tangent
is carried to another point by projecting it there. The manifold classes
are only the solvers' interface; points and tangents are drawn by the
module functions `random_point` and `random_tangent`. All values are
immutable. Public constructors check and copy caller data; values the
package computes itself are finite and of the right shape by construction,
so the private builder `_Value._build` freezes their fresh arrays in place
with no scan or copy.

Every value operand passes one rule, `_require_sized` (or its kind check
`_require_kind` where no size is fixed): a value of the wrong kind raises
TypeError("{what} must be of type {Kind}, got {Type}"), one of the wrong
size DimensionError("{what} has n={m}, expected n={n}"), on BO(n) as on
the flat space. The point of every ray operation that reads it (retract,
ray_velocity and ray_acceleration on BO(n), retract on the flat space)
passes the kind check, and on the flat space the size check too.
InvalidTangentError is left for a pair of the right kind and size that is
not a tangent at the point: an ambient pair, or a tangent based at another
point. "Based at p" means the tangent's `base` is `p` itself, so a tangent
at a rebuilt point, even one with equal arrays, must be carried over with
project_tangent.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidTangentError, OffManifoldError, NumericalError
from .linalg import fro_norm, mat_exp, require_scale, require_size, square_pair, svd
from .rng import make_rng

__all__ = [
    "AmbientPair",
    "BiorthPoint",
    "BiorthogonalManifold",
    "EuclideanManifold",
    "EuclideanPoint",
    "TangentPair",
    "default_feas_tol",
    "default_tan_tol",
    "identity_point",
    "pair_inverse",
    "pair_product",
    "project_tangent",
    "random_point",
    "random_tangent",
    "ray_acceleration",
    "ray_velocity",
    "retract",
]

# Rounding in n x n products accumulates roughly linearly in n.
FEAS_TOL_PER_DIM = 1e-9
TAN_TOL_PER_DIM = 1e-9


def default_feas_tol(n: int) -> float:
    return FEAS_TOL_PER_DIM * n


def default_tan_tol(n: int) -> float:
    return TAN_TOL_PER_DIM * n


def _feasibility_error(x, y) -> float:
    """fro_norm(x @ y - I), one n x n product; inf or NaN, not a warning, on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = x @ y
        r.reshape(-1)[::x.shape[0] + 1] -= 1.0
        return fro_norm(r)


def _require_feasible(x, y, what) -> float:
    """fro_norm(x @ y - I); OffManifoldError naming `what` unless within default_feas_tol(n)."""
    err = _feasibility_error(x, y)
    feas_tol = default_feas_tol(x.shape[0])
    if not err <= feas_tol:
        raise OffManifoldError(
            f"{what} is not biorthogonal: fro_norm(x @ y - I) = {err:.3e} "
            f"exceeds tolerance {feas_tol:.3e}"
        )
    return err


def _scalar(s) -> float:
    """`s` as a float; NumericalError if it is not finite."""
    s = float(s)
    if not np.isfinite(s):
        raise NumericalError(f"scalar factor is not finite: {s!r}")
    return s


def _require_kind(value, kind, what):
    """TypeError unless `value` is a `kind`."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be of type {kind.__name__}, got {type(value).__name__}")


def _require_sized(value, kind, what, n):
    """TypeError unless `value` is a `kind`, DimensionError unless it has size `n`."""
    _require_kind(value, kind, what)
    if value.n != n:
        raise DimensionError(f"{what} has n={value.n}, expected n={n}")


class _Value:
    """Immutable base of the value types: fields are set once, arrays read-only."""

    __slots__ = ()
    _fields = ()  # the slots of a class and of its bases, bases first

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _freeze(self, *fields):
        """Set the fields in `_fields` order, marking arrays read-only in place.

        Slots after the given fields, the lazily filled caches, start as None.
        """
        for name, value in zip(self._fields, fields):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        for name in self._fields[len(fields):]:
            object.__setattr__(self, name, None)

    @classmethod
    def _build(cls, *fields):
        """A value from fresh fields the package computed: frozen, not copied or checked."""
        obj = object.__new__(cls)
        obj._freeze(*fields)
        return obj


class EuclideanPoint(_Value):
    """A point (x, y) of the flat product space of n x n matrix pairs.

    Arrays are copied and marked read-only; points are safe to share.
    Nothing constrains x @ y, so feasibility_error measures it on every
    call; it is a diagnostic here. Every point of BO(n) is also a point of
    this space: BiorthPoint is the subclass that certifies x @ y = I.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = square_pair(x, y)
        self._freeze(np.array(x), np.array(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def feasibility_error(self) -> float:
        """fro_norm(x @ y - I), measured on every call."""
        return _feasibility_error(self.x, self.y)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, feas_err={self.feasibility_error():.2e})"


class BiorthPoint(EuclideanPoint):
    """A flat point (x, y) certified to have x @ y = I within default_feas_tol(n).

    The constructor copies, checks feasibility and keeps the error it
    measured, so feasibility_error costs nothing; it does not call the
    flat point's constructor. The projector of project_tangent, built from
    the one SVD of y, is computed on first use and kept in one slot, so
    every projection at the point shares it.
    """

    __slots__ = ("_feas_err", "_projector")

    def __init__(self, x, y):
        x, y = square_pair(x, y)
        err = _require_feasible(x, y, "pair")
        self._freeze(np.array(x), np.array(y), err)

    def projector(self):
        """The projector of project_tangent at this point, built on the first call and cached.

        The read-only tuple (U, sigma, V, V^T x U, sigma sigma^T, 1 + (sigma
        sigma^T)^2): the factors of y = U S V^T, the rotated base and the two
        n x n grids. svd(y) gets the lower bound |x|_F |y|_F / (n (1 +
        feas_err)) on kappa(y), from x = (I + D) y^-1 with |D|_2 <= feas_err.
        On a base so badly scaled that these overflow, the bound is infinite
        and entries are infinite or NaN, without a warning.
        """
        if self._projector is None:
            x, y = self.x, self.y
            with np.errstate(over="ignore", invalid="ignore"):
                kappa_floor = fro_norm(x) * fro_norm(y) / (self.n * (1.0 + self._feas_err))
                f = svd(y, kappa_floor=kappa_floor)
                xh = f.v.T @ x @ f.u
                ss = f.s[:, None] * f.s[None, :]
                den = 1.0 + ss * ss
            factors = (f.u, f.s, f.v, xh, ss, den)
            for a in factors:
                a.setflags(write=False)
            object.__setattr__(self, "_projector", factors)
        return self._projector

    def feasibility_error(self) -> float:
        """fro_norm(x @ y - I), as measured by the constructor."""
        return self._feas_err


def identity_point(n: int) -> BiorthPoint:
    """The pair (I, I), whose feasibility error is exactly zero.

    Its projector is built on first use like any other point's. svd(I) takes
    the Gram route, which factors I exactly as (J, ones, J), J the exchange
    matrix: eigh(I) gives I, and its columns are reversed into
    non-increasing order.
    """
    n = require_size(n)
    eye = np.eye(n)
    return BiorthPoint._build(eye, eye, 0.0)


def _tangent_residual(base, u, v) -> float:
    """fro_norm(x0 @ v + u @ y0), two n x n products; inf or NaN, not a warning, on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fro_norm(base.x @ v + u @ base.y)


def _require_based_at(p, t):
    """Check that `t` is a TangentPair based at the point `p`: its `base` is `p` itself.

    TypeError unless `p` is a BiorthPoint and `t` an AmbientPair,
    DimensionError unless `t` has size p.n, and InvalidTangentError
    otherwise. A tangent at a rebuilt copy of `p`, even one with equal
    arrays, is not at `p`; project_tangent carries it over.
    """
    if isinstance(t, TangentPair) and t.base is p:
        return
    _require_kind(p, BiorthPoint, "point")
    _require_sized(t, AmbientPair, "tangent", p.n)
    raise InvalidTangentError("expected a TangentPair based at the given point")


class AmbientPair(_Value):
    """An unconstrained pair (phi, psi) of square matrices of equal size.

    Carrier for Euclidean gradients and for projection inputs, the tangent
    type of the flat product space, and the base of TangentPair. The
    constructor, through which every problem's `cost_grad` returns its
    gradient, checks finiteness. The one copy of the linear arithmetic
    builds its unchecked results through `_like`, so a tangent's `+`, `-`
    and scalar `*` give a tangent at its base; `+` and `-` first pass their
    operand to `_check_operand`, and scalar `*` checks only that the scalar
    is finite. `inner` is the metric of both manifolds; it pairs tangents at
    any bases, so it checks only its operand's kind and size.
    """

    __slots__ = ("phi", "psi")

    def __init__(self, phi, psi):
        phi, psi = square_pair(phi, psi, ("phi", "psi"))
        self._freeze(np.array(phi), np.array(psi))

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def _like(self, phi, psi):
        """The pair (phi, psi), of the same kind as `self`."""
        return AmbientPair._build(phi, psi)

    def _check_operand(self, other):
        """TypeError unless `other` is a pair, DimensionError unless it has this size."""
        _require_sized(other, AmbientPair, "operand", self.n)

    def inner(self, other) -> float:
        """Ambient Frobenius inner product with another pair, tangent or not, based anywhere."""
        _require_sized(other, AmbientPair, "operand", self.n)
        return float(np.vdot(self.phi, other.phi)) + float(np.vdot(self.psi, other.psi))

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self)))

    def __add__(self, other):
        self._check_operand(other)
        return self._like(self.phi + other.phi, self.psi + other.psi)

    def __sub__(self, other):
        self._check_operand(other)
        return self._like(self.phi - other.phi, self.psi - other.psi)

    def __neg__(self):
        return self._like(-self.phi, -self.psi)

    def __mul__(self, s):
        s = _scalar(s)
        return self._like(s * self.phi, s * self.psi)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, norm={self.norm():.2e})"


class TangentPair(AmbientPair):
    """Tangent vector (u, v) at `base`: an ambient pair with base.x @ v + u @ base.y = 0.

    The legs are the inherited `phi` and `psi`, read as `u` and `v`. The
    constructor is where caller data enters, so it checks finiteness,
    raises TypeError unless `base` is a BiorthPoint and DimensionError
    unless it has the size of `u` and `v`, and rejects a
    residual fro_norm(x0 @ v + u @ y0) above default_tan_tol(n).
    Tangents built inside the package go through the unchecked builder:
    project_tangent solves for a tangent pair, and `+`, `-` and scalar `*`
    of tangents at one base stay in its tangent space. The base point is
    stored so that `+` and `-` with an operand based elsewhere are rejected
    instead of silently re-projected. The generator W = base.y @ u is
    computed on first use and kept, so the velocity, the acceleration and
    every trial retraction of one search ray share one product.
    """

    __slots__ = ("base", "_w")

    def __init__(self, u, v, base: BiorthPoint):
        u, v = square_pair(u, v, ("u", "v"))
        _require_sized(base, BiorthPoint, "base", u.shape[0])
        tan_tol = default_tan_tol(base.n)
        resid = _tangent_residual(base, u, v)
        if not resid <= tan_tol:
            raise InvalidTangentError(
                f"pair is not tangent at the base point: fro_norm(x0 @ v + u @ y0) "
                f"= {resid:.3e} exceeds tolerance {tan_tol:.3e}"
            )
        self._freeze(np.array(u), np.array(v), base)

    @property
    def u(self) -> np.ndarray:
        return self.phi

    @property
    def v(self) -> np.ndarray:
        return self.psi

    def _like(self, phi, psi):
        """The tangent (phi, psi) at this base."""
        return TangentPair._build(phi, psi, self.base)

    def _check_operand(self, other):
        """Kind, size and base: `other` must be a TangentPair at this base."""
        _require_based_at(self.base, other)

    def generator(self) -> np.ndarray:
        """Read-only W = base.y @ u, the tangent translated to the identity; cached."""
        if self._w is None:
            w = self.base.y @ self.u
            w.setflags(write=False)
            object.__setattr__(self, "_w", w)
        return self._w


def pair_product(a: BiorthPoint, b: BiorthPoint) -> BiorthPoint:
    """Group product (a1, a2) * (b1, b2) = (a1 @ b1, b2 @ a2).

    Note the reversed order in the second component. The product of two
    biorthogonal pairs is biorthogonal, so the result is a BiorthPoint.
    TypeError unless both are BiorthPoints, DimensionError unless of one size.
    """
    _require_kind(a, BiorthPoint, "point")
    _require_sized(b, BiorthPoint, "point", a.n)
    return BiorthPoint(a.x @ b.x, b.y @ a.y)


def pair_inverse(p: BiorthPoint) -> BiorthPoint:
    """Group inverse: swap the two legs. TypeError unless `p` is a BiorthPoint."""
    _require_kind(p, BiorthPoint, "point")
    return BiorthPoint(p.y, p.x)


def project_tangent(p: BiorthPoint, a: AmbientPair) -> TangentPair:
    """Orthogonal projection of an ambient pair onto the tangent space at `p`.

    `a` may be a TangentPair based anywhere, which carries it to `p`. Returns the minimizer (u, v) of ``|u - phi|_F^2 + |v - psi|_F^2`` over
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
    The SVD, V^T x0 U, sigma_i sigma_j and the denominators are the one
    projector cached on `p` (BiorthPoint.projector), and the result does not
    depend on the sign/ordering conventions of its factors. The result is
    tangent by this construction, so its residual is not measured again; the
    tangency and projection-oracle suites of `biorth check` measure it
    independently. On a base so badly scaled that this arithmetic overflows,
    entries come out infinite or NaN without a warning; the solvers catch
    them through g.inner(g), and the `project` command scans the result.
    TypeError unless `p` is a BiorthPoint and `a` an AmbientPair,
    DimensionError unless `a` has size p.n.
    """
    _require_kind(p, BiorthPoint, "point")
    _require_sized(a, AmbientPair, "ambient pair", p.n)
    fu, s, fv, xh, ss, den = p.projector()
    with np.errstate(over="ignore", invalid="ignore"):
        uh = (fv.T @ a.phi @ fu - ss * (fu.T @ a.psi @ fv)) / den
        vh = -(ss * uh)
        w = -(s[:, None] * (xh @ vh + uh * s)) / den
        return TangentPair._build(fv @ (uh + ss * w) @ fu.T, fu @ (vh + w) @ fv.T, p)


def retract(p: BiorthPoint, t: TangentPair, s=1.0) -> BiorthPoint:
    """Exponential-map retraction of the tangent s * t at `p`.

    Translates the tangent to the identity, exponentiates, and translates
    back: with W = y0 @ u, the tangent's cached generator, and (E, F) =
    mat_exp(s * W), E = e^(sW) and F its inverse to working accuracy, the
    new point is (x0 @ E, F @ y0), two products and no solve. So the trials
    of one line search share W and build no scaled tangent. The product of
    the two legs is x0 @ y0 up to rounding, so feasibility is preserved by
    construction, and the map agrees with (x0 + s u, y0 + s v) to first
    order. A zero step or tangent gives E = F = I exactly, so it returns the
    point itself. The feasibility error is still measured, once, and kept on
    the new point: a step whose legs lose biorthogonality to rounding or
    overflow (a NaN or infinite error) raises OffManifoldError, a step so
    large that e^(sW) or e^(-sW) overflows raises NumericalError, and so
    does a step `s` that is not finite.
    """
    _require_based_at(p, t)
    s = _scalar(s)
    e, f = mat_exp(s * t.generator())
    # Products that overflow give an inf or NaN error, reported by the raise.
    with np.errstate(over="ignore", invalid="ignore"):
        x = p.x @ e
        y = f @ p.y
    err = _require_feasible(x, y, "retracted pair")
    return BiorthPoint._build(x, y, err)


def ray_velocity(p: BiorthPoint, t: TangentPair):
    """Velocity of the retraction curve c(s) = retract(p, t, s), as a function of c(s).

    With W = y0 @ u, c(s) = (x0 e^{sW}, e^{-sW} y0), so c'(s) = (x(s) @ W,
    -W @ y(s)). W is the tangent's cached generator; the returned function
    maps a point q = c(s) to the AmbientPair (q.x @ W, -(W @ q.y)), two n x n
    products, ready for its ambient product with a Euclidean gradient. It is
    tangent at q by construction, x(s) (-W y(s)) + (x(s) W) y(s) = 0 up to
    rounding.
    """
    _require_based_at(p, t)
    w = t.generator()

    def velocity(q):
        return AmbientPair._build(q.x @ w, -(w @ q.y))

    return velocity


def ray_acceleration(p: BiorthPoint, t: TangentPair) -> AmbientPair:
    """Acceleration c''(0) = (x0 @ W^2, W^2 @ y0) of c(s) = retract(p, t, s).

    W = y0 @ u is the tangent's cached generator, shared with ray_velocity.
    With x0 = y0^-1, x0 W = u and W y0 = y0 u y0 = -v on a tangent, so it
    is formed as (u @ W, -(W @ v)): two n x n products, which differ from
    the three of (x0 W^2, W^2 y0) only by terms in the drift x0 y0 - I. Its
    ambient product with the Euclidean gradient at p is the term of the
    ray's second derivative that the curve's bending adds to the
    objective's Hessian form along t.
    """
    _require_based_at(p, t)
    w = t.generator()
    return AmbientPair._build(t.u @ w, -(w @ t.v))


def random_point(seed, n: int, scale: float) -> BiorthPoint:
    """Random point (e^{scale G}, e^{-scale G}); scale 0 gives the identity pair.

    G is Gaussian, drawn by make_rng(seed) at every scale. Both legs come
    from one mat_exp call, the second the inverse of the first to working
    accuracy. ValueError unless 0 <= scale < inf.
    """
    n = require_size(n)
    g = require_scale(scale, "scale") * make_rng(seed).standard_normal((n, n))
    return BiorthPoint(*mat_exp(g))


def random_tangent(seed, p: BiorthPoint, scale: float) -> TangentPair:
    """Random tangent at `p`, scaled to norm `scale`.

    Draws Gaussian u by make_rng(seed) and completes it with the unique
    v = -y0 @ u @ y0 satisfying the tangent constraint at a feasible base point.
    u is drawn at every scale; scale 0 gives a tangent equal to zero.
    TypeError unless `p` is a BiorthPoint, and ValueError unless 0 <= scale < inf.
    """
    _require_kind(p, BiorthPoint, "point")
    scale = require_scale(scale, "scale")
    n = p.n
    u = make_rng(seed).standard_normal((n, n))
    v = -(p.y @ u @ p.y)
    nrm = np.sqrt(np.sum(u * u) + np.sum(v * v))
    s = scale / nrm
    return TangentPair(s * u, s * v, p)


class BiorthogonalManifold:
    """The solvers' interface to BO(n), the n x n pairs (x, y) with x @ y = I.

    Its seven members are `n`, `identity` and the five the solvers read:
    `check_point`, `project`, `retract`, `ray_velocity` and
    `ray_acceleration`, each forwarding to the module function of that
    work. Points and tangents are drawn by the module functions
    `random_point` and `random_tangent`. Feasibility and tangency are
    checked against default_feas_tol(n) and default_tan_tol(n).
    """

    def __init__(self, n: int):
        self.n = require_size(n)

    def check_point(self, p) -> BiorthPoint:
        """Return the BiorthPoint a solver iterates from when started at `p`.

        A BiorthPoint of the right size is feasible by its type and is
        returned as is. Any other flat point (x, y) of that size, such as an
        EuclideanPoint, is certified by building a BiorthPoint from its
        arrays, so an infeasible one raises OffManifoldError. Anything but a
        flat point raises TypeError.
        """
        _require_sized(p, EuclideanPoint, "point", self.n)
        if isinstance(p, BiorthPoint):
            return p
        return BiorthPoint(p.x, p.y)

    def identity(self) -> BiorthPoint:
        return identity_point(self.n)

    def project(self, p, a) -> TangentPair:
        return project_tangent(p, a)

    def retract(self, p, t, s=1.0) -> BiorthPoint:
        return retract(p, t, s)

    def ray_velocity(self, p, t):
        return ray_velocity(p, t)

    def ray_acceleration(self, p, t) -> AmbientPair:
        return ray_acceleration(p, t)


class EuclideanManifold:
    """The solvers' interface to the flat product space of n x n matrix pairs.

    Used by the penalty baseline, with the same seven members as
    BiorthogonalManifold. Points are EuclideanPoints, or BiorthPoints, which
    are flat points too. Projection is the identity, so it also carries a
    tangent from one point to another and leaves a Gaussian ambient pair a
    random tangent, and retraction is addition. Tangents are AmbientPairs,
    with the ambient Frobenius inner product AmbientPair.inner as the metric.
    """

    def __init__(self, n: int):
        self.n = require_size(n)

    def check_point(self, p):
        """Return the start point `p` after checking its type and size."""
        _require_sized(p, EuclideanPoint, "point", self.n)
        return p

    def identity(self) -> EuclideanPoint:
        return EuclideanPoint(np.eye(self.n), np.eye(self.n))

    def project(self, p, a) -> AmbientPair:
        """`a` itself; TypeError unless it is an AmbientPair, DimensionError unless of size n."""
        _require_sized(a, AmbientPair, "ambient pair", self.n)
        return a

    def retract(self, p, t, s=1.0) -> EuclideanPoint:
        """The point p + s * t; NumericalError if `s` is not finite.

        TypeError unless `p` is an EuclideanPoint and `t` an AmbientPair,
        DimensionError unless both have size n. A flat tangent has no base:
        it is a tangent at every point, so there is no base to check.
        """
        _require_sized(p, EuclideanPoint, "point", self.n)
        _require_sized(t, AmbientPair, "tangent", self.n)
        s = _scalar(s)
        return EuclideanPoint._build(p.x + s * t.phi, p.y + s * t.psi)

    def ray_velocity(self, p, t):
        """Velocity of s -> retract(p, t, s) at any of its points: `t` itself."""
        return lambda q: t

    def ray_acceleration(self, p, t):
        """None: the curve s -> retract(p, t, s) is a straight line, c'' = 0."""
        return None

