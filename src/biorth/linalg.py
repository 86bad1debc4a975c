"""Dense matrix kernels: validation, SVD, matrix exponential, Frobenius tools.

Everything operates on float64 numpy arrays. Inputs are validated at the
boundary (shape, finiteness). The SVD of a matrix with kappa(m) < 1e4
(GRAM_RCOND) comes from numpy's symmetric eigh of m^T m and one
Newton-Schulz step, to a backward error of about eps * kappa(m) * |m|;
singular, worse conditioned, overflowing and underflowing input gets
LAPACK's SVD, through numpy, with its backward error of about eps * |m|.
The matrix exponential returns the pair (e^m, e^-m) from matrix products
alone, with no factorization or solve. No kernel keeps state between calls.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "SvdResult",
    "as_matrix",
    "fro_norm",
    "mat_exp",
    "svd",
]


def as_matrix(a, name="matrix") -> np.ndarray:
    """Validate `a` as a 2-d float64 array with positive dims and finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"{name} contains non-finite entries")
    return m


def require_square(m: np.ndarray, name="matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    return m


def require_size(n, name="n") -> int:
    """`n` as an int; DimensionError unless it is an integer >= 1.

    Integers of any type pass through operator.index, so numpy integers
    become Python ints; a float or a string does not, even one with an
    integral value.
    """
    try:
        size = operator.index(n)
    except TypeError:
        size = 0
    if size < 1:
        raise DimensionError(f"{name} must be an integer >= 1, got {n!r}")
    return size


def require_scale(value, name) -> float:
    """`value` as a float; ValueError unless 0 <= value < inf, so NaN fails too."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    return float(value)


def require_same_shape(a: np.ndarray, b: np.ndarray, what="operands"):
    if a.shape != b.shape:
        raise DimensionError(f"{what} have mismatched shapes {a.shape} vs {b.shape}")


def square_pair(a, b, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    """Validate two matrices as one square, finite shape; returns both as arrays."""
    a = require_square(as_matrix(a, names[0]), names[0])
    b = as_matrix(b, names[1])
    require_same_shape(a, b)
    return a, b


@dataclass(frozen=True)
class SvdResult:
    """Factorization m = u @ diag(s) @ v.T with orthogonal u, v.

    Singular values `s` are non-negative and sorted non-increasing. Sign and
    ordering conventions beyond that are not part of the contract; callers
    must not rely on them.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


# The Gram route of svd serves m only while kappa(m) < 1e4. Forming m^T m
# squares kappa, so sigma_min comes out with a relative error of about
# eps kappa^2, and one Newton-Schulz step has to pull that loss out of u.
# Measured on random n = 100 matrices with log-spaced singular values: at
# kappa = 1e4 the reconstruction error is 0.36 kappa eps |m|_F, sigma_min is
# within 1e-9 relative and |U^T U - I|_F is 4.6e-15; at kappa = 1e5 the
# last two are 1.3e-7 and 1.1e-13, and at 1e6 one step leaves 6.7e-10.
# model-n100 iterates stay below kappa 100.
GRAM_RCOND = 1e-8
_TINY = np.finfo(np.float64).tiny


def svd(m, kappa_floor=0.0) -> SvdResult:
    """Full SVD of a square matrix, from eigh of m^T m where m is well conditioned.

    Gram route: (d, v) = eigh(m^T m), s = sqrt(d) and v in non-increasing
    order, u = m v / s, then one Newton-Schulz step u <- u - u (u^T u - I) / 2
    (Golub & Van Loan, Matrix Computations, Section 8.6; Higham, Functions
    of Matrices, 2008, Section 8.3). It serves every finite Gram whose
    eigenvalues satisfy d_min > GRAM_RCOND * d_max, that is kappa(m) < 1e4,
    with d_min a normal float, so no underflow has blurred it. There the
    backward error is about eps * kappa(m) * |m|, and u and v are
    orthogonal to working accuracy. Every other matrix, singular, worse
    conditioned or with a Gram that overflows or underflows, gets LAPACK's
    factors through np.linalg.svd, bit for bit, with its backward error of
    about eps * |m|. So does every m whose `kappa_floor`, a lower bound on
    kappa(m) that the caller knows, is at least 2 / sqrt(GRAM_RCOND) = 2e4,
    which the Gram test would refuse: the route is chosen before any eigh.

    Raises DimensionError for non-square input and NumericalError if the
    underlying eigen or singular value iteration fails to converge.
    """
    m = require_square(as_matrix(m))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = m.T @ m if kappa_floor < 2.0 / math.sqrt(GRAM_RCOND) else None
    try:
        if g is not None and np.isfinite(g).all():
            d, v = np.linalg.eigh(g)
            if d[0] > max(GRAM_RCOND * d[-1], _TINY):
                s = np.sqrt(d[::-1])
                v = np.ascontiguousarray(v[:, ::-1])
                u = m @ v / s
                u -= 0.5 * (u @ (u.T @ u - np.eye(m.shape[0])))
                return SvdResult(u=u, s=s, v=v)
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for {m.shape} input: {exc}") from exc
    return SvdResult(u=u, s=s, v=vh.T)


def _norm1(a) -> float:
    """The 1-norm of a matrix: its largest column sum of absolute values."""
    return float(np.abs(a).sum(axis=0).max())


def _taylor_chunks(degree, tau):
    """Paterson-Stockmeyer coefficients of the even and odd Taylor parts of e^A.

    With B = A^2 the degree-`degree` Taylor polynomial of e^A is Ev + Od, with
    Ev = sum_j B^j / (2j)! and Od = A sum_j B^j / (2j+1)!, j = 0 .. (degree-1)/2,
    and that of e^-A is Ev - Od. Each sum over j is cut into chunks of the
    powers I, B, ..., B^tau, to be joined by Horner's rule in B^tau; only the
    last chunk uses B^tau itself. Row 2k holds chunk k of the even sum and
    row 2k+1 chunk k of the odd sum, so one product of this matrix with the
    stacked powers forms every chunk of both.
    """
    top = (degree - 1) // 2
    count = max(1, -(-top // tau))
    c = np.zeros((count, 2, tau + 1))
    for j in range(top + 1):
        k = min(j // tau, count - 1)
        for odd in (0, 1):
            c[k, odd, j - k * tau] = 1.0 / math.factorial(2 * j + odd)
    return c.reshape(2 * count, tau + 1)


# Taylor degrees, each the highest that its count of matrix products reaches
# (2, 3, 4, 5, 6, 7, 8, counting A^2 and the odd part's factor A), with tau,
# the highest power of B = A^2 its evaluation forms, and theta: the truncation
# is e^(A + dA) with |dA| <= 2^-53 |A| wherever the norm bound of A is at most
# theta. The thetas are the backward-error bound of Al-Mohy & Higham (SIAM J.
# Sci. Comput. 2011, Section 3, Table 3.1) evaluated at these degrees and
# rounded down to three digits.
_TAYLOR = ((3, 1, 1.38e-5), (5, 2, 2.40e-3), (7, 3, 2.38e-2), (9, 2, 8.95e-2),
           (13, 3, 3.99e-1), (17, 4, 9.30e-1), (21, 5, 1.62))
_THETAS = tuple(theta for _, _, theta in _TAYLOR)
_CHUNKS = {degree: _taylor_chunks(degree, tau) for degree, tau, _ in _TAYLOR}
_TAU_MAX = max(tau for _, tau, _ in _TAYLOR)
# From row 4, degree 13, on, the norm bound may be alpha = max(|A^4|^(1/4),
# |A^5|^(1/5)) instead of |A| (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
# 2009, Theorem 4.2 with p = 4, valid where p (p - 1) <= degree + 1). For a
# non-normal A alpha is far below |A|, and each halving saves a squaring.
_ALPHA_ROW = 4


def _exp_pair(a, norm):
    """(e^a, e^-a) stacked in one array, for `a` of finite 1-norm `norm`.

    Scaling and squaring on the even/odd split of a Taylor polynomial: the
    lowest degree whose theta covers the scaled matrix, both legs from the
    same powers of B = A^2, both squared s times, then one Newton-Schulz
    step f <- f - f (e f - I), which makes f the inverse of e to working
    accuracy (Higham, Functions of Matrices, 2008, Chapter 7). Entries
    may be infinite or NaN where the result overflows. The powers I, B, ...,
    B^tau fill one buffer of this call, so one product with the chunk
    coefficients reads them all.
    """
    n = a.shape[0]
    powers = np.empty((_TAU_MAX + 1, n, n))
    powers[0] = np.eye(n)
    formed = 2
    s = 0
    row = bisect.bisect_left(_THETAS, norm)
    if row < _ALPHA_ROW:
        np.matmul(a, a, out=powers[1])
    else:
        top = _THETAS[-1]
        s = max(0, math.ceil(math.log2(norm / top)))
        if s:
            a = np.ldexp(a, -s)
        np.matmul(a, a, out=powers[1])
        np.matmul(powers[1], powers[1], out=powers[2])
        formed = 3
        # alpha is at most the scaled |A|, itself at most top up to rounding,
        # so it can only take squarings off.
        a4 = _norm1(powers[2])
        alpha = min(top, max(a4 ** 0.25, (math.ldexp(norm, -s) * a4) ** 0.2))
        k = s if alpha == 0.0 else min(s, math.floor(math.log2(top / alpha)))
        if k:
            s -= k
            a = np.ldexp(a, k)
            np.ldexp(powers[1], 2 * k, out=powers[1])
            np.ldexp(powers[2], 4 * k, out=powers[2])
            alpha = math.ldexp(alpha, k)
        row = max(_ALPHA_ROW, bisect.bisect_left(_THETAS, alpha))
    degree, tau, _ = _TAYLOR[row]
    for i in range(formed, tau + 1):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    chunks = (_CHUNKS[degree] @ powers[:tau + 1].reshape(tau + 1, -1)).reshape(-1, 2, n, n)
    # Horner's rule in B^tau joins the chunks into Ev and the odd sum, whose
    # product with A is Od; then (Ev + Od, Ev - Od) overwrites the two parts.
    pair = chunks[-1]
    for chunk in chunks[-2::-1]:
        pair = pair @ powers[tau]
        pair += chunk
    odd = a @ pair[1]
    np.subtract(pair[0], odd, out=pair[1])
    pair[0] += odd
    for _ in range(s):
        pair = pair @ pair
    e, f = pair
    r = e @ f
    r.reshape(-1)[::n + 1] -= 1.0
    f -= f @ r
    return pair


def mat_exp(m) -> tuple[np.ndarray, np.ndarray]:
    """The pair (e^m, e^-m) of a square matrix, from matrix products alone.

    Both legs come from one scaling-and-squaring evaluation of the Taylor
    series, split into its even and odd parts (see _exp_pair), and the
    second leg is then corrected to the inverse of the first. Accuracy
    contract for the norms this package works at: the first leg is e^m to
    a backward error of about 2^-53 |m| before rounding, so
    ``fro_norm(mat_exp(g)[0] @ mat_exp(-g)[0] - I)`` stays below
    ``1e-11 * n`` for ``fro_norm(g) <= 10``, and ``e @ f - I`` of one pair
    is at the rounding level of that product. A zero matrix, signed zeros
    included, gives exactly ``np.eye(n)`` in both legs: its degree-3 Taylor
    legs are I and its Newton-Schulz residual is exactly zero. A result
    that overflows raises NumericalError, without a warning.
    """
    m = require_square(as_matrix(m))
    # Overflow, of the norm or of the result, is reported as NumericalError
    # below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm1(m)
        pair = _exp_pair(m, norm) if norm < math.inf else None
    if pair is None or not np.all(np.isfinite(pair)):
        raise NumericalError(
            f"matrix exponential overflowed (input 1-norm {norm:.3e}): "
            "e^m or e^-m is not finite"
        )
    return pair[0], pair[1]


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))

