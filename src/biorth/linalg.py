"""Dense matrix kernels: validation, SVD, matrix exponential, Frobenius tools.

Everything operates on float64 numpy arrays. Inputs are validated at the
boundary (shape, finiteness); the heavy lifting is delegated to LAPACK via
numpy/scipy behind the contracts below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalError


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

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def svd(m) -> SvdResult:
    """Full SVD of a square matrix.

    Raises DimensionError for non-square input and NumericalError if the
    underlying iteration fails to converge.
    """
    m = require_square(as_matrix(m))
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for {m.shape} input: {exc}") from exc
    return SvdResult(u=u, s=s, v=vh.T)


def mat_exp(m) -> np.ndarray:
    """Matrix exponential e^m of a square matrix.

    Uses scaling-and-squaring with a Pade core. Accuracy contract for the
    norms this package works at: ``fro_norm(mat_exp(g) @ mat_exp(-g) - I)``
    stays below ``1e-11 * n`` for ``fro_norm(g) <= 10``.
    """
    m = require_square(as_matrix(m))
    if not m.any():
        return np.eye(m.shape[0])
    # Overflow is reported as NumericalError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"matrix exponential overflowed (input Frobenius norm {fro_norm(m):.3e}); "
            "scaling failed to keep intermediate powers finite"
        )
    return out


def fro_inner(a, b) -> float:
    """Frobenius inner product, the entrywise product summed over all entries."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    require_same_shape(a, b)
    return float(np.vdot(a, b))


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))

