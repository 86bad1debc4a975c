"""Riemannian optimization on the biorthogonal manifold of matrix pairs.

The manifold is the set of pairs (x, y) of real n x n matrices with
x @ y = I. The package provides its tangent-space projection, an
exponential-map retraction, first-order solvers over a small manifold
interface, benchmark objectives, text I/O for matrices and solver traces,
and a command line front end (`biorth`).
"""

from .errors import (
    BiorthError,
    DimensionError,
    InvalidTangentError,
    LineSearchError,
    MatrixFormatError,
    NumericalError,
    OffManifoldError,
)
from .linalg import SvdResult, as_matrix, fro_norm, mat_exp, svd
from .manifold import (
    AmbientPair,
    BiorthPoint,
    BiorthogonalManifold,
    EuclideanManifold,
    EuclideanPoint,
    TangentPair,
    default_feas_tol,
    default_tan_tol,
    identity_point,
    pair_inverse,
    pair_product,
    project_tangent,
    random_point,
    random_tangent,
    ray_acceleration,
    ray_velocity,
    retract,
)
from .matio import read_matrix, read_trace, write_matrix, write_trace
from .problems import (
    FunmapProblem,
    NearestPairProblem,
    PenaltyProblem,
    funnel_weights,
    random_nearest_pair,
    synth_funmap,
)
from .solvers import (
    SolverOptions,
    TraceRecord,
    armijo_search,
    conjugate_gradient,
    fd_gradient_check,
    gradient_descent,
    riemannian_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientPair",
    "BiorthError",
    "BiorthPoint",
    "BiorthogonalManifold",
    "DimensionError",
    "EuclideanManifold",
    "EuclideanPoint",
    "FunmapProblem",
    "InvalidTangentError",
    "LineSearchError",
    "MatrixFormatError",
    "NearestPairProblem",
    "NumericalError",
    "OffManifoldError",
    "PenaltyProblem",
    "SolverOptions",
    "SvdResult",
    "TangentPair",
    "TraceRecord",
    "armijo_search",
    "as_matrix",
    "conjugate_gradient",
    "default_feas_tol",
    "default_tan_tol",
    "fd_gradient_check",
    "fro_norm",
    "funnel_weights",
    "gradient_descent",
    "identity_point",
    "mat_exp",
    "pair_inverse",
    "pair_product",
    "project_tangent",
    "random_nearest_pair",
    "random_point",
    "random_tangent",
    "ray_acceleration",
    "ray_velocity",
    "read_matrix",
    "read_trace",
    "retract",
    "riemannian_gradient",
    "svd",
    "synth_funmap",
    "write_matrix",
    "write_trace",
]
