"""Riemannian optimization on the biorthogonal manifold of matrix pairs.

The manifold is the set of pairs (x, y) of real n x n matrices with
x @ y = I. The package provides its tangent-space projection, an
exponential-map retraction, first-order solvers over a small manifold
interface, benchmark objectives, text I/O for matrices and solver traces,
and a command line front end (`biorth`).
"""

from . import errors, linalg, manifold, matio, problems, solvers
from .errors import *
from .linalg import *
from .manifold import *
from .matio import *
from .problems import *
from .solvers import *

__version__ = "0.1.0"

# Each module declares its public names in its own __all__.
__all__ = (errors.__all__ + linalg.__all__ + manifold.__all__ + matio.__all__
           + problems.__all__ + solvers.__all__)
