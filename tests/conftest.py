"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept between runs, and there is
no per-example deadline, so results depend neither on earlier runs nor on
how fast the machine is at the moment. The `residual_checks` fixture
counts the tangency measurements of the manifold module.

Tests run at one BLAS thread, the `biorth` command's own policy, unless one
of the thread variables is already set: the policy is applied here, before
anything loads numpy, because BLAS reads the variables once, at load.
"""

from biorth_launcher import single_thread_default

single_thread_default()

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

import biorth.manifold  # noqa: E402

settings.register_profile("biorth", derandomize=True, deadline=None, database=None)
settings.load_profile("biorth")


@pytest.fixture
def residual_checks(monkeypatch):
    """Count the two-matmul tangency checks the manifold module runs."""
    calls = []
    measure = biorth.manifold._tangent_residual

    def counted(base, u, v):
        calls.append(base)
        return measure(base, u, v)

    monkeypatch.setattr(biorth.manifold, "_tangent_residual", counted)
    return calls
