"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept between runs, and there is
no per-example deadline, so results depend neither on earlier runs nor on
how fast the machine is at the moment. The `residual_checks` fixture
counts the tangency measurements of the manifold module.
"""

import pytest
from hypothesis import settings

import biorth.manifold

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
