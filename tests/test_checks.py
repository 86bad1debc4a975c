import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

import biorth.checks
from biorth.checks import SUITES, projection_oracle_suite, run_suites


def test_run_suites_alone_scales_the_bounds():
    # Suites take no parameters and return unscaled bounds; run_suites
    # multiplies each bound by tol_scale exactly once.
    for name, suite in SUITES.items():
        assert not inspect.signature(suite).parameters, name
    names = ["exp-identity", "lie-closure"]
    full = run_suites(names, tol_scale=1.0)
    half = run_suites(names, tol_scale=0.5)
    assert [r.name for r in half] == names
    for a, b in zip(full, half):
        assert [c.label for c in b.checks] == [c.label for c in a.checks]
        assert [c.value for c in b.checks] == [c.value for c in a.checks]
        assert [c.bound for c in b.checks] == [0.5 * c.bound for c in a.checks]


def test_an_unknown_suite_is_named_with_the_choices():
    with pytest.raises(KeyError, match=r"unknown suite 'nope'; choose from \['"):
        run_suites(["nope"])


@pytest.mark.parametrize("tol_scale", [math.inf, math.nan, -1.0])
def test_a_tolerance_factor_outside_its_range_is_rejected(tol_scale):
    # inf would pass every suite, and NaN or a negative factor fail every one.
    with pytest.raises(ValueError, match="tol_scale must be >= 0 and finite"):
        run_suites(["exp-identity"], tol_scale=tol_scale)


def test_a_nan_sample_fails_its_suite(monkeypatch):
    # One projection among the suite's 700 holds a NaN entry: the suite's
    # worst value is NaN and it fails, whatever its bound is scaled to.
    project = biorth.checks.project_tangent
    calls = []

    def project_with_one_nan(p, a):
        t = project(p, a)
        calls.append(None)
        if len(calls) != 5:
            return t
        u = t.u.copy()
        u[0, 0] = math.nan
        return SimpleNamespace(u=u, v=t.v)

    monkeypatch.setattr(biorth.checks, "project_tangent", project_with_one_nan)
    [check] = projection_oracle_suite()
    assert check.label == "worst rel err vs vectorized solve"
    assert math.isnan(check.value)
    assert not check.passed
    calls.clear()
    [result] = run_suites(["projection-oracle"], tol_scale=1e300)
    assert not result.passed
    assert "nan <= " in result.summary()


def test_a_suite_reports_the_worst_sample_per_label_in_first_seen_order():
    @biorth.checks._worst_of_samples
    def samples():
        yield "b", 2.0, 1.0
        yield "a", 1.0, 0.5
        yield "b", 2.0, 3.0
        yield "a", 1.0, np.float64(0.25)

    checks = samples()
    assert [(c.label, c.value, c.bound) for c in checks] == [("b", 3.0, 2.0), ("a", 0.5, 1.0)]
    assert [type(c.value) for c in checks] == [float, float]
    assert [c.passed for c in checks] == [False, True]
