import inspect
import math

import pytest

from biorth.checks import SUITES, run_suites


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
