"""Chi-square survival function: reference values, accuracy, and shape."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselect import chi2_sf, DomainError


def test_zero_statistic_has_full_mass():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(0.0, 1) == 1.0


def test_aic_threshold_value():
    # One-d.f. statistic of 2 (the AIC penalty) maps to p = 0.15730.
    assert chi2_sf(2.0, 1) == pytest.approx(0.15730, abs=5e-6)


def test_bic_threshold_values():
    assert chi2_sf(math.log(400), 1) == pytest.approx(0.014, abs=5e-4)
    assert chi2_sf(math.log(100), 1) == pytest.approx(0.032, abs=5e-4)


def test_accuracy_against_scipy_grid():
    xs = np.concatenate([np.linspace(0.0, 200.0, 81), [1e-8, 0.01, 0.5, 1.5, 2.5]])
    dfs = [1, 2, 3, 4, 5, 8, 13, 21, 34, 50]
    worst = 0.0
    for df in dfs:
        for x in xs:
            err = abs(chi2_sf(float(x), df) - scipy.stats.chi2.sf(x, df))
            worst = max(worst, err)
    assert worst < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        chi2_sf(-0.5, 1)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)
    with pytest.raises(DomainError):
        chi2_sf(math.nan, 2)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 2.5)


def test_infinite_statistic():
    assert chi2_sf(math.inf, 4) == 0.0


@given(
    x=st.floats(min_value=0.0, max_value=200.0),
    df=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_bounds_property(x, df):
    p = chi2_sf(x, df)
    assert 0.0 <= p <= 1.0


@given(
    x=st.floats(min_value=0.01, max_value=150.0),
    step=st.floats(min_value=0.01, max_value=50.0),
    df=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_strictly_decreasing_in_x(x, step, df):
    # Strictness is checkable away from the float saturation at p = 1
    # (very large df with tiny x); there the weak inequality still holds.
    assert chi2_sf(x + step, df) < chi2_sf(x, df)


@given(
    x=st.floats(min_value=0.0, max_value=200.0),
    step=st.floats(min_value=0.0, max_value=50.0),
    df=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_never_increasing_in_x(x, step, df):
    assert chi2_sf(x + step, df) <= chi2_sf(x, df)
