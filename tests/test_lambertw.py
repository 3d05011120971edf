import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupage.lambertw import BRANCH_POINT, lambert_w0, lambert_wm1

from oracles import bisect_lambert


def test_branch_point_is_exactly_minus_one():
    assert lambert_w0(BRANCH_POINT) == -1.0
    assert lambert_wm1(BRANCH_POINT) == -1.0


def test_known_values_against_bisection_oracle():
    # frozen bisection-oracle values for y = -0.2
    assert lambert_w0(-0.2) == pytest.approx(-0.25917110181907377, abs=1e-12)
    assert lambert_wm1(-0.2) == pytest.approx(-2.5426413577735265, abs=1e-12)


def test_agrees_with_bisection_on_grid():
    for y in np.geomspace(1e-10, 1 / math.e - 1e-6, 40):
        y = float(-y)
        assert lambert_w0(y) == pytest.approx(bisect_lambert(y, -1.0, 0.0), abs=1e-10)
        assert lambert_wm1(y) == pytest.approx(bisect_lambert(y, -50.0, -1.0), abs=1e-9)


@given(st.floats(min_value=BRANCH_POINT, max_value=-1e-300, exclude_max=False))
def test_round_trip_both_branches(y):
    for value in (lambert_w0(y), lambert_wm1(y)):
        assert abs(value * math.exp(value) - y) <= 1e-12 * abs(y)


def test_round_trip_near_zero_minus():
    for y in (-1e-8, -1e-12, -1e-100):
        w = lambert_wm1(y)
        assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)
        assert w < -1.0


def test_branch_ranges_and_ordering():
    for y in np.linspace(BRANCH_POINT + 1e-9, -1e-6, 50):
        y = float(y)
        w0 = lambert_w0(y)
        wm1 = lambert_wm1(y)
        assert -1.0 <= w0 < 0.0
        assert wm1 <= -1.0 <= w0


def test_monotonicity_on_shared_domain():
    ys = [float(y) for y in np.linspace(BRANCH_POINT + 1e-10, -1e-9, 200)]
    w0s = [lambert_w0(y) for y in ys]
    wm1s = [lambert_wm1(y) for y in ys]
    assert all(a <= b for a, b in zip(w0s, w0s[1:]))  # increasing
    assert all(a >= b for a, b in zip(wm1s, wm1s[1:]))  # decreasing


def test_domain_errors():
    with pytest.raises(ValueError):
        lambert_w0(BRANCH_POINT - 0.01)
    with pytest.raises(ValueError):
        lambert_wm1(BRANCH_POINT - 1e-9)
    with pytest.raises(ValueError):
        lambert_wm1(0.0)
    with pytest.raises(ValueError):
        lambert_wm1(0.5)
    with pytest.raises(ValueError):
        lambert_w0(math.nan)
    with pytest.raises(ValueError):
        lambert_wm1(math.nan)


def test_principal_branch_nonnegative_arguments():
    assert lambert_w0(0.0) == 0.0
    for y in (1e-6, 0.5, 1.0, math.e, 100.0, 1e8):
        w = lambert_w0(y)
        assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)
