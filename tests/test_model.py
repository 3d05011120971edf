import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupage.model import DIVISORS_MAX_N, SystemConfig, divisors, validate_config

from oracles import brute_force_divisors, group_outcome, sample_statuses, source_service_time


def test_validate_config_fills_derived_fields():
    cfg = validate_config(120, 0.1, 4)
    assert cfg.m == 30
    assert cfg.q == pytest.approx(0.9**4, rel=1e-12)

    cfg = validate_config(48, 0.05, 6)
    assert cfg.m == 8
    assert cfg.q == pytest.approx(0.95**6, rel=1e-12)

    cfg = validate_config(np.int64(48), 0.05, np.int64(6))
    assert (type(cfg.n), type(cfg.k), type(cfg.m)) == (int, int, int)
    assert cfg.m == 8
    assert cfg.q == pytest.approx(0.95**6, rel=1e-12)


def test_validate_config_degenerate_probabilities():
    assert validate_config(10, 0.0, 5).q == 1.0
    assert validate_config(10, 1.0, 5).q == 0.0
    assert math.copysign(1.0, validate_config(10, 0.0, 5).qbar) == 1.0  # +0.0, not -0.0
    assert validate_config(10, 0.0, 5).qbar == 0.0
    assert validate_config(10, 1.0, 5).qbar == 1.0


def test_qbar_is_one_minus_q_without_cancellation():
    # 1 - q keeps only the digits of q near 1; qbar = -expm1(k*log1p(-p)) keeps all of them
    cfg = validate_config(10000, 1e-12, 10000)
    with mpmath.workdps(50):
        exact = 1 - (1 - mpmath.mpf(1e-12)) ** 10000
        assert abs(cfg.qbar - exact) <= 1e-15 * exact
        assert abs((1.0 - cfg.q) - exact) > 1e-10 * exact


def test_validate_config_rejects_non_divisor():
    with pytest.raises(ValueError, match="divide"):
        validate_config(120, 0.1, 7)


@pytest.mark.parametrize(
    "n,p,k",
    [
        (120, -0.1, 4),
        (120, 1.1, 4),
        (120, 0.1, 0),
        (120, 0.1, 121),
        (0, 0.1, 1),
        (120.0, 0.1, 4),
        (120, 0.1, 4.0),
        (4, 0.5, True),
    ],
)
def test_validate_config_rejects_out_of_range(n, p, k):
    with pytest.raises(ValueError):
        validate_config(n, p, k)


def test_all_clear_probability_small_p_precision():
    # (1-p)**k and 1 - q lose digits for tiny p; the log1p route must not
    p, k = 1e-12, 1000
    cfg = SystemConfig(1000, p, k)
    assert cfg.q == math.exp(k * math.log1p(-p))
    assert cfg.qbar == -math.expm1(k * math.log1p(-p))


def test_divisors_examples():
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(1) == [1]
    assert divisors(48) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_fails_fast_only_above_the_bound():
    assert DIVISORS_MAX_N == 10**12
    assert divisors(10**12) == sorted(2**a * 5**b for a in range(13) for b in range(13))
    assert divisors(999_999_999_989) == [1, 999_999_999_989]  # the largest prime under the bound
    with pytest.raises(ValueError, match="n <= 1000000000000"):
        divisors(10**12 + 1)


@given(st.integers(min_value=1, max_value=3000))
def test_divisors_matches_brute_force(n):
    result = divisors(n)
    assert result == brute_force_divisors(n)
    assert result[0] == 1 and result[-1] == n


def test_sample_statuses_degenerate():
    rng = np.random.default_rng(0)
    zeros = sample_statuses(validate_config(12, 0.0, 3), rng)
    assert zeros.shape == (4, 3)
    assert not zeros.any()
    ones = sample_statuses(validate_config(12, 1.0, 3), rng)
    assert ones.all()


def test_sample_statuses_mean_converges():
    cfg = validate_config(100_000, 0.5, 1)
    statuses = sample_statuses(cfg, np.random.default_rng(42))
    assert abs(statuses.mean() - 0.5) < 0.01


def test_sample_statuses_deterministic_per_seed():
    cfg = validate_config(24, 0.3, 4)
    a = sample_statuses(cfg, np.random.default_rng(9))
    b = sample_statuses(cfg, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_positive_group_rate_matches_one_minus_q():
    for p in (0.1, 0.5):
        cfg = validate_config(500_000, p, 5)  # 100k groups of 5
        statuses = sample_statuses(cfg, np.random.default_rng(3))
        frac = statuses.any(axis=1).mean()
        expected = 1.0 - cfg.q
        se = math.sqrt(cfg.q * (1.0 - cfg.q) / cfg.m)
        assert abs(frac - expected) < 4 * se


def test_group_outcome_examples():
    out = group_outcome([0, 0, 0])
    assert (out.has_positive, out.group_service_time) == (False, 1)
    out = group_outcome([0, 1, 0])
    assert (out.has_positive, out.group_service_time) == (True, 4)
    out = group_outcome([1])
    assert (out.has_positive, out.group_service_time) == (True, 2)


def test_group_outcome_rejects_bad_input():
    with pytest.raises(ValueError, match="expected 4"):
        group_outcome([0, 1, 0], expected_len=4)
    with pytest.raises(ValueError):
        group_outcome([])
    with pytest.raises(ValueError, match="binary"):
        group_outcome([0, 2, 0])


def test_source_service_time_examples():
    assert source_service_time(False, 5) == 1
    assert source_service_time(True, 1) == 2
    with pytest.raises(ValueError):
        source_service_time(True, 0)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16))
def test_group_outcome_consistent_with_source_service(statuses):
    out = group_outcome(statuses)
    k = len(statuses)
    assert out.has_positive == (1 in statuses)
    assert out.group_service_time == source_service_time(out.has_positive, k)
    times = [source_service_time(out.has_positive, j) for j in range(1, k + 1)]
    assert times == sorted(times)  # non-decreasing in j
    if not out.has_positive:
        assert set(times) == {1}
